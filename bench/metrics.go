package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's whole vocabulary: BENCHMARK.json repeats them, and the
// smoke test fails if the two ever disagree.
type metricDef struct {
	Name string
	Unit string
}

// metricValue is one measured metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them from its untraced run, and BENCHMARK.json bounds
// each. The two timings are low quantiles, not medians, on purpose: see
// "Why low quantiles" in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p05", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// informational is printed beside the end-to-end metrics of an untraced
// run but is in neither the result line nor BENCHMARK.json: mean and
// median move with the box's other tenants too much to carry a bound.
var informational = []metricDef{
	{"ops_per_s", "op/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s_p50", "s"},
}

// perLayer is what the traced run reports. A workload that does not
// exercise a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"},
	{"sim.events_per_s", "1/s"},
	{"sim.ns_per_event_d16", "ns"},
	{"sim.ns_per_event_d16k", "ns"},
	{"sim.cancel_ratio", "ratio"},

	{"ether.nic.frames_per_op", "count"},
	{"ether.nic.queue_drops_per_op", "count"},
	{"ether.switch.ns_per_hop_64", "ns"},
	{"ether.switch.ns_per_hop_1514", "ns"},
	{"ether.bus.ns_per_hop", "ns"},
	{"ether.bus.collisions_per_op", "count"},
	{"ether.trunk.ns_per_hop", "ns"},
	{"ether.fabric.hops_per_frame", "ratio"},
	{"ether.fabric.flood_ratio", "ratio"},
	{"ether.pool.gets_per_op", "count"},
	{"ether.pool.hit_ratio", "ratio"},

	{"rll.frames_per_op", "count"},
	{"rll.retrans_ratio", "ratio"},
	{"rll.ns_per_frame", "ns"},

	{"rether.tokens_per_op", "count"},
	{"rether.token_retrans_ratio", "ratio"},
	{"rether.ns_per_token", "ns"},

	{"core.classify.ns_per_packet", "ns"},
	{"core.classify.tuples_per_packet", "count"},
	{"core.engine.packets_per_op", "count"},
	{"core.engine.match_ratio", "ratio"},
	{"core.engine.actions_per_packet", "count"},
	{"core.engine.faults_per_op", "count"},
	{"core.engine.ns_per_packet", "ns"},
	{"core.control.ctl_bytes_per_op", "B"},

	{"stack.ns_per_packet", "ns"},
	{"tcp.segments_per_op", "count"},
	{"tcp.retrans_ratio", "ratio"},
	{"tcp.ns_per_segment", "ns"},

	{"facade.compile_us", "us"},
	{"facade.build_ms", "ms"},
	{"facade.reset_us", "us"},
	{"facade.arm_us", "us"},
	{"facade.run_ms", "ms"},
	{"facade.report_us", "us"},
	{"facade.report_bytes", "B"},
	{"facade.allocs_per_event", "count"},
	{"facade.alloc_bytes_per_event", "B"},
	{"facade.legacy_ratio", "ratio"},
	{"facade.shards_speedup", "ratio"},

	{"campaign.runs_per_s", "1/s"},
	{"campaign.parse_us", "us"},
	{"campaign.hash_us", "us"},
	{"campaign.fixed_ms", "ms"},
	{"campaign.per_run_us", "us"},
	{"campaign.overhead_us_per_run", "us"},
	{"campaign.record_encode_us", "us"},
	{"campaign.record_bytes", "B"},
	{"campaign.allocs_per_run", "count"},
	{"campaign.alloc_kb_per_run", "KiB"},
	{"campaign.summary_us", "us"},
	{"campaign.workers_speedup", "ratio"},

	{"service.open_ms", "ms"},
	{"service.submit_ms_p50", "ms"},
	{"service.op_ms_p90", "ms"},
	{"service.first_record_ms_p50", "ms"},
	{"service.stream_ms_p50", "ms"},
	{"service.summary_ms_p50", "ms"},
	{"service.overhead_ratio", "ratio"},
	{"service.journal_bytes_per_run", "B"},
	{"service.replay_ms_p50", "ms"},
	{"service.replay_mb_per_s", "MiB/s"},
	{"service.status_ms_p50", "ms"},
	{"service.metrics_scrape_ms", "ms"},
	{"service.reopen_ms", "ms"},

	{"harness.trace_overhead_pct", "%"},
	{"harness.default_gc_ratio", "ratio"},
	{"share.sim", "ratio"},
	{"share.ether", "ratio"},
	{"share.rll", "ratio"},
	{"share.rether", "ratio"},
	{"share.core", "ratio"},
	{"share.stack_tcp", "ratio"},
	{"share.facade", "ratio"},
	{"share.campaign", "ratio"},
	{"share.service", "ratio"},
	{"share.unattributed", "ratio"},
}

// metricSet collects values by name and renders them against a
// definition list, so a metric the list does not know cannot be emitted
// and one it does know cannot be forgotten (it reads 0).
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
