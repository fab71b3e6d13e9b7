package virtualwire

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"virtualwire/internal/metrics"
)

// Metrics aliases re-exported so callers can consume the observability
// layer without importing internal packages.
type (
	// MetricsRegistry is the testbed's live instrument registry (see
	// Testbed.Metrics).
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is one layer's instrument readings (see
	// Node.Snapshot).
	MetricsSnapshot = metrics.Snapshot
	// MetricsSample is one gathered reading, ready for export.
	MetricsSample = metrics.Sample
	// MetricsPoint is one sampled instant of the whole registry.
	MetricsPoint = metrics.Point
	// MetricsSeries is a run's sampled time series plus final readings.
	MetricsSeries = metrics.Series
)

// MetricsNode is the sentinel node label for testbed-global instruments
// (the scheduler and the medium).
const MetricsNode = "testbed"

// Metrics returns the live instrument registry. Layer sources are
// registered when the testbed is built (first Run or RunFor); direct
// instruments (for example workload histograms) may be created on it at
// any time.
func (tb *Testbed) Metrics() *MetricsRegistry { return tb.reg }

// MetricsSeries returns the run's sampled time series (empty unless
// Config.MetricsSampleInterval was set) together with a final gather of
// every instrument at the current virtual time.
func (tb *Testbed) MetricsSeries() MetricsSeries {
	s := MetricsSeries{FinalAt: tb.sched.Now(), Final: tb.reg.Gather()}
	if tb.sampler != nil {
		s.Interval = tb.sampler.Interval()
		s.Points = tb.sampler.Points()
	}
	return s
}

// WriteMetricsJSON writes a series as indented JSON.
func WriteMetricsJSON(w io.Writer, s MetricsSeries) error { return metrics.WriteJSON(w, s) }

// WriteMetricsCSV writes a series in long CSV format.
func WriteMetricsCSV(w io.Writer, s MetricsSeries) error { return metrics.WriteCSV(w, s) }

// WriteMetricsPrometheus writes samples in the Prometheus text
// exposition format (one name{node=...,layer=...} value line each).
func WriteMetricsPrometheus(w io.Writer, samples []MetricsSample) error {
	return metrics.WritePrometheus(w, samples)
}

// MetricsSummary condenses the registry at run end for the RunReport.
type MetricsSummary struct {
	// Instruments is the number of distinct readings gathered.
	Instruments int `json:"instruments"`
	// SampledPoints is how many time-series points the sampler holds.
	SampledPoints int `json:"sampled_points,omitempty"`
	// SampleInterval echoes Config.MetricsSampleInterval.
	SampleInterval time.Duration `json:"sample_interval_ns,omitempty"`
	// Totals sums the final counter readings across nodes, keyed
	// "layer/name" (gauges and histograms are omitted: summing
	// instantaneous values across nodes rarely means anything).
	Totals map[string]float64 `json:"totals,omitempty"`
}

// MarshalJSON writes the summary without reflection (a summary rides in
// every campaign record); see NodeReport.appendJSON for the layouts.
func (m MetricsSummary) MarshalJSON() ([]byte, error) {
	return m.appendJSON(make([]byte, 0, 40+len(m.Totals)*40), -1), nil
}

func (m MetricsSummary) appendJSON(b []byte, depth int) []byte {
	d1 := deeper(depth)
	b = append(b, '{')
	b = appendMember(b, d1, "instruments")
	b = strconv.AppendInt(b, int64(m.Instruments), 10)
	if m.SampledPoints != 0 {
		b = append(b, ',')
		b = appendMember(b, d1, "sampled_points")
		b = strconv.AppendInt(b, int64(m.SampledPoints), 10)
	}
	if m.SampleInterval != 0 {
		b = append(b, ',')
		b = appendMember(b, d1, "sample_interval_ns")
		b = strconv.AppendInt(b, int64(m.SampleInterval), 10)
	}
	if len(m.Totals) != 0 {
		b = append(b, ',')
		b = appendMember(b, d1, "totals")
		b = append(b, '{')
		keys := make([]string, 0, len(m.Totals))
		for k := range m.Totals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMember(b, deeper(d1), k)
			b = appendJSONFloat(b, m.Totals[k])
		}
		b = appendBreak(b, d1)
		b = append(b, '}')
	}
	b = appendBreak(b, depth)
	return append(b, '}')
}

// appendJSONFloat formats a float64 exactly as encoding/json does, so
// the custom marshaller above stays byte-compatible with the reflected
// one.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-09" style exponents to "e-9".
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// totalsKey returns the interned "layer/name" Totals key, so a summary
// gathered every run concatenates each distinct key once per testbed
// lifetime instead of once per counter per run.
func (tb *Testbed) totalsKey(layer, name string) string {
	k := [2]string{layer, name}
	if s, ok := tb.totalsKeys[k]; ok {
		return s
	}
	if tb.totalsKeys == nil {
		tb.totalsKeys = make(map[[2]string]string)
	}
	s := layer + "/" + name
	tb.totalsKeys[k] = s
	return s
}

func (tb *Testbed) metricsSummary() MetricsSummary {
	sum := MetricsSummary{Totals: make(map[string]float64, 64)}
	sum.Instruments = tb.reg.Visit(func(_, layer, name string, kind metrics.Kind, v float64) {
		if kind != metrics.KindCounter {
			return
		}
		// Free-list hit counters depend on whether the run started from a
		// fresh or a reused (Reset) testbed — the only observable the warm
		// pools change. Excluding them keeps RunReports bit-identical
		// across the two paths; the full readings stay available from
		// Metrics()/MetricsSeries.
		if (layer == "pool" && name == "hits") ||
			(layer == "scheduler" && name == "events_recycled") {
			return
		}
		sum.Totals[tb.totalsKey(layer, name)] += v
	})
	if tb.sampler != nil {
		sum.SampledPoints = tb.sampler.Len()
		sum.SampleInterval = tb.sampler.Interval()
	}
	return sum
}

// Snapshot returns this node's current instrument readings for one
// layer. Valid layers are "engine", "nic", "ip", "tcp", "rll" and
// "rether"; ok is false for a layer the node does not run (and for "tcp"
// before the testbed is built).
func (n *Node) Snapshot(layer string) (MetricsSnapshot, bool) {
	switch layer {
	case "engine":
		return n.engine.Snapshot(), true
	case "nic":
		return n.host.NIC.Snapshot(), true
	case "ip":
		return n.host.IPv4.Snapshot(), true
	case "tcp":
		if n.tcp != nil {
			return n.tcp.Snapshot(), true
		}
	case "rll":
		if n.rll != nil {
			return n.rll.Snapshot(), true
		}
	case "rether":
		if n.rether != nil {
			return n.rether.Snapshot(), true
		}
	}
	return MetricsSnapshot{}, false
}

// SnapshotLayers lists the layers Node.Snapshot can report for this node
// right now.
func (n *Node) SnapshotLayers() []string {
	layers := []string{"engine", "nic", "ip"}
	if n.tcp != nil {
		layers = append(layers, "tcp")
	}
	if n.rll != nil {
		layers = append(layers, "rll")
	}
	if n.rether != nil {
		layers = append(layers, "rether")
	}
	return layers
}

// registerMetricSources wires every built layer into the registry with
// the uniform Snapshot hook; called once from build().
func (tb *Testbed) registerMetricSources() {
	// One aggregate source each for the per-shard schedulers and pools.
	// Counter sums are shard-count invariant (every event executes on
	// exactly one queue; every frame is cut from one pool and returned to
	// one, counted once each).
	tb.reg.RegisterSource(MetricsNode, "scheduler", tb.shardSchedulerSnapshot)
	tb.reg.RegisterSource(MetricsNode, "pool", tb.shardPoolSnapshot)
	if tb.ctl != nil {
		tb.reg.RegisterSource(MetricsNode, "controller", tb.ctl.Snapshot)
	}
	if tb.sw != nil {
		tb.reg.RegisterSource(MetricsNode, "switch", tb.sw.Snapshot)
	}
	if len(tb.fabric) > 0 {
		// The fabric registers as one aggregate source: per-switch sources
		// at fat-tree scale (hundreds of switches) would swamp every
		// gather and RunReport with keys nobody compares.
		tb.reg.RegisterSource(MetricsNode, "fabric", tb.fabricSnapshot)
	}
	if tb.bus != nil {
		tb.reg.RegisterSource(MetricsNode, "bus", tb.bus.Snapshot)
	}
	for _, n := range tb.nodes {
		tb.reg.RegisterSource(n.name, "nic", n.host.NIC.Snapshot)
		tb.reg.RegisterSource(n.name, "ip", n.host.IPv4.Snapshot)
		tb.reg.RegisterSource(n.name, "engine", n.engine.Snapshot)
		tb.reg.RegisterSource(n.name, "tcp", n.tcp.Snapshot)
		if n.rll != nil {
			tb.reg.RegisterSource(n.name, "rll", n.rll.Snapshot)
		}
		if n.rether != nil {
			tb.reg.RegisterSource(n.name, "rether", n.rether.Snapshot)
		}
	}
	if tb.cfg.MetricsSampleInterval > 0 {
		tb.sampler = metrics.NewSampler(tb.reg,
			tb.cfg.MetricsSampleInterval, tb.cfg.MetricsRingCapacity,
			tb.sched.Now,
			func(d time.Duration, fn func()) { tb.sched.After(d, "metrics.sample", fn) })
		tb.sampler.Start()
	}
}

// WriteMetricsFile writes the current series to w in the named format:
// "json", "csv" or "prom"/"prometheus" (the latter exports only the
// final gather, as Prometheus text carries no timestamps here).
func (tb *Testbed) WriteMetricsFile(w io.Writer, format string) error {
	s := tb.MetricsSeries()
	switch format {
	case "json":
		return metrics.WriteJSON(w, s)
	case "csv":
		return metrics.WriteCSV(w, s)
	case "prom", "prometheus":
		return metrics.WritePrometheus(w, s.Final)
	}
	return fmt.Errorf("virtualwire: unknown metrics format %q (want json, csv or prom)", format)
}
