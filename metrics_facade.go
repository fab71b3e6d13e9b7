package virtualwire

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"virtualwire/internal/jsonenc"
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

	keys []string // Totals' keys, sorted (see totalKeys)
}

// MarshalJSON writes the summary without reflection (a summary rides in
// every campaign record); see NodeReport.appendJSON for the layouts.
func (m MetricsSummary) MarshalJSON() ([]byte, error) {
	return m.appendJSON(make([]byte, 0, 40+len(m.Totals)*40), -1)
}

func (m MetricsSummary) appendJSON(b []byte, depth int) ([]byte, error) {
	d1 := jsonenc.Deeper(depth)
	b = append(b, '{')
	b = jsonenc.AppendMember(b, d1, "instruments")
	b = strconv.AppendInt(b, int64(m.Instruments), 10)
	if m.SampledPoints != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "sampled_points")
		b = strconv.AppendInt(b, int64(m.SampledPoints), 10)
	}
	if m.SampleInterval != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "sample_interval_ns")
		b = strconv.AppendInt(b, int64(m.SampleInterval), 10)
	}
	if len(m.Totals) != 0 {
		b = append(b, ',')
		b = jsonenc.AppendMember(b, d1, "totals")
		b = append(b, '{')
		for i, k := range m.totalKeys() {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendMember(b, jsonenc.Deeper(d1), k)
			var ok bool
			if b, ok = jsonenc.AppendFloat(b, m.Totals[k]); !ok {
				return b, errNonFinite
			}
		}
		b = jsonenc.AppendBreak(b, d1)
		b = append(b, '}')
	}
	b = jsonenc.AppendBreak(b, depth)
	return append(b, '}'), nil
}

// totalKeys returns Totals' keys in sorted order: the list the testbed's
// report schema shares with every summary it produces, unless the map's
// key set has been edited since; then, and for a summary that was
// decoded or built by hand, the keys are sorted afresh.
func (m MetricsSummary) totalKeys() []string {
	if len(m.keys) == len(m.Totals) {
		current := true
		for _, k := range m.keys {
			if _, current = m.Totals[k]; !current {
				break
			}
		}
		if current {
			return m.keys
		}
	}
	keys := make([]string, 0, len(m.Totals))
	for k := range m.Totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns this node's current instrument readings for one
// layer, a copy the caller owns. Valid layers are "engine", "nic", "ip",
// "tcp", "rll" and "rether"; ok is false for a layer the node does not
// run, and for every layer before the testbed is built.
func (n *Node) Snapshot(layer string) (MetricsSnapshot, bool) {
	if n.host == nil {
		return MetricsSnapshot{}, false
	}
	sn := &n.tb.snap
	sn.Reset()
	switch {
	case layer == "engine":
		n.engine.Snapshot(sn)
	case layer == "nic":
		n.host.NIC.Snapshot(sn)
	case layer == "ip":
		n.host.IPv4.Snapshot(sn)
	case layer == "tcp":
		n.tcp.Snapshot(sn)
	case layer == "rll" && n.rll != nil:
		n.rll.Snapshot(sn)
	case layer == "rether" && n.rether != nil:
		n.rether.Snapshot(sn)
	default:
		return MetricsSnapshot{}, false
	}
	return MetricsSnapshot{Values: append([]metrics.SnapshotValue(nil), sn.Values...)}, true
}

// SnapshotLayers lists the layers Node.Snapshot can report for this node
// right now: none before the testbed is built.
func (n *Node) SnapshotLayers() []string {
	if n.host == nil {
		return nil
	}
	layers := []string{"engine", "nic", "ip", "tcp"}
	if n.rll != nil {
		layers = append(layers, "rll")
	}
	if n.rether != nil {
		layers = append(layers, "rether")
	}
	return layers
}

// registerMetricSources wires every built layer into the registry with
// the uniform Snapshot hook; called once from build(). The hosts' layer
// hooks go in back to back, in node order: the report schema finds a
// host's rows by those source indices.
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
	switch {
	case tb.bus != nil:
		tb.reg.RegisterSource(MetricsNode, "bus", tb.bus.Snapshot)
	case tb.topologyActive():
		// A generated fabric registers as one aggregate source: per-switch
		// sources at fat-tree scale (hundreds of switches) would swamp
		// every gather and RunReport with keys nobody compares.
		tb.reg.RegisterSource(MetricsNode, "fabric", tb.fabricSnapshot)
	default:
		tb.reg.RegisterSource(MetricsNode, "switch", tb.fabric[0].Snapshot)
	}
	tb.nodeSources[0] = tb.reg.Sources()
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
	tb.nodeSources[1] = tb.reg.Sources()
	if tb.cfg.MetricsSampleInterval > 0 {
		tb.sampler = metrics.NewSampler(tb.reg,
			tb.cfg.MetricsSampleInterval, metrics.DefaultRingCapacity,
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
