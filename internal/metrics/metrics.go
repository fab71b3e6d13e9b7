// Package metrics is the unified observability layer for the simulated
// testbed: a registry of pull sources whose readings (counters, gauges,
// histograms) are keyed by (node, layer, name), a sampler ring of
// time-series points due at a fixed virtual-time interval, and
// exporters to JSON, CSV and Prometheus text format.
//
// The package deliberately depends only on the standard library so that
// every other internal package — including the simulation core itself —
// can implement the uniform hook
//
//	Snapshot(sn *metrics.Snapshot)
//
// without an import cycle. The hook appends the owner's readings to a
// Snapshot the caller owns and reuses, so reading a layer allocates
// nothing. Every reading enters that way: a layer reports its cumulative
// Stats struct, and a workload that observes RTT samples into a
// Histogram it owns reports the histogram. The registry keeps no value
// of its own.
//
// Everything here runs inside the single-goroutine simulation, so the
// registry is intentionally lock-free: determinism comes from the event
// scheduler, and Gather sorts by key so exports are byte-stable across
// registration orders.
package metrics

import (
	"fmt"
	"sort"
)

// Kind is the instrument type.
type Kind uint8

// Instrument kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota + 1
	// KindGauge is an instantaneous value that may move both ways.
	KindGauge
	// KindHistogram is a bucketed distribution of observations.
	KindHistogram
)

// String names the kind for exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its lowercase name. A value that is
// none of the kinds has no name UnmarshalJSON would read back, and is an
// error here rather than there.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k < KindCounter || k > KindHistogram {
		return nil, fmt.Errorf("metrics: unknown instrument kind %d", uint8(k))
	}
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes what MarshalJSON writes, so an exported series (a
// journaled campaign record carries one) reads back.
func (k *Kind) UnmarshalJSON(b []byte) error {
	for c := KindCounter; c <= KindHistogram; c++ {
		if string(b) == `"`+c.String()+`"` {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("metrics: unknown instrument kind %s", b)
}

// Bucket is one cumulative histogram bucket: the count of observations
// <= Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Histogram is a fixed-bucket distribution. Bounds are upper edges in
// ascending order; observations beyond the last bound land in the
// implicit +Inf bucket (reported via Count).
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram; its owner reports it through a pull
// source with Snapshot.Histogram.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Reset zeroes every bucket, the sum and the count, keeping the bounds.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum = 0
	h.n = 0
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets returns the cumulative bucket counts (excluding +Inf, which is
// Count).
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.bounds))
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		out[i] = Bucket{Le: b, Count: cum}
	}
	return out
}

// SnapshotValue is one named reading inside a Snapshot. A histogram
// reading carries its histogram in Hist and has Value 0.
type SnapshotValue struct {
	Name  string
	Kind  Kind
	Value float64
	Hist  *Histogram
}

// Snapshot is instrument readings at a point in virtual time — the
// uniform currency every layer's Snapshot(*Snapshot) hook appends to
// with the Counter, Gauge and Histogram helpers; order is preserved. The
// caller owns it: Reset between layers and one Snapshot serves a whole
// walk.
type Snapshot struct {
	Values []SnapshotValue
}

// Reset empties the snapshot, keeping its storage.
func (s *Snapshot) Reset() { s.Values = s.Values[:0] }

// Counter appends a cumulative count reading.
func (s *Snapshot) Counter(name string, v uint64) {
	s.Values = append(s.Values, SnapshotValue{Name: name, Kind: KindCounter, Value: float64(v)})
}

// Gauge appends an instantaneous reading.
func (s *Snapshot) Gauge(name string, v float64) {
	s.Values = append(s.Values, SnapshotValue{Name: name, Kind: KindGauge, Value: v})
}

// Histogram appends a distribution reading. The snapshot holds h itself,
// not a copy: Gather reads its buckets when it expands the reading.
func (s *Snapshot) Histogram(name string, h *Histogram) {
	s.Values = append(s.Values, SnapshotValue{Name: name, Kind: KindHistogram, Hist: h})
}

// Get looks a reading up by name.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, v := range s.Values {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// Sample is one gathered reading, ready for export. Counters and gauges
// carry Value; histograms carry Count, Sum and Buckets instead.
type Sample struct {
	Node    string   `json:"node"`
	Layer   string   `json:"layer"`
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

type source struct {
	node, layer string
	fn          func(*Snapshot)
}

// Registry holds every pull source of one testbed: the registry stores
// no reading of its own, it asks its sources on every walk. The zero
// value is an empty registry.
type Registry struct {
	sources []source
	// scratch is the one Snapshot every pull source appends to, on every
	// Visit and Gather.
	scratch Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterSource installs a pull hook: on every Visit and Gather, fn
// appends the source's readings — reported under (node, layer) — to the
// Snapshot it is handed. That Snapshot is the registry's own scratch,
// reused for every source of every walk: fn may only append to it
// (Counter, Gauge, Histogram) and must not keep it, or its Values, past
// the call.
func (r *Registry) RegisterSource(node, layer string, fn func(*Snapshot)) {
	r.sources = append(r.sources, source{node: node, layer: layer, fn: fn})
}

// Sources reports how many pull sources are registered: the index Visit
// will give the next one.
func (r *Registry) Sources() int { return len(r.sources) }

// Visit walks every reading Gather would return — the same (node,
// layer, name, kind, value) multiset, histograms as value 0 — without
// building or sorting a sample slice or allocating at all: src sees each
// pull source, in registration order (i counts them from 0), with the
// readings it appended. Those are the registry's scratch and die when
// src returns. The order is fixed for a given registry, so a caller
// summing floats gets the same bits every time, and a caller may key
// tables on i and on a reading's position. It returns the number of
// readings.
//
// A run-end report over a 1000-host fabric reads ~30k values to fill
// its node rows and keep 60 sums; Visit is for that, Gather for exports
// that need the samples.
func (r *Registry) Visit(src func(i int, node, layer string, readings []SnapshotValue)) int {
	n := 0
	for i := range r.sources {
		s := &r.sources[i]
		r.scratch.Reset()
		s.fn(&r.scratch)
		n += len(r.scratch.Values)
		src(i, s.node, s.layer, r.scratch.Values)
	}
	return n
}

// Gather reads every pull source and returns the samples sorted by
// (node, layer, name) — byte-stable regardless of registration order,
// which keeps sampled series and exports deterministic. A histogram
// reading expands to its count, sum and cumulative buckets.
func (r *Registry) Gather() []Sample {
	out := make([]Sample, 0, len(r.sources)*8)
	for _, src := range r.sources {
		r.scratch.Reset()
		src.fn(&r.scratch)
		for _, v := range r.scratch.Values {
			s := Sample{Node: src.node, Layer: src.layer, Name: v.Name, Kind: v.Kind, Value: v.Value}
			if v.Hist != nil {
				s.Count, s.Sum, s.Buckets = v.Hist.Count(), v.Hist.Sum(), v.Hist.Buckets()
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Name < b.Name
	})
	return out
}
