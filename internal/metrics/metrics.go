// Package metrics is the unified observability layer for the simulated
// testbed: a lightweight registry of typed instruments (counters, gauges,
// histograms) keyed by (node, layer, name), a virtual-time sampler that
// records periodic snapshots into a ring of time-series points, and
// exporters to JSON, CSV and Prometheus text format.
//
// The package deliberately depends only on the standard library so that
// every other internal package — including the simulation core itself —
// can implement the uniform hook
//
//	Snapshot(sn *metrics.Snapshot)
//
// without an import cycle. The hook appends the layer's readings to a
// Snapshot the caller owns and reuses, so reading a layer allocates
// nothing. Layers that keep their own cumulative Stats structs expose
// them through that hook as pull sources; code that wants
// push-style instruments (for example a workload observing RTT samples
// into a histogram) creates them directly on the Registry.
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

// Key identifies one instrument: which host, which protocol layer, which
// quantity. Testbed-global instruments (the scheduler, the medium) use a
// sentinel node name such as "testbed".
type Key struct {
	Node  string
	Layer string
	Name  string
}

func (k Key) less(o Key) bool {
	if k.Node != o.Node {
		return k.Node < o.Node
	}
	if k.Layer != o.Layer {
		return k.Layer < o.Layer
	}
	return k.Name < o.Name
}

// Counter is a cumulative monotone count.
type Counter struct{ v float64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v += d
	}
}

// Value reads the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add moves the value by d (either direction).
func (g *Gauge) Add(d float64) { g.v += d }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.v }

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

// NewHistogram builds a standalone histogram (the Registry constructor is
// the usual entry point).
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

// SnapshotValue is one named reading inside a Snapshot.
type SnapshotValue struct {
	Name  string
	Kind  Kind
	Value float64
}

// Snapshot is instrument readings at a point in virtual time — the
// uniform currency every layer's Snapshot(*Snapshot) hook appends to
// with the Counter and Gauge helpers; order is preserved. The caller
// owns it: Reset between layers and one Snapshot serves a whole walk.
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

type instrument struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

type source struct {
	node, layer string
	fn          func(*Snapshot)
}

// Registry holds every instrument and pull source of one testbed.
// Construct with NewRegistry; the zero value is not usable.
type Registry struct {
	instruments map[Key]*instrument
	sources     []source
	// keys caches the instrument keys in sorted order for Visit, which
	// rebuilds it when instruments were registered since.
	keys []Key
	// scratch is the one Snapshot every pull source appends to, on every
	// Visit and Gather.
	scratch Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[Key]*instrument)}
}

// Counter returns the counter for key, creating it on first use. It
// panics if the key is already registered with a different kind — that is
// a programming error, not a runtime condition.
func (r *Registry) Counter(node, layer, name string) *Counter {
	in := r.get(Key{node, layer, name}, KindCounter)
	if in.c == nil {
		in.c = &Counter{}
	}
	return in.c
}

// Gauge returns the gauge for key, creating it on first use.
func (r *Registry) Gauge(node, layer, name string) *Gauge {
	in := r.get(Key{node, layer, name}, KindGauge)
	if in.g == nil {
		in.g = &Gauge{}
	}
	return in.g
}

// Histogram returns the histogram for key, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(node, layer, name string, bounds []float64) *Histogram {
	in := r.get(Key{node, layer, name}, KindHistogram)
	if in.h == nil {
		in.h = NewHistogram(bounds)
	}
	return in.h
}

func (r *Registry) get(k Key, kind Kind) *instrument {
	in, ok := r.instruments[k]
	if !ok {
		in = &instrument{kind: kind}
		r.instruments[k] = in
		return in
	}
	if in.kind != kind {
		panic(fmt.Sprintf("metrics: %v/%v/%v registered as %v, requested as %v",
			k.Node, k.Layer, k.Name, in.kind, kind))
	}
	return in
}

// Reset zeroes every direct instrument (counters, gauges, histogram
// state) while keeping the instruments themselves and all registered
// pull sources, so a reused testbed reports into the same registry
// without re-registering anything. Pull sources read live layer state
// and need no zeroing here — resetting the layers resets their
// readings.
func (r *Registry) Reset() {
	for _, in := range r.instruments {
		switch in.kind {
		case KindCounter:
			if in.c != nil {
				in.c.v = 0
			}
		case KindGauge:
			if in.g != nil {
				in.g.v = 0
			}
		case KindHistogram:
			if in.h != nil {
				for i := range in.h.counts {
					in.h.counts[i] = 0
				}
				in.h.sum = 0
				in.h.n = 0
			}
		}
	}
}

// RegisterSource installs a pull hook: on every Visit and Gather, fn
// appends the source's readings — reported under (node, layer) — to the
// Snapshot it is handed. That Snapshot is the registry's own scratch,
// reused for every source of every walk: fn may only append to it
// (Counter, Gauge) and must not keep it, or its Values, past the call.
func (r *Registry) RegisterSource(node, layer string, fn func(*Snapshot)) {
	r.sources = append(r.sources, source{node: node, layer: layer, fn: fn})
}

// Instruments reports how many direct instruments exist (pull sources
// contribute to Gather but are not counted until gathered).
func (r *Registry) Instruments() int { return len(r.instruments) }

// Sources reports how many pull sources are registered: the index Visit
// will give the next one.
func (r *Registry) Sources() int { return len(r.sources) }

// Visit walks every reading Gather would return — the same (node,
// layer, name, kind, value) multiset, histograms as value 0 — without
// building or sorting a sample slice or allocating at all: inst sees
// each direct instrument, in key order, then src each pull source, in
// registration order (i counts them from 0), with the readings it
// appended. Those are the registry's scratch and die when src returns.
// The order is fixed for a given registry, so a caller summing floats
// gets the same bits every time, and a caller may key tables on i and
// on a reading's position. It returns the number of readings.
//
// A run-end report over a 1000-host fabric reads ~30k values to fill
// its node rows and keep 60 sums; Visit is for that, Gather for exports
// that need the samples.
func (r *Registry) Visit(inst func(k Key, kind Kind, value float64),
	src func(i int, node, layer string, readings []SnapshotValue)) int {
	if len(r.keys) != len(r.instruments) {
		r.keys = r.keys[:0]
		for k := range r.instruments {
			r.keys = append(r.keys, k)
		}
		sort.Slice(r.keys, func(i, j int) bool { return r.keys[i].less(r.keys[j]) })
	}
	n := len(r.keys)
	for _, k := range r.keys {
		in := r.instruments[k]
		var v float64
		switch in.kind {
		case KindCounter:
			v = in.c.Value()
		case KindGauge:
			v = in.g.Value()
		}
		inst(k, in.kind, v)
	}
	for i := range r.sources {
		s := &r.sources[i]
		r.scratch.Reset()
		s.fn(&r.scratch)
		n += len(r.scratch.Values)
		src(i, s.node, s.layer, r.scratch.Values)
	}
	return n
}

// Gather reads every direct instrument and pull source and returns the
// samples sorted by (node, layer, name) — byte-stable regardless of
// registration order, which keeps sampled series and exports
// deterministic.
func (r *Registry) Gather() []Sample {
	out := make([]Sample, 0, len(r.instruments)+len(r.sources)*8)
	for k, in := range r.instruments {
		s := Sample{Node: k.Node, Layer: k.Layer, Name: k.Name, Kind: in.kind}
		switch in.kind {
		case KindCounter:
			s.Value = in.c.Value()
		case KindGauge:
			s.Value = in.g.Value()
		case KindHistogram:
			s.Count = in.h.Count()
			s.Sum = in.h.Sum()
			s.Buckets = in.h.Buckets()
		}
		out = append(out, s)
	}
	for _, src := range r.sources {
		r.scratch.Reset()
		src.fn(&r.scratch)
		for _, v := range r.scratch.Values {
			out = append(out, Sample{
				Node: src.node, Layer: src.layer, Name: v.Name,
				Kind: v.Kind, Value: v.Value,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a := Key{out[i].Node, out[i].Layer, out[i].Name}
		b := Key{out[j].Node, out[j].Layer, out[j].Name}
		return a.less(b)
	})
	return out
}
