package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	want := []Bucket{{Le: 1, Count: 2}, {Le: 10, Count: 3}, {Le: 100, Count: 4}}
	if got := h.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	h.Reset()
	h.Observe(5)
	want = []Bucket{{Le: 1, Count: 0}, {Le: 10, Count: 1}, {Le: 100, Count: 1}}
	if got := h.Buckets(); h.Count() != 1 || h.Sum() != 5 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset and one sample: count %d, sum %v, buckets %+v", h.Count(), h.Sum(), got)
	}
}

// reading registers a source that reports one fixed reading.
func reading(r *Registry, node, layer, name string, kind Kind, v float64) {
	r.RegisterSource(node, layer, func(s *Snapshot) {
		s.Values = append(s.Values, SnapshotValue{Name: name, Kind: kind, Value: v})
	})
}

// TestGatherDeterministic registers the same sources in two different
// orders and requires byte-identical Gather output — the property that
// keeps sampled series reproducible across runs.
func TestGatherDeterministic(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { reading(r, "node1", "nic", "tx_frames", KindCounter, 3) },
			func() { reading(r, "node2", "tcp", "cwnd_segments", KindGauge, 8) },
			func() { reading(r, "node1", "engine", "drops", KindCounter, 1) },
			func() {
				r.RegisterSource("node2", "rll", func(s *Snapshot) {
					s.Counter("data_sent", 9)
					s.Gauge("inflight_frames", 2)
				})
			},
		}
		if reverse {
			for i := len(ops) - 1; i >= 0; i-- {
				ops[i]()
			}
		} else {
			for _, op := range ops {
				op()
			}
		}
		return r
	}
	a, b := build(false).Gather(), build(true).Gather()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gather order-dependent:\n%+v\nvs\n%+v", a, b)
	}
	// Spot-check sort order: node, then layer, then name.
	var keys []string
	for _, s := range a {
		keys = append(keys, s.Node+"/"+s.Layer+"/"+s.Name)
	}
	want := []string{
		"node1/engine/drops",
		"node1/nic/tx_frames",
		"node2/rll/data_sent",
		"node2/rll/inflight_frames",
		"node2/tcp/cwnd_segments",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("gather order = %v, want %v", keys, want)
	}
}

// TestVisitOrder pins the walk Visit makes: sources in registration
// order, each with its readings in the order it appended them, a
// histogram as value 0; a later registration is picked up by the next
// walk, and the return value counts every reading.
func TestVisitOrder(t *testing.T) {
	r := NewRegistry()
	r.RegisterSource("node2", "rll", func(s *Snapshot) {
		s.Counter("data_sent", 9)
		s.Gauge("inflight_frames", 2)
	})
	r.RegisterSource("node1", "nic", func(s *Snapshot) {
		s.Counter("rx_frames", 4)
	})
	walk := func() (keys []string, n int) {
		n = r.Visit(func(i int, node, layer string, readings []SnapshotValue) {
			for _, v := range readings {
				keys = append(keys, fmt.Sprintf("%d:%s/%s/%s %v %v", i, node, layer, v.Name, v.Kind, v.Value))
			}
		})
		return keys, n
	}
	got, n := walk()
	want := []string{
		"0:node2/rll/data_sent counter 9",
		"0:node2/rll/inflight_frames gauge 2",
		"1:node1/nic/rx_frames counter 4",
	}
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Visit walked %d readings:\n%q\nwant\n%q", n, got, want)
	}
	h := NewHistogram([]float64{1})
	h.Observe(3)
	r.RegisterSource("node1", "app", func(s *Snapshot) { s.Histogram("lat", h) })
	got, n = walk()
	want = append(want, "2:node1/app/lat histogram 0")
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a registration Visit walked %d readings:\n%q\nwant\n%q", n, got, want)
	}
	if n != len(r.Gather()) {
		t.Errorf("Visit counts %d readings, Gather returns %d", n, len(r.Gather()))
	}
}

// TestSamplerIntervalMath: a point is due every interval from the start,
// Record stores what it is handed at the due time and moves the due time
// on, and Reset empties the ring and counts from its new start.
func TestSamplerIntervalMath(t *testing.T) {
	s := NewSampler(10*time.Millisecond, DefaultRingCapacity, 0)
	for i := 1; i <= 5; i++ {
		if want := time.Duration(i) * 10 * time.Millisecond; s.Due() != want {
			t.Fatalf("point %d due at %v, want %v", i, s.Due(), want)
		}
		s.Record([]Sample{{Name: "ticks", Value: float64(i)}})
	}
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5 (samples at 10..50ms)", len(pts))
	}
	for i, p := range pts {
		if want := time.Duration(i+1) * 10 * time.Millisecond; p.At != want {
			t.Errorf("point %d at %v, want %v", i, p.At, want)
		}
		if len(p.Samples) != 1 || p.Samples[0].Value != float64(i+1) {
			t.Errorf("point %d samples = %+v, want ticks %d", i, p.Samples, i+1)
		}
	}
	s.Reset(3 * time.Millisecond)
	if s.Len() != 0 || len(s.Points()) != 0 || s.Due() != 13*time.Millisecond {
		t.Fatalf("after Reset: %d points, next due %v; want none, 13ms", s.Len(), s.Due())
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	s := NewSampler(time.Millisecond, 4, 0)
	for i := 0; i < 10; i++ { // 10 samples into a 4-slot ring
		s.Record(nil)
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("ring holds %d, want 4", len(pts))
	}
	for i, p := range pts {
		want := time.Duration(7+i) * time.Millisecond
		if p.At != want {
			t.Errorf("ring point %d at %v, want %v (oldest four overwritten)", i, p.At, want)
		}
	}
}

func TestWriteJSONGolden(t *testing.T) {
	r := NewRegistry()
	reading(r, "node1", "nic", "tx_frames", KindCounter, 2)
	ser := Series{
		Interval: 10 * time.Millisecond,
		Points:   []Point{{At: 10 * time.Millisecond, Samples: r.Gather()}},
		FinalAt:  20 * time.Millisecond,
		Final:    r.Gather(),
	}
	var b strings.Builder
	if err := WriteJSON(&b, ser); err != nil {
		t.Fatal(err)
	}
	want := `{
  "interval_ns": 10000000,
  "points": [
    {
      "at_ns": 10000000,
      "samples": [
        {
          "node": "node1",
          "layer": "nic",
          "name": "tx_frames",
          "kind": "counter",
          "value": 2
        }
      ]
    }
  ],
  "final_at_ns": 20000000,
  "final": [
    {
      "node": "node1",
      "layer": "nic",
      "name": "tx_frames",
      "kind": "counter",
      "value": 2
    }
  ]
}
`
	if b.String() != want {
		t.Fatalf("json golden mismatch:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	r := NewRegistry()
	reading(r, "node1", "nic", "tx_frames", KindCounter, 2)
	h := NewHistogram([]float64{0.001})
	r.RegisterSource("node1", "workload", func(s *Snapshot) { s.Histogram("rtt_seconds", h) })
	h.Observe(0.0005)
	ser := Series{FinalAt: time.Second, Final: r.Gather()}
	var b strings.Builder
	if err := WriteCSV(&b, ser); err != nil {
		t.Fatal(err)
	}
	want := "at_seconds,node,layer,name,kind,value\n" +
		"1.000000000,node1,nic,tx_frames,counter,2\n" +
		"1.000000000,node1,workload,rtt_seconds_sum,histogram,0.0005\n" +
		"1.000000000,node1,workload,rtt_seconds_count,histogram,1\n"
	if b.String() != want {
		t.Fatalf("csv golden mismatch:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	reading(r, "node1", "nic", "tx_frames", KindCounter, 2)
	reading(r, "node2", "tcp", "cwnd_segments", KindGauge, 8)
	h := NewHistogram([]float64{0.001, 0.01})
	r.RegisterSource("node1", "workload", func(s *Snapshot) { s.Histogram("rtt_seconds", h) })
	h.Observe(0.0005)
	h.Observe(0.5)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	want := `vw_nic_tx_frames{node="node1",layer="nic"} 2
vw_workload_rtt_seconds_bucket{node="node1",layer="workload",le="0.001"} 1
vw_workload_rtt_seconds_bucket{node="node1",layer="workload",le="0.01"} 1
vw_workload_rtt_seconds_bucket{node="node1",layer="workload",le="+Inf"} 2
vw_workload_rtt_seconds_sum{node="node1",layer="workload"} 0.5005
vw_workload_rtt_seconds_count{node="node1",layer="workload"} 2
vw_tcp_cwnd_segments{node="node2",layer="tcp"} 8
`
	if b.String() != want {
		t.Fatalf("prometheus golden mismatch:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestPrometheusLineShape asserts every emitted line matches the
// name{node="...",layer="..."} value shape the acceptance criteria and
// scrapers expect.
func TestPrometheusLineShape(t *testing.T) {
	r := NewRegistry()
	reading(r, "node1", "nic", "tx-frames.total", KindCounter, 1) // needs sanitizing
	reading(r, "testbed", "scheduler", "events_pending", KindGauge, 3)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Gather()); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if !promLineOK(line) {
			t.Errorf("malformed prometheus line: %q", line)
		}
	}
}

func promLineOK(line string) bool {
	open := strings.IndexByte(line, '{')
	close := strings.IndexByte(line, '}')
	if open <= 0 || close < open || close+2 > len(line) {
		return false
	}
	name := line[:open]
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	labels := line[open+1 : close]
	if !strings.Contains(labels, `node="`) || !strings.Contains(labels, `layer="`) {
		return false
	}
	return line[close+1] == ' '
}

// TestWalksReuseOneScratch: every pull source appends to the registry's
// one scratch snapshot, so a Visit allocates nothing however many
// sources there are, a Gather only its sample slice, and a hook sees an
// empty snapshot each time — never a previous source's readings.
func TestWalksReuseOneScratch(t *testing.T) {
	r := NewRegistry()
	const sources = 50
	for i := 0; i < sources; i++ {
		i := i
		r.RegisterSource(fmt.Sprintf("n%d", i), "nic", func(s *Snapshot) {
			if len(s.Values) != 0 {
				t.Errorf("source %d handed a snapshot holding %d readings", i, len(s.Values))
			}
			s.Counter("tx_frames", uint64(i))
			s.Gauge("txq_len", 1)
		})
	}
	var sum float64
	visit := func() {
		sum = 0
		r.Visit(func(_ int, _, _ string, readings []SnapshotValue) {
			for _, v := range readings {
				sum += v.Value
			}
		})
	}
	visit()
	if n := testing.AllocsPerRun(20, visit); n != 0 {
		t.Errorf("Visit over %d sources allocates %v times", sources, n)
	}
	if want := float64(sources*(sources-1)/2 + sources); sum != want {
		t.Errorf("a walk summed %v over the sources, want %v", sum, want)
	}
	if n := testing.AllocsPerRun(20, func() { r.Gather() }); n > 4 {
		t.Errorf("Gather over %d sources allocates %v times", sources, n)
	}
	if got := len(r.Gather()); got != 2*sources {
		t.Errorf("Gather returned %d samples, want %d", got, 2*sources)
	}
}
