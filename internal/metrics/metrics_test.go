package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters never decrease
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

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
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("n1", "nic", "tx")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("n1", "nic", "tx")
}

// TestGatherDeterministic registers the same instruments and sources in
// two different orders and requires byte-identical Gather output — the
// property that keeps sampled series reproducible across runs.
func TestGatherDeterministic(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("node1", "nic", "tx_frames").Add(3) },
			func() { r.Gauge("node2", "tcp", "cwnd_segments").Set(8) },
			func() { r.Counter("node1", "engine", "drops").Add(1) },
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

// fakeClock is a minimal single-queue virtual scheduler for driving the
// sampler without the sim package (metrics must not depend on it).
type fakeClock struct {
	now  time.Duration
	evts []fakeEvt
}

type fakeEvt struct {
	at time.Duration
	fn func()
}

func (f *fakeClock) schedule(d time.Duration, fn func()) {
	f.evts = append(f.evts, fakeEvt{at: f.now + d, fn: fn})
}

func (f *fakeClock) runUntil(horizon time.Duration) {
	for {
		best := -1
		for i, e := range f.evts {
			if e.at > horizon {
				continue
			}
			if best < 0 || e.at < f.evts[best].at {
				best = i
			}
		}
		if best < 0 {
			f.now = horizon
			return
		}
		e := f.evts[best]
		f.evts = append(f.evts[:best], f.evts[best+1:]...)
		f.now = e.at
		e.fn()
	}
}

// TestVisitOrder pins the walk Visit makes: direct instruments in key
// order whatever order they were registered in (a later registration is
// picked up by the next walk), then sources in registration order;
// histograms report value 0; the return value counts every reading.
func TestVisitOrder(t *testing.T) {
	r := NewRegistry()
	r.RegisterSource("node2", "rll", func(s *Snapshot) {
		s.Counter("data_sent", 9)
		s.Gauge("inflight_frames", 2)
	})
	r.Gauge("node2", "tcp", "cwnd_segments").Set(8)
	r.Counter("node1", "nic", "tx_frames").Add(0.25)
	r.RegisterSource("node1", "nic", func(s *Snapshot) {
		s.Counter("rx_frames", 4)
	})
	walk := func() (keys []string, n int) {
		n = r.Visit(func(k Key, kind Kind, v float64) {
			keys = append(keys, fmt.Sprintf("%s/%s/%s %v %v", k.Node, k.Layer, k.Name, kind, v))
		}, func(i int, node, layer string, readings []SnapshotValue) {
			for _, v := range readings {
				keys = append(keys, fmt.Sprintf("%d:%s/%s/%s %v %v", i, node, layer, v.Name, v.Kind, v.Value))
			}
		})
		return keys, n
	}
	got, n := walk()
	want := []string{
		"node1/nic/tx_frames counter 0.25",
		"node2/tcp/cwnd_segments gauge 8",
		"0:node2/rll/data_sent counter 9",
		"0:node2/rll/inflight_frames gauge 2",
		"1:node1/nic/rx_frames counter 4",
	}
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Visit walked %d readings:\n%q\nwant\n%q", n, got, want)
	}
	r.Histogram("node1", "app", "lat", []float64{1}).Observe(3)
	got, n = walk()
	want = append([]string{"node1/app/lat histogram 0"}, want...)
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a registration Visit walked %d readings:\n%q\nwant\n%q", n, got, want)
	}
	if n != len(r.Gather()) {
		t.Errorf("Visit counts %d readings, Gather returns %d", n, len(r.Gather()))
	}
}

func TestSamplerIntervalMath(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry()
	c := r.Counter("n1", "sim", "ticks")
	s := NewSampler(r, 10*time.Millisecond, 0, func() time.Duration { return clk.now }, clk.schedule)
	s.Start()
	// Bump the counter on its own cadence so points differ.
	var bump func()
	bump = func() {
		c.Inc()
		clk.schedule(10*time.Millisecond, bump)
	}
	clk.schedule(0, bump)
	clk.runUntil(55 * time.Millisecond)

	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5 (samples at 10..50ms)", len(pts))
	}
	for i, p := range pts {
		wantAt := time.Duration(i+1) * 10 * time.Millisecond
		if p.At != wantAt {
			t.Errorf("point %d at %v, want %v", i, p.At, wantAt)
		}
		v, ok := p.Samples[0], len(p.Samples) == 1
		if !ok || v.Name != "ticks" {
			t.Fatalf("point %d samples = %+v", i, p.Samples)
		}
		// The bump at t fires before the sample at t (scheduled first),
		// so the i-th sample sees i+1 ticks.
		if v.Value != float64(i+1) {
			t.Errorf("point %d ticks = %v, want %d", i, v.Value, i+1)
		}
	}

	s.Stop()
	clk.runUntil(200 * time.Millisecond)
	if got := s.Len(); got != 5 {
		t.Fatalf("sampler kept recording after Stop: %d points", got)
	}
}

func TestSamplerRingOverwrite(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry()
	s := NewSampler(r, time.Millisecond, 4, func() time.Duration { return clk.now }, clk.schedule)
	s.Start()
	clk.runUntil(10 * time.Millisecond) // 10 samples into a 4-slot ring
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
	r.Counter("node1", "nic", "tx_frames").Add(2)
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
	r.Counter("node1", "nic", "tx_frames").Add(2)
	h := r.Histogram("node1", "workload", "rtt_seconds", []float64{0.001})
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
	r.Counter("node1", "nic", "tx_frames").Add(2)
	r.Gauge("node2", "tcp", "cwnd_segments").Set(8)
	h := r.Histogram("node1", "workload", "rtt_seconds", []float64{0.001, 0.01})
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
	r.Counter("node1", "nic", "tx-frames.total").Add(1) // needs sanitizing
	r.Gauge("testbed", "scheduler", "events_pending").Set(3)
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
	r.Counter("n0", "app", "direct").Add(1)
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
		r.Visit(func(Key, Kind, float64) {}, func(_ int, _, _ string, readings []SnapshotValue) {
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
	if got := len(r.Gather()); got != 1+2*sources {
		t.Errorf("Gather returned %d samples, want %d", got, 1+2*sources)
	}
}
