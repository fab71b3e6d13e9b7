package virtualwire

import (
	"bytes"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"virtualwire/internal/metrics"
)

// runRetransmission builds and runs the tcp_retransmission.fsl scenario
// with the given config overrides applied on top of the standard setup.
func runRetransmission(t *testing.T, cfg Config) (*Testbed, RunReport) {
	t.Helper()
	script := readScript(t, "tcp_retransmission.fsl")
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: 64 * 1024,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return tb, rep
}

// TestReportCarriesFaultsAndErrors asserts the Report's journal agrees
// with the accessor and the scenario result it is assembled from.
func TestReportCarriesFaultsAndErrors(t *testing.T) {
	tb, rep := runRetransmission(t, Config{Seed: 71})
	if len(rep.Faults) == 0 {
		t.Fatal("Report.Faults is empty on a fault-injecting scenario")
	}
	if !reflect.DeepEqual(rep.Faults, tb.InjectedFaults()) {
		t.Errorf("Report.Faults diverges from InjectedFaults():\n%v\nvs\n%v",
			rep.Faults, tb.InjectedFaults())
	}
	if !reflect.DeepEqual(rep.Errors, rep.Result.Errors) {
		t.Errorf("Report.Errors = %v, Report.Result.Errors = %v", rep.Errors, rep.Result.Errors)
	}
	if !sort.SliceIsSorted(rep.Faults, func(i, j int) bool {
		if rep.Faults[i].At != rep.Faults[j].At {
			return rep.Faults[i].At < rep.Faults[j].At
		}
		return rep.Faults[i].Node < rep.Faults[j].Node
	}) {
		t.Errorf("Report.Faults not sorted by (At, Node): %v", rep.Faults)
	}
	if rep.Metrics.Instruments == 0 {
		t.Error("Report.Metrics gathered zero instruments")
	}
	if rep.Metrics.Totals["engine/faults_injected"] == 0 {
		t.Errorf("Totals[engine/faults_injected] = %v, want > 0", rep.Metrics.Totals)
	}
}

// TestMetricsSamplingEndToEnd enables the virtual-time sampler and
// checks the gathered series covers every layer the issue promises:
// scheduler, NIC, TCP and engine instruments.
func TestMetricsSamplingEndToEnd(t *testing.T) {
	tb, rep := runRetransmission(t, Config{
		Seed:                  72,
		MetricsSampleInterval: 10 * time.Millisecond,
	})
	s := tb.MetricsSeries()
	if len(s.Points) == 0 {
		t.Fatal("sampler recorded no points")
	}
	if s.Interval != 10*time.Millisecond {
		t.Errorf("series interval = %v", s.Interval)
	}
	if rep.Metrics.SampledPoints != len(s.Points) {
		t.Errorf("Report.Metrics.SampledPoints = %d, series has %d",
			rep.Metrics.SampledPoints, len(s.Points))
	}
	layers := map[string]bool{}
	for _, sm := range s.Final {
		layers[sm.Layer] = true
	}
	for _, want := range []string{"scheduler", "nic", "tcp", "engine", "ip", "switch"} {
		if !layers[want] {
			t.Errorf("final gather is missing layer %q (have %v)", want, layers)
		}
	}
	// Monotone counters: a sampled counter never decreases over time.
	type key struct{ node, layer, name string }
	last := map[key]float64{}
	for _, p := range s.Points {
		for _, sm := range p.Samples {
			if sm.Kind.String() != "counter" {
				continue
			}
			k := key{sm.Node, sm.Layer, sm.Name}
			if sm.Value < last[k] {
				t.Fatalf("counter %v decreased: %v -> %v at %v", k, last[k], sm.Value, p.At)
			}
			last[k] = sm.Value
		}
	}
	// Sampled points land on interval multiples of virtual time.
	for _, p := range s.Points {
		if p.At%(10*time.Millisecond) != 0 {
			t.Errorf("sample at %v is off the 10ms grid", p.At)
		}
	}
}

// TestPrometheusExportShape validates every emitted line against the
// name{node="...",layer="..."} value contract.
func TestPrometheusExportShape(t *testing.T) {
	tb, _ := runRetransmission(t, Config{Seed: 73})
	var buf bytes.Buffer
	if err := tb.WriteMetricsFile(&buf, "prom"); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^vw_[a-zA-Z0-9_]+\{node="[^"]*",layer="[^"]*"(,le="[^"]+")?\} -?[0-9].*$`)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("prometheus export has only %d lines", len(lines))
	}
	for _, l := range lines {
		if !line.MatchString(l) {
			t.Errorf("malformed prometheus line: %q", l)
		}
	}
}

// TestNodeSnapshotUniform exercises the Node.Snapshot accessor across
// layers, including absent ones.
func TestNodeSnapshotUniform(t *testing.T) {
	tb, _ := runRetransmission(t, Config{Seed: 74})
	n, ok := tb.Node("node1")
	if !ok {
		t.Fatal("node1 missing")
	}
	wantLayers := []string{"engine", "nic", "ip", "tcp"}
	if got := n.SnapshotLayers(); !reflect.DeepEqual(got, wantLayers) {
		t.Errorf("SnapshotLayers = %v, want %v", got, wantLayers)
	}
	for _, layer := range wantLayers {
		sn, ok := n.Snapshot(layer)
		if !ok {
			t.Errorf("Snapshot(%q) not ok", layer)
			continue
		}
		if len(sn.Values) == 0 {
			t.Errorf("Snapshot(%q) has no values", layer)
		}
	}
	if _, ok := n.Snapshot("rll"); ok {
		t.Error("Snapshot(rll) ok on a testbed without the RLL")
	}
	if _, ok := n.Snapshot("rether"); ok {
		t.Error("Snapshot(rether) ok without Rether")
	}
	if _, ok := n.Snapshot("bogus"); ok {
		t.Error("Snapshot(bogus) ok")
	}
	// The uniform accessor reads the engine's own counters.
	sn, _ := n.Snapshot("engine")
	if v, ok := sn.Get("packets_intercepted"); !ok || v != float64(n.engine.Stats.PacketsIntercepted) {
		t.Errorf("engine snapshot packets_intercepted = %v, engine counted %d", v, n.engine.Stats.PacketsIntercepted)
	}
}

// TestWorkloadHistogram checks the UDP echo workload publishes its RTT
// histogram through the registry.
func TestWorkloadHistogram(t *testing.T) {
	tb, err := New(Config{Seed: 75})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("b", "00:00:00:00:00:02", "10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(UDPEchoConfig{Client: "a", Server: "b", ServerPort: 7, Count: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if echo.Received() != 20 {
		t.Fatalf("received %d/20", echo.Received())
	}
	for _, s := range tb.Metrics().Gather() {
		if s.Layer == "workload" && s.Name == "udp_echo_rtt_seconds" {
			if s.Count != 20 {
				t.Errorf("rtt histogram count = %d, want 20", s.Count)
			}
			return
		}
	}
	t.Error("udp_echo_rtt_seconds histogram not gathered")
}

// visitReading is one reading as Registry.Visit reports it (and as a
// Gather sample reduces to).
type visitReading struct {
	node, layer, name string
	kind              metrics.Kind
	value             float64
}

// TestRegistryVisitMatchesGather is the property behind the sort-free
// run digest: on a bus, a single switch and a two-shard fat-tree,
// after real traffic, Visit yields exactly Gather's multiset of (node,
// layer, name, kind, value) and the same reading count, and the digest
// built on it is the one Gather-then-sum gives, the same on every
// repeat.
func TestRegistryVisitMatchesGather(t *testing.T) {
	fattree := Config{Seed: 5, Shards: 2, Topology: &TopologySpec{Kind: TopoFatTree, FatTreeK: 4}}
	cases := map[string]func(t *testing.T) *Testbed{
		"bus": func(t *testing.T) *Testbed {
			tb, _ := fig6Testbed(t, 3)
			return tb
		},
		"switch": func(t *testing.T) *Testbed {
			tb, _ := fig5Testbed(t, 1, false)
			return tb
		},
		"fattree": func(t *testing.T) *Testbed { return manyFlowTestbed(t, fattree, 16) },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			tb := build(t)
			rep, err := tb.Run(30 * time.Second)
			if err != nil {
				t.Fatal(err)
			}

			var want []visitReading
			wantTotals := map[string]float64{}
			for _, s := range tb.Metrics().Gather() {
				want = append(want, visitReading{s.Node, s.Layer, s.Name, s.Kind, s.Value})
			}
			var got []visitReading
			n := tb.Metrics().Visit(func(_ int, node, layer string, readings []metrics.SnapshotValue) {
				for _, r := range readings {
					got = append(got, visitReading{node, layer, r.Name, r.Kind, r.Value})
				}
			})
			if n != len(want) || len(got) != len(want) {
				t.Fatalf("Visit returned %d and made %d calls, Gather has %d samples", n, len(got), len(want))
			}
			if rep.Metrics.Instruments != len(want) {
				t.Errorf("report counts %d instruments, Gather %d", rep.Metrics.Instruments, len(want))
			}
			less := func(rs []visitReading) func(i, j int) bool {
				return func(i, j int) bool {
					a, b := rs[i], rs[j]
					if a.node != b.node {
						return a.node < b.node
					}
					if a.layer != b.layer {
						return a.layer < b.layer
					}
					return a.name < b.name
				}
			}
			sort.SliceStable(got, less(got))
			sort.SliceStable(want, less(want))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("reading %d: Visit %+v, Gather %+v", i, got[i], want[i])
				}
			}

			// The digest: same keys as Gather-then-sum; integer counters
			// (the only kind Snapshot.Counter reports) sum exactly in any
			// order.
			for _, r := range want {
				if r.kind == metrics.KindCounter && !WarmPoolReading(MetricsSample{Layer: r.layer, Name: r.name}) {
					wantTotals[r.layer+"/"+r.name] += r.value
				}
			}
			if len(rep.Metrics.Totals) != len(wantTotals) {
				t.Fatalf("digest has %d totals, Gather-then-sum %d", len(rep.Metrics.Totals), len(wantTotals))
			}
			for k, v := range wantTotals {
				if got := rep.Metrics.Totals[k]; got != v {
					t.Errorf("total %s = %v, Gather-then-sum %v", k, got, v)
				}
			}
			for i := 0; i < 3; i++ {
				if _, sum := tb.gatherReport(); !reflect.DeepEqual(sum.Totals, rep.Metrics.Totals) {
					t.Fatalf("the digest changed between walks: %v vs %v", sum.Totals, rep.Metrics.Totals)
				}
			}
		})
	}
}

// manyFlowTestbed is a scriptless fabric testbed with a ManyFlow mesh
// staged on it.
func manyFlowTestbed(t *testing.T, cfg Config, hosts int) *Testbed {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, hosts)
	if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: hosts / 2, Bytes: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestRunEpilogueAllocsIndependentOfSize is the allocation gate on the
// run epilogue: with no traffic, what one Reset+Run allocates is the
// report — the node rows' three arrays, the digest's map — and that
// count must not depend on how many hosts the testbed has nor on how
// many layers each runs. (Reading every layer into a snapshot of its
// own, once for the node rows and once for the digest, it grew by
// 2 × layers × hosts: 74 allocations at 8 hosts, 650 at 64 with RLL.)
func TestRunEpilogueAllocsIndependentOfSize(t *testing.T) {
	measure := func(hosts int, rll bool) float64 {
		tb, err := New(Config{Seed: 1, RLL: rll})
		if err != nil {
			t.Fatal(err)
		}
		addGroupHosts(t, tb, hosts)
		run := func() {
			rep, err := tb.Run(time.Millisecond)
			if err != nil || len(rep.Nodes) != hosts {
				t.Fatalf("run: %v, %d node rows", err, len(rep.Nodes))
			}
		}
		run()
		return testing.AllocsPerRun(10, func() {
			if err := tb.Reset(2); err != nil {
				t.Fatal(err)
			}
			run()
		})
	}
	small := measure(8, false)
	for _, c := range []struct {
		hosts int
		rll   bool
	}{{64, false}, {8, true}, {64, true}} {
		if n := measure(c.hosts, c.rll); n > small+1 {
			t.Errorf("Reset+Run allocates %v times at %d hosts (RLL %v), %v at 8 hosts without",
				n, c.hosts, c.rll, small)
		}
	}
	if small > 16 {
		t.Errorf("Reset+Run of an idle 8-host testbed allocates %v times", small)
	}
}
