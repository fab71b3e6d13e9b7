package virtualwire_test

// One benchmark per table/figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Figures use reduced sweep sizes
// here so `go test -bench=.` stays brisk; cmd/vwbench runs the full
// paper-scale sweeps. See EXPERIMENTS.md for recorded results.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/internal/experiments"
)

func readScript(b testing.TB, name string) string {
	b.Helper()
	data, err := os.ReadFile("scripts/" + name)
	if err != nil {
		b.Fatalf("read script: %v", err)
	}
	return string(data)
}

// BenchmarkFig5Scenario runs the Section 6.1 case study (SYNACK drop,
// slow-start/congestion-avoidance analysis) once per iteration.
func BenchmarkFig5Scenario(b *testing.B) {
	script := readScript(b, "fig5_tcp_ss_ca.fsl")
	for i := 0; i < b.N; i++ {
		tb, err := virtualwire.New(virtualwire.Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AddNodesFromScript(script); err != nil {
			b.Fatal(err)
		}
		if err := tb.LoadScript(script); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node2",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: 80 * 1024,
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := tb.Run(30 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("scenario failed: %+v", rep.Result)
		}
	}
}

// fig5SteadyBytes is the transfer BenchmarkFig5Steady moves per
// iteration; TestFig5SteadyCopiesPerPayloadByte gates its B/op against it.
const fig5SteadyBytes = 1 << 20

// tcpSteady builds a scripted TCP scenario the way a campaign runs it —
// script compiled and testbed built once, pools and free lists warmed by
// a first run — and returns one steady iteration: Reset(seed) +
// AddTCPBulk(node1 -> node2, n bytes) + Run, which must pass and deliver
// every byte.
func tcpSteady(b testing.TB, cfg virtualwire.Config, script string, n int, horizon time.Duration) (iterate func(seed int64) virtualwire.RunReport) {
	cs, err := virtualwire.CompileScript(readScript(b, script))
	if err != nil {
		b.Fatal(err)
	}
	cfg.Seed = 1
	tb, err := virtualwire.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.AddNodesFromCompiled(cs); err != nil {
		b.Fatal(err)
	}
	if err := tb.LoadCompiled(cs); err != nil {
		b.Fatal(err)
	}
	run := func(seed int64) virtualwire.RunReport {
		bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node2",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: n,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := tb.Run(horizon)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed || bulk.DeliveredBytes() != n {
			b.Fatalf("seed %d: verdict %s, %d bytes delivered", seed, rep.Verdict, bulk.DeliveredBytes())
		}
		return rep
	}
	run(1) // builds the testbed and warms pools and free lists
	return func(seed int64) virtualwire.RunReport {
		if err := tb.Reset(seed); err != nil {
			b.Fatal(err)
		}
		return run(seed)
	}
}

// fig5Steady is the Figure 5 scenario over a fig5SteadyBytes transfer,
// run the way a campaign runs it (see tcpSteady), and its report written.
func fig5Steady(b testing.TB) (iterate func(seed int64)) {
	run := tcpSteady(b, virtualwire.Config{}, "fig5_tcp_ss_ca.fsl", fig5SteadyBytes, 60*time.Second)
	var doc bytes.Buffer
	return func(seed int64) {
		rep := run(seed)
		doc.Reset()
		if err := rep.WriteJSON(&doc); err != nil {
			b.Fatal(err)
		}
	}
}

// quickstartSteady is one run of the golden campaign's matrix — the
// quickstart drop script over a 16 KiB transfer, no bit errors — on a
// reused testbed, the way a campaign worker runs it (see tcpSteady); the
// worker appends the record itself, so no report is written here.
func quickstartSteady(b testing.TB) (iterate func(seed int64)) {
	run := tcpSteady(b, virtualwire.Config{}, "quickstart_drop.fsl", 16<<10, 30*time.Second)
	return func(seed int64) { run(seed) }
}

// BenchmarkQuickstartSteady is what a campaign run of the quickstart
// matrix costs the simulator on a reused testbed, without the campaign's
// record and collector; TestQuickstartSteadyBytesPerRun gates its B/op.
func BenchmarkQuickstartSteady(b *testing.B) {
	iterate := quickstartSteady(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate(int64(i + 2))
	}
}

// TestQuickstartSteadyBytesPerRun is the per-run reuse gate: a run on a
// warmed testbed allocates only what is new in it (its workload, its
// report), not the INIT reassembly, reorder store or window arrays the
// previous run already built — 5.3 KB a run, where re-allocating them
// cost 14.3 KB. A byte count, so hardware-independent.
func TestQuickstartSteadyBytesPerRun(t *testing.T) {
	const iterations, limit = 8, 8 << 10
	iterate := quickstartSteady(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iterations; i++ {
		iterate(int64(i + 2))
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / iterations; perRun > limit {
		t.Errorf("a steady quickstart run allocates %d B (limit %d)", perRun, limit)
	}
}

// steadyAllocsPerUnit is the allocation count of one more unit of
// traffic on a warmed testbed: run does a whole run of n units and
// reports the units it saw; the per-run costs (reset, workload, report)
// cancel between the short run and the long one.
func steadyAllocsPerUnit(t *testing.T, short, long int, run func(n int) (units int)) float64 {
	t.Helper()
	run(short) // warm the testbed at the smaller size first
	var units [2]int
	allocs := func(i, n int) float64 {
		return testing.AllocsPerRun(3, func() { units[i] = run(n) })
	}
	a, b := allocs(0, short), allocs(1, long)
	if units[1] <= units[0] {
		t.Fatalf("%d units at size %d, %d at size %d: the long run saw no more", units[0], short, units[1], long)
	}
	return (b - a) / float64(units[1]-units[0])
}

// TestSteadyAllocsPerEcho is the per-packet gate on Figure 8 case (iii)
// — 25 filters, 25 actions per match, the RLL on, minimum-size echoes:
// once the testbed is warm an echo allocates nothing (0.003 per echo is
// the echo workload's own RTT log growing), where the RLL's per-arm
// timer closure, its resliced window and a fresh payload per ping made
// 5.0. The limit of 0.05 trips on the first per-packet allocation that
// comes back.
func TestSteadyAllocsPerEcho(t *testing.T) {
	script := readScript(t, "../bench/testdata/fig8_filters25_actions25.fsl")
	cs, err := virtualwire.CompileScript(script)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := virtualwire.New(virtualwire.Config{Seed: 8, RLL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromCompiled(cs); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadCompiled(cs); err != nil {
		t.Fatal(err)
	}
	built := false
	perEcho := steadyAllocsPerUnit(t, 200, 2000, func(n int) int {
		if built {
			if err := tb.Reset(8); err != nil {
				t.Fatal(err)
			}
		}
		built = true
		echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
			Client: "node1", Server: "node2", ServerPort: 9000,
			Size: 18, Interval: 100 * time.Microsecond, Count: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := tb.Run(60 * time.Second); err != nil || !rep.Passed || echo.Received() != n {
			t.Fatalf("%d echoes: received %d, err %v", n, echo.Received(), err)
		}
		return n
	})
	t.Logf("%.4f allocations per echo", perEcho)
	if perEcho > 0.05 {
		t.Errorf("a steady Fig 8(iii) echo allocates %.3f times (limit 0.05)", perEcho)
	}
}

// TestSteadyAllocsPerTokenVisit is TestSteadyAllocsPerEcho's companion
// for Figure 6's medium: four Rether nodes on a bus carrying the TCP
// transfer, run without the script, whose STOP would fix the run's
// length. A token visit — serve the queues, pass the token, arm the ack
// and idle timers, acknowledge — allocates nothing once the testbed is
// warm, where the timers' method values and the resliced queues made
// 3.0.
func TestSteadyAllocsPerTokenVisit(t *testing.T) {
	tb, err := virtualwire.New(virtualwire.Config{Seed: 3, Medium: virtualwire.MediumBus})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(readScript(t, "fig6_rether_failure.fsl")); err != nil {
		t.Fatal(err)
	}
	if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"}, virtualwire.RetherConfig{}); err != nil {
		t.Fatal(err)
	}
	tb.AddRTStream(0x6000, 0x4000)
	built := false
	perVisit := steadyAllocsPerUnit(t, 20, 200, func(ms int) int {
		if built {
			if err := tb.Reset(3); err != nil {
				t.Fatal(err)
			}
		}
		built = true
		if _, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node4", SrcPort: 0x6000, DstPort: 0x4000, Bytes: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(time.Duration(ms) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		visits := 0.0
		for _, n := range tb.Nodes() {
			sn, _ := n.Snapshot("rether")
			v, _ := sn.Get("tokens_received")
			visits += v
		}
		return int(visits)
	})
	t.Logf("%.4f allocations per token visit", perVisit)
	if perVisit > 0.05 {
		t.Errorf("a steady Rether token visit allocates %.3f times (limit 0.05)", perVisit)
	}
}

// BenchmarkFig5Steady is the Figure 5 scenario the way a campaign runs
// it (see fig5Steady). The benchmarks above rebuild their testbed each
// iteration, so their B/op is mostly construction; this one sees the data
// path alone, and its B/op per payload byte is the number of times the
// stack still copies (or allocates room for) a byte on its way through —
// 4.3 before the send buffer became the retransmission store and frames
// started moving instead of being cloned, 0.04 after.
func BenchmarkFig5Steady(b *testing.B) {
	iterate := fig5Steady(b)
	b.ReportAllocs()
	b.SetBytes(fig5SteadyBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate(int64(i + 2))
	}
}

// TestFig5SteadyCopiesPerPayloadByte is the data path copy gate, on what
// BenchmarkFig5Steady runs: the bytes a steady iteration allocates, per
// payload byte moved, is how many times a byte is still copied into
// fresh memory on the way — 4.3 when the payload was materialised by the
// workload, the send buffer, the retransmission queue and the frame
// builder in turn; 0.04 now that the send buffer is the retransmission
// store and frames are built in, moved through and recycled into pooled
// buffers. The limit of 0.25 trips on the first per-byte copy that comes
// back. A ratio of two byte counts, so hardware-independent.
func TestFig5SteadyCopiesPerPayloadByte(t *testing.T) {
	const iterations, limit = 5, 0.25
	iterate := fig5Steady(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iterations; i++ {
		iterate(int64(i + 2))
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / iterations
	if perOp > limit*fig5SteadyBytes {
		t.Errorf("a steady Fig 5 iteration allocates %.0f B for a %d-byte transfer: %.3f B per payload byte (limit %v)",
			perOp, fig5SteadyBytes, perOp/fig5SteadyBytes, limit)
	}
}

// BenchmarkFig6Scenario runs the Section 6.2 case study (Rether node
// failure and ring recovery) once per iteration.
func BenchmarkFig6Scenario(b *testing.B) {
	script := readScript(b, "fig6_rether_failure.fsl")
	for i := 0; i < b.N; i++ {
		tb, err := virtualwire.New(virtualwire.Config{Seed: int64(i + 1), Medium: virtualwire.MediumBus})
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.AddNodesFromScript(script); err != nil {
			b.Fatal(err)
		}
		if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"}, virtualwire.RetherConfig{}); err != nil {
			b.Fatal(err)
		}
		tb.AddRTStream(0x6000, 0x4000)
		if err := tb.LoadScript(script); err != nil {
			b.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
			From: "node1", To: "node4",
			SrcPort: 0x6000, DstPort: 0x4000, Bytes: 4 << 20,
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := tb.Run(2 * time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatalf("scenario failed: %+v", rep.Result)
		}
	}
}

// BenchmarkFig7Throughput regenerates a reduced Figure 7 sweep per
// iteration and reports the saturated goodputs as custom metrics.
func BenchmarkFig7Throughput(b *testing.B) {
	var last experiments.Fig7Point
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunFig7(context.Background(), experiments.Fig7Config{
			Seed:        int64(i + 1),
			OfferedMbps: []float64{60, 100},
			Duration:    500 * time.Millisecond,
		}, campaign.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.BaselineMbps, "baseline-Mbps")
	b.ReportMetric(last.VWMbps, "vw-Mbps")
	b.ReportMetric(last.VWRLLMbps, "vw+rll-Mbps")
}

// BenchmarkFig8Latency regenerates a reduced Figure 8 sweep per
// iteration and reports the 25-filter overheads as custom metrics.
func BenchmarkFig8Latency(b *testing.B) {
	var last experiments.Fig8Point
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.RunFig8(context.Background(), experiments.Fig8Config{
			Seed:         int64(i + 1),
			FilterCounts: []int{25},
			Pings:        100,
		}, campaign.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1]
	}
	b.ReportMetric(last.PctFilters, "pct-filters")
	b.ReportMetric(last.PctActions, "pct-actions")
	b.ReportMetric(last.PctRLL, "pct-rll")
}

// BenchmarkControlPlaneStatusOnly measures control-plane bytes for a
// distributed rule whose term has an integer operand: per Section 5.2 it
// is evaluated at the counter's home and only status *changes* cross the
// wire — one message for the whole run, however many packets A counts.
// The action's counter D lives on node1, so the condition is genuinely
// remote from the term's home (node2).
func BenchmarkControlPlaneStatusOnly(b *testing.B) {
	benchControlPlane(b, `
((A >= 10)) >> INCR_CNTR( D, 1 );
`)
}

// BenchmarkControlPlaneEager measures the same remote rule with a
// counter-counter term spanning nodes: every change of the remote
// operand pushes a value message. The per-op control bytes against
// ...StatusOnly show the win of the paper's optimization.
func BenchmarkControlPlaneEager(b *testing.B) {
	benchControlPlane(b, `
((A > B)) >> INCR_CNTR( D, 1 );
`)
}

func benchControlPlane(b *testing.B, rule string) {
	script := `
FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
p1: (23 1 0x11), (36 2 0x1b59)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO ctlplane
A: (p0, node1, node2, RECV)
B: (p1, node2, node1, RECV)
D: (node1)
(TRUE) >> ENABLE_CNTR( A ); ENABLE_CNTR( B );
` + rule + `
END`
	tb, err := virtualwire.New(virtualwire.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		b.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		b.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
		Client: "node1", Server: "node2",
		ServerPort: 7000, ClientPort: 7001, // both directions match filters
		Count: b.N, Interval: 200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := tb.Run(time.Duration(b.N)*200*time.Microsecond + 10*time.Second); err != nil {
		b.Fatal(err)
	}
	if echo.Received() < b.N {
		b.Fatalf("echo received %d/%d", echo.Received(), b.N)
	}
	total := 0.0
	for _, n := range tb.Nodes() {
		sn, _ := n.Snapshot("engine")
		v, _ := sn.Get("ctl_bytes")
		total += v
	}
	b.ReportMetric(total/float64(b.N), "ctl-B/op")
}

// BenchmarkEngineInterception measures the per-packet cost of the full
// engine pipeline (classify + count + cascade) on the real code path —
// the wall-clock counterpart of Figure 8's modeled cost.
func BenchmarkEngineInterception(b *testing.B) {
	script := `
FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO bench
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> RESET_CNTR( C );
END`
	tb, err := virtualwire.New(virtualwire.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		b.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		b.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
		Client: "node1", Server: "node2", ServerPort: 7000,
		Count: b.N, Interval: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := tb.Run(time.Duration(b.N)*100*time.Microsecond + 10*time.Second); err != nil {
		b.Fatal(err)
	}
	if echo.Received() < b.N {
		b.Fatalf("echo received %d/%d", echo.Received(), b.N)
	}
}

// buildFatTree assembles an n-host fat-tree testbed and forces the build
// (fabric wiring, layer chains, static ARP).
func buildFatTree(b testing.TB, n int, seed int64) *virtualwire.Testbed {
	b.Helper()
	tb, err := virtualwire.New(virtualwire.Config{
		Seed:     seed,
		Topology: &virtualwire.TopologySpec{Kind: virtualwire.TopoFatTree},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tb.AddHostGroup("h", n); err != nil {
		b.Fatal(err)
	}
	if err := tb.RunFor(time.Microsecond); err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkTopologyBuild measures assembling a fat-tree testbed at 100,
// 500 and 1000 hosts: switches, trunks, spanning tree, hosts, layer
// chains and the full-mesh static ARP.
func BenchmarkTopologyBuild(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("fattree/n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFatTree(b, n, int64(i+1))
			}
		})
	}
}

// BenchmarkTopologyRun measures steady-state forwarding across the
// fabric: a many-flow mesh (one flow per ten hosts) run to completion.
func BenchmarkTopologyRun(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("fattree/n%d", n), func(b *testing.B) {
			tb := buildFatTree(b, n, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Reset(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
				mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
					Flows: n / 10, Bytes: 4 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(2 * time.Second); err != nil {
					b.Fatal(err)
				}
				if mf.Completed() != mf.Flows() {
					b.Fatalf("flows completed %d/%d", mf.Completed(), mf.Flows())
				}
			}
		})
	}
}

// BenchmarkTopologyReset1000 isolates the rewind cost of a 1000-host
// fat-tree testbed — the per-run overhead a campaign pays to reuse the
// built fabric, which includes reseeding a generator per switch port and
// engine. TestTopologyReset1000DoesNotAllocate gates it at 0 allocations.
func BenchmarkTopologyReset1000(b *testing.B) {
	tb := buildFatTree(b, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetAndStep(b, tb, int64(i+1))
	}
}

// resetAndStep is one BenchmarkTopologyReset1000 iteration.
func resetAndStep(b testing.TB, tb *virtualwire.Testbed, seed int64) {
	if err := tb.Reset(seed); err != nil {
		b.Fatal(err)
	}
	if err := tb.RunFor(time.Microsecond); err != nil {
		b.Fatal(err)
	}
}

// TestTopologyReset1000DoesNotAllocate: campaigns at 1000-node scale
// rewind the built fabric between runs; the reset path (scheduler, media,
// layers, a generator per switch port and engine, trunk mailboxes)
// allocates nothing.
func TestTopologyReset1000DoesNotAllocate(t *testing.T) {
	tb := buildFatTree(t, 1000, 1)
	seed := int64(0)
	if n := testing.AllocsPerRun(20, func() { seed++; resetAndStep(t, tb, seed) }); n != 0 {
		t.Errorf("Reset + RunFor of the 1000-host fat-tree allocates %.0f times, want 0", n)
	}
}

// BenchmarkShardedFatTree measures what more shards buy on a 1000-host
// fat-tree with campus-length trunks (10µs propagation, so the
// conservative lookahead buys usefully wide windows). The serial
// sub-benchmark, the baseline, is one shard; shards/2 and shards/4 split
// the fabric across goroutines. Reports are
// byte-identical at every shard count (TestShardedMatchesSerialAcrossSeeds);
// this benchmark measures only the wall-clock side of that bargain.
// scripts/check.sh gates shards/4 at >=1.8x serial on >=4-core machines.
func BenchmarkShardedFatTree(b *testing.B) {
	const hosts = 1000
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"shards2", 2},
		{"shards4", 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tb, err := virtualwire.New(virtualwire.Config{
				Seed:   1,
				Shards: bc.shards,
				Topology: &virtualwire.TopologySpec{
					Kind:             virtualwire.TopoFatTree,
					TrunkPropagation: 10 * time.Microsecond,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tb.AddHostGroup("h", hosts); err != nil {
				b.Fatal(err)
			}
			if err := tb.RunFor(time.Microsecond); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Reset(int64(i + 1)); err != nil {
					b.Fatal(err)
				}
				mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{
					Flows: hosts / 10, Bytes: 4 << 10,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(2 * time.Second); err != nil {
					b.Fatal(err)
				}
				if mf.Completed() != mf.Flows() {
					b.Fatalf("flows completed %d/%d", mf.Completed(), mf.Flows())
				}
			}
		})
	}
}

// BenchmarkRLLWindow sweeps the RLL window size on a lossy wire,
// reporting delivered goodput — the window/reliability trade-off
// ablation.
func BenchmarkRLLWindow(b *testing.B) {
	for _, window := range []int{2, 8, 32} {
		window := window
		b.Run(map[int]string{2: "w2", 8: "w8", 32: "w32"}[window], func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				tb, err := virtualwire.New(virtualwire.Config{
					Seed: int64(i + 1), RLL: true, RLLWindow: window,
					BitErrorRate: 1e-7,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.AddHost("a", "00:00:00:00:00:0a", "10.0.0.1"); err != nil {
					b.Fatal(err)
				}
				if _, err := tb.AddHost("b", "00:00:00:00:00:0b", "10.0.0.2"); err != nil {
					b.Fatal(err)
				}
				bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
					From: "a", To: "b", SrcPort: 1, DstPort: 2, Bytes: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tb.Run(60 * time.Second); err != nil {
					b.Fatal(err)
				}
				if bulk.DeliveredBytes() != 1<<20 {
					b.Fatalf("delivered %d", bulk.DeliveredBytes())
				}
				mbps = bulk.GoodputBitsPerSecond() / 1e6
			}
			b.ReportMetric(mbps, "goodput-Mbps")
		})
	}
}
