package virtualwire_test

// The allocation gates: what a steady run on a warmed testbed allocates,
// per run, per payload byte, per echo and per token visit, and what a
// Reset of the 1000-host fabric allocates. Allocation counts are
// deterministic, so these are tests; wall time is bench/'s (see
// docs/PERFORMANCE.md).

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"virtualwire"
)

func readScript(b testing.TB, name string) string {
	b.Helper()
	data, err := os.ReadFile("scripts/" + name)
	if err != nil {
		b.Fatalf("read script: %v", err)
	}
	return string(data)
}

// fig5SteadyBytes is the transfer a fig5Steady iteration moves;
// TestFig5SteadyCopiesPerPayloadByte gates its B/op against it.
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

// TestFig5SteadyCopiesPerPayloadByte is the data path copy gate, on the
// Figure 5 scenario the way a campaign runs it (see fig5Steady; bench/'s
// tcp_scripted times the same op): the bytes a steady iteration allocates, per
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

// resetAndStep rewinds tb under seed and steps it once.
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

// TestBuildIsLinearInHosts: building the fabric_manyflow fat-tree costs
// O(hosts) bytes. Every host reads the testbed's one Node Table, so 4×
// the hosts allocates about 4× the bytes (4.1); a table copied into each
// host made it 12.5 — one ARP row per pair of hosts. The limit of 6
// trips on any per-pair cost that comes back.
func TestBuildIsLinearInHosts(t *testing.T) {
	const limit = 6.0
	build := func(n int) (uint64, *virtualwire.Testbed) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb, err := virtualwire.New(virtualwire.Config{Seed: 1, Topology: &virtualwire.TopologySpec{
			Kind: virtualwire.TopoFatTree, TrunkPropagation: 10 * time.Microsecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.AddHostGroup("h", n); err != nil {
			t.Fatal(err)
		}
		if err := tb.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, tb
	}
	small, _ := build(250)
	large, tb := build(1000)
	if ratio := float64(large) / float64(small); ratio > limit {
		t.Errorf("building 1000 hosts allocates %d B, 250 hosts %d B: ratio %.1f, limit %v", large, small, ratio, limit)
	}
	nodes := tb.Nodes()
	for _, n := range nodes {
		if n.NeighborTable() != nodes[0].NeighborTable() {
			t.Fatalf("%s and %s hold different ARP tables", n.Name(), nodes[0].Name())
		}
	}
}
