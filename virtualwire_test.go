package virtualwire

import (
	"os"
	"strings"
	"testing"
	"time"
)

func readScript(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("scripts/" + name)
	if err != nil {
		t.Fatalf("read script: %v", err)
	}
	return string(b)
}

// fig5Testbed assembles the Section 6.1 testbed: two hosts on a 100 Mbps
// switch, the Figure 5 scenario, and a bulk TCP transfer 0x6000 -> 0x4000.
func fig5Testbed(t testing.TB, seed int64, brokenTCP bool) (*Testbed, *TCPBulk) {
	t.Helper()
	script := readScript(t, "fig5_tcp_ss_ca.fsl")
	tb, err := New(Config{Seed: seed})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if err := tb.LoadScript(script); err != nil {
		t.Fatalf("script: %v", err)
	}
	bulk, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000,
		Bytes:                    80 * 1024,
		DisableCongestionControl: brokenTCP,
	})
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	return tb, bulk
}

// TestFigure5ConformingTCPPasses is the paper's Section 6.1 result: the
// SYNACK drop forces ssthresh to 2, the implementation switches to
// congestion avoidance at the crossover, and the analysis script flags no
// error ("The TCP implementation ... behaved correctly").
func TestFigure5ConformingTCPPasses(t *testing.T) {
	tb, bulk := fig5Testbed(t, 1, false)
	rep, err := tb.Run(60 * time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed {
		t.Fatalf("scenario failed: %+v", rep.Result)
	}
	if bulk.DeliveredBytes() != 80*1024 {
		t.Fatalf("delivered %d bytes", bulk.DeliveredBytes())
	}
	node1, _ := tb.Node("node1")
	// The injected fault: the first SYNACK was dropped at node1, so at
	// least two were observed.
	if v, ok := node1.CounterValue("SYNACK"); !ok || v < 2 {
		t.Errorf("SYNACK counter = %d, want >= 2 (drop forced a retransmission)", v)
	}
	if bulk.SenderStats().SynRetries == 0 {
		t.Error("client never retransmitted its SYN")
	}
	// The implementation crossed into congestion avoidance...
	if bulk.Ssthresh() != 2 {
		t.Errorf("ssthresh = %d, want 2", bulk.Ssthresh())
	}
	if bulk.InSlowStart() {
		t.Error("sender still in slow start at the end of the transfer")
	}
	// ...and the script's mirror of cwnd tracks the implementation.
	scriptCwnd, ok := node1.CounterValue("CWND")
	if !ok {
		t.Fatal("CWND counter missing")
	}
	real := int64(bulk.CWND())
	if scriptCwnd < real-1 || scriptCwnd > real+1 {
		t.Errorf("script CWND = %d, implementation cwnd = %d (mirror diverged)", scriptCwnd, real)
	}
	if scriptCwnd <= 2 {
		t.Errorf("script CWND = %d never left slow start", scriptCwnd)
	}
	if canTx, _ := node1.CounterValue("CanTx"); canTx < 0 {
		t.Errorf("CanTx = %d at end", canTx)
	}
}

// TestFigure5BrokenTCPFlagged is the converse the tool exists for: a TCP
// that ignores its congestion window violates the script's CanTx >= 0
// invariant and the FAE flags it, with zero instrumentation of the TCP.
func TestFigure5BrokenTCPFlagged(t *testing.T) {
	tb, _ := fig5Testbed(t, 2, true)
	rep, err := tb.Run(60 * time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Passed {
		t.Fatal("broken TCP passed the Figure 5 analysis script")
	}
	if len(rep.Result.Errors) == 0 {
		t.Fatal("no FLAG_ERR collected")
	}
	if rep.Result.Errors[0].Node != 0 {
		t.Errorf("error flagged at node %d, want node1", rep.Result.Errors[0].Node)
	}
}

// fig6Testbed assembles the Section 6.2 testbed: four Rether nodes on a
// shared bus with a real-time TCP stream node1 -> node4.
func fig6Testbed(t testing.TB, seed int64) (*Testbed, *TCPBulk) {
	t.Helper()
	script := readScript(t, "fig6_rether_failure.fsl")
	tb, err := New(Config{Seed: seed, Medium: MediumBus})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"}, RetherConfig{}); err != nil {
		t.Fatalf("rether: %v", err)
	}
	tb.AddRTStream(0x6000, 0x4000)
	if err := tb.LoadScript(script); err != nil {
		t.Fatalf("script: %v", err)
	}
	bulk, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node4",
		SrcPort: 0x6000, DstPort: 0x4000,
		Bytes: 4 << 20,
	})
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	return tb, bulk
}

// TestFigure6RetherRecovery is the paper's Section 6.2 result: node3 is
// crashed by the script once 1000 TCP data packets have crossed; Rether
// must detect the failure after exactly 3 token transmissions,
// reconstruct the ring, and complete a survivors-only token cycle inside
// the 1 s inactivity timeout, at which point the script STOPs the
// scenario with no errors.
func TestFigure6RetherRecovery(t *testing.T) {
	tb, bulk := fig6Testbed(t, 3)
	rep, err := tb.Run(120 * time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Result.Stopped {
		t.Fatalf("scenario did not STOP: %+v (delivered %d bytes)",
			rep.Result, bulk.DeliveredBytes())
	}
	if !rep.Passed {
		t.Fatalf("scenario failed: %+v", rep.Result)
	}
	node2, _ := tb.Node("node2")
	node3, _ := tb.Node("node3")
	if !node3.Failed() {
		t.Error("node3 was never crashed")
	}
	// Exactly 3 token transmissions toward the dead node (the >3 rule
	// would have flagged an error otherwise; check the counter too).
	if v, ok := node2.CounterValue("TokensFrom2"); !ok || v != 3 {
		t.Errorf("TokensFrom2 = %d, want exactly 3", v)
	}
	// Survivors reconstructed a 3-node ring.
	for _, name := range []string{"node1", "node2", "node4"} {
		n, _ := tb.Node(name)
		if got := retherRingSize(t, n); got != 3 {
			t.Errorf("%s ring size = %v, want 3", name, got)
		}
	}
	// The data crossing threshold really was reached.
	node4, _ := tb.Node("node4")
	if v, _ := node4.CounterValue("CNT_DATA"); v <= 1000 {
		t.Errorf("CNT_DATA = %d, want > 1000", v)
	}
}

// TestFigure6RealTimeTransportUnaffected checks the paper's stronger
// claim: the node1->node4 real-time stream keeps flowing across the
// failure and recovery.
func TestFigure6RealTimeTransportUnaffected(t *testing.T) {
	tb, bulk := fig6Testbed(t, 4)
	if _, err := tb.Run(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	before := bulk.DeliveredBytes()
	if before == 0 {
		t.Fatal("no data crossed before/at the failure")
	}
	// Keep running past the scenario end: data must continue to flow on
	// the reconstructed ring.
	if err := tb.RunFor(3 * time.Second); err != nil {
		t.Fatalf("runfor: %v", err)
	}
	if bulk.DeliveredBytes() <= before {
		t.Errorf("stream stalled after recovery: %d then %d bytes",
			before, bulk.DeliveredBytes())
	}
}

func TestQuickstartDropCausesRetransmission(t *testing.T) {
	script := `
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO drop_fifth
DATA: (TCP_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( DATA );
((DATA = 5)) >> DROP TCP_data, node1, node2, RECV;
END`
	tb, err := New(Config{Seed: 5, TraceCapacity: 10000})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if err := tb.LoadScript(script); err != nil {
		t.Fatalf("script: %v", err)
	}
	bulk, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node2", SrcPort: 0x6000, DstPort: 0x4000,
		Bytes: 64 * 1024,
	})
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	rep, err := tb.Run(60 * time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed {
		t.Fatalf("result: %+v", rep.Result)
	}
	if bulk.DeliveredBytes() != 64*1024 {
		t.Errorf("delivered %d", bulk.DeliveredBytes())
	}
	if bulk.SenderStats().Retransmissions == 0 {
		t.Error("injected drop caused no retransmission")
	}
	if len(tb.TraceFilter("tcp")) == 0 {
		t.Error("trace captured nothing")
	}
}

func TestRLLTestbedSurvivesBitErrors(t *testing.T) {
	// With a noisy wire and the RLL enabled, a plain TCP transfer (no
	// script) must complete without the engines ever seeing a loss they
	// didn't inject.
	tb, err := New(Config{Seed: 6, RLL: true, BitErrorRate: 1e-6})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	for _, h := range [][3]string{
		{"a", "00:00:00:00:00:0a", "10.0.0.10"},
		{"b", "00:00:00:00:00:0b", "10.0.0.11"},
	} {
		if _, err := tb.AddHost(h[0], h[1], h[2]); err != nil {
			t.Fatalf("host: %v", err)
		}
	}
	bulk, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "a", To: "b", SrcPort: 1000, DstPort: 2000, Bytes: 512 * 1024,
	})
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if _, err := tb.Run(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if bulk.DeliveredBytes() != 512*1024 {
		t.Fatalf("delivered %d", bulk.DeliveredBytes())
	}
	// The RLL masked every wire error: TCP saw no retransmissions.
	if bulk.SenderStats().Retransmissions != 0 {
		t.Errorf("TCP retransmitted %d segments despite the RLL",
			bulk.SenderStats().Retransmissions)
	}
}

func TestUDPEchoWorkload(t *testing.T) {
	tb, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("b", "00:00:00:00:00:02", "10.0.0.2"); err != nil {
		t.Fatal(err)
	}
	echo, err := tb.AddUDPEcho(UDPEchoConfig{
		Client: "a", Server: "b", ServerPort: 7, Count: 100,
	})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if echo.Received() != 100 {
		t.Fatalf("received %d/100", echo.Received())
	}
	if echo.MeanRTT() <= 0 || echo.MeanRTT() > time.Millisecond {
		t.Errorf("mean RTT = %v", echo.MeanRTT())
	}
}

func TestLoadScriptValidation(t *testing.T) {
	script := `
FILTER_TABLE
f: (12 2 0x0800)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
END
SCENARIO s
C: (node1)
(TRUE) >> ASSIGN_CNTR( C, 1 );
END`
	tb, _ := New(Config{})
	if err := tb.LoadScript(script); err == nil || !strings.Contains(err.Error(), "not in testbed") {
		t.Errorf("missing-node error = %v", err)
	}
	if _, err := tb.AddHost("node1", "00:00:00:00:00:99", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(script); err == nil || !strings.Contains(err.Error(), "identity mismatch") {
		t.Errorf("mismatch error = %v", err)
	}
}

func TestDumpTablesViaFacade(t *testing.T) {
	script := readScript(t, "fig6_rether_failure.fsl")
	tb, _ := New(Config{Medium: MediumBus})
	if err := tb.AddNodesFromScript(script); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(script); err != nil {
		t.Fatal(err)
	}
	d := tb.DumpTables()
	if !strings.Contains(d, "ACTION TABLE") || !strings.Contains(d, "tr_token") {
		t.Errorf("dump incomplete:\n%s", d)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, uint64) {
		tb, bulk := fig5Testbed(t, 42, false)
		rep, err := tb.Run(30 * time.Second)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		n1, _ := tb.Node("node1")
		cwnd, _ := n1.CounterValue("CWND")
		_ = bulk
		return cwnd, rep.Events
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Errorf("runs diverged: cwnd %d/%d events %d/%d", c1, c2, e1, e2)
	}
}
