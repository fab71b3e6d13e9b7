package virtualwire

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// resetTestHorizon is the quickstart scenario's horizon: short, but long
// enough for its drop and the retransmission to play out fully.
const resetTestHorizon = 30 * time.Second

// buildQuickstart assembles a testbed from the shared compiled script
// with the standard quickstart TCP bulk workload staged.
func buildQuickstart(t *testing.T, cs *CompiledScript, cfg Config) *Testbed {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromCompiled(cs); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadCompiled(cs); err != nil {
		t.Fatal(err)
	}
	return tb
}

func addQuickstartBulk(t *testing.T, tb *Testbed) {
	t.Helper()
	if _, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: 16 * 1024,
	}); err != nil {
		t.Fatal(err)
	}
}

func reportBytes(t *testing.T, rep RunReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResetBeforeBuildRejected pins the contract that Reset needs a
// built testbed.
func TestResetBeforeBuildRejected(t *testing.T) {
	script := readScript(t, "quickstart_drop.fsl")
	cs, err := CompileScript(script)
	if err != nil {
		t.Fatal(err)
	}
	tb := buildQuickstart(t, cs, Config{})
	if err := tb.Reset(1); err == nil {
		t.Fatal("Reset before build accepted")
	}
	addQuickstartBulk(t, tb)
	if _, err := tb.Run(resetTestHorizon); err != nil {
		t.Fatal(err)
	}
	if err := tb.Reset(1); err != nil {
		t.Fatalf("Reset after build: %v", err)
	}
}

// readSender reads a TCPBulk's sender through its public accessors.
func readSender(w *TCPBulk) senderState {
	return senderState{w.CWND(), w.Ssthresh(), w.InSlowStart(), w.SenderStats()}
}

// TestTCPBulkReadAfterResetAnswersFromItsRun: Reset recycles a run's
// connections into the next run, so a handle read after it must report
// the sender as its own run left it, not the connection's next use.
func TestTCPBulkReadAfterResetAnswersFromItsRun(t *testing.T) {
	cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
	if err != nil {
		t.Fatal(err)
	}
	tb := buildQuickstart(t, cs, Config{Seed: 1})
	run := func(n int) *TCPBulk {
		w, err := tb.AddTCPBulk(TCPBulkConfig{From: "node1", To: "node2", SrcPort: 0x6000, DstPort: 0x4000, Bytes: n})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Run(resetTestHorizon); err != nil {
			t.Fatal(err)
		}
		if w.DeliveredBytes() != n {
			t.Fatalf("%d of %d bytes delivered", w.DeliveredBytes(), n)
		}
		return w
	}
	first := run(16 << 10)
	want := readSender(first)
	if err := tb.Reset(2); err != nil {
		t.Fatal(err)
	}
	second := run(256 << 10)
	if got := readSender(first); got != want {
		t.Errorf("first run's handle reads %+v after Reset, want its own run's %+v", got, want)
	}
	if other := readSender(second); other == want {
		t.Fatalf("both runs left the sender as %+v: the test tells nothing", other)
	}
}

// TestTCPBulkWithoutConnectionReadsZero: a handle whose connection was
// never made — before Run, after a run canceled before the workload
// started, and after the Reset that follows — reports a zero sender
// instead of dereferencing a connection it does not have.
func TestTCPBulkWithoutConnectionReadsZero(t *testing.T) {
	tb := ctxTestbed(t, 1)
	w := tb.workloads[0].(*TCPBulk)
	check := func(when string) {
		t.Helper()
		if got := readSender(w); got != (senderState{}) {
			t.Errorf("%s: handle reads %+v, want zero", when, got)
		}
	}
	check("before Run")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tb.RunContext(ctx, resetTestHorizon); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	check("after a canceled run")
	if err := tb.Reset(2); err != nil {
		t.Fatal(err)
	}
	check("after Reset")
}

// poisonFlows turns on the poisoning of released flow records, receive
// slots and listeners; the returned func turns it off.
func poisonFlows() (off func()) {
	poisonReleasedFlows = true
	return func() { poisonReleasedFlows = false }
}

// flowReading is what a flow workload handle reports.
type flowReading struct{ completed, delivered, failed int }

// addFlowLoads stages a ManyFlow of flows transfers and an Incast whose
// two senders are one host named twice, so its second connect fails.
func addFlowLoads(t *testing.T, tb *Testbed, flows, bytes int) (read func() [2]flowReading) {
	t.Helper()
	mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: flows, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := tb.AddIncast(IncastConfig{To: "h0001", Senders: []string{"h0002", "h0002"}, Bytes: 2 * bytes})
	if err != nil {
		t.Fatal(err)
	}
	return func() [2]flowReading {
		return [2]flowReading{
			{mf.Completed(), mf.DeliveredBytes(), mf.Failed()},
			{inc.Completed(), inc.DeliveredBytes(), inc.Failed()},
		}
	}
}

// TestManyFlowReadAfterResetAnswersFromItsRun: Reset takes a run's flow
// records back for the next run, so a ManyFlow or Incast handle read
// after it must report its own run's totals, not the records' next use.
// The released records are poisoned, so a handle still reading them
// would read garbage.
func TestManyFlowReadAfterResetAnswersFromItsRun(t *testing.T) {
	defer poisonFlows()()
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 6)
	run := func(flows, bytes int) func() [2]flowReading {
		read := addFlowLoads(t, tb, flows, bytes)
		if _, err := tb.Run(time.Second); err != nil {
			t.Fatal(err)
		}
		return read
	}
	first := run(4, 4<<10)
	want := first()
	if want != [2]flowReading{{4, 4 * 4 << 10, 0}, {1, 8 << 10, 1}} {
		t.Fatalf("first run reads %+v", want)
	}
	if err := tb.Reset(2); err != nil {
		t.Fatal(err)
	}
	if got := first(); got != want {
		t.Errorf("first run's handles read %+v after Reset, want their own run's %+v", got, want)
	}
	second := run(6, 1<<10)
	if got := first(); got != want {
		t.Errorf("first run's handles read %+v after the next run, want their own run's %+v", got, want)
	}
	if other := second(); other == want {
		t.Fatalf("both runs read %+v: the test tells nothing", other)
	}
}

// TestFlowWorkloadStartAllocatesOnlyItsHandle is the start-allocation
// gate of the flow workloads: on a warmed testbed, Reset + AddManyFlow +
// AddIncast + their start — listeners installed, every flow's start
// event scheduled — allocates the two handles and nothing else. Each
// flow and listener takes back a record kept across Reset, with its
// callbacks bound; the TCP stacks take back their listeners.
func TestFlowWorkloadStartAllocatesOnlyItsHandle(t *testing.T) {
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 8)
	add := func() {
		if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 16, Bytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.AddIncast(IncastConfig{Bytes: 1 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	add()
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := tb.Reset(2); err != nil {
			t.Fatal(err)
		}
		add()
		if err := tb.dispatchWorkloads(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Reset + two flow workloads' add and start allocate %.0f objects, want 2 (the handles)", allocs)
	}
}

// TestManyFlowPortRangeMustFit: flow f listens and connects on
// BasePort+f, so a range that passes 65535 is refused at the field a
// campaign spec names, not wrapped onto ports 0 and up.
func TestManyFlowPortRangeMustFit(t *testing.T) {
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 4)
	_, err = tb.AddManyFlow(ManyFlowConfig{Flows: 40, BasePort: 0xFFF0})
	var rej *rejection
	if !errors.As(err, &rej) || rej.Field() != "dst_port" {
		t.Fatalf("40 flows from port %d: err = %v, want a rejection at dst_port", 0xFFF0, err)
	}
	if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 16, BasePort: 0xFFF0}); err != nil {
		t.Fatalf("16 flows ending at port 65535 refused: %v", err)
	}
}
