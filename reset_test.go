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
