package virtualwire

import (
	"bytes"
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
