package virtualwire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

const ctxScript = `FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO ctx_drop
DATA: (TCP_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( DATA );
((DATA = 5)) >> DROP TCP_data, node1, node2, RECV;
END`

func ctxTestbed(t *testing.T, seed int64) *Testbed {
	t.Helper()
	tb, err := New(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(ctxScript); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(ctxScript); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddTCPBulk(TCPBulkConfig{
		From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: 64 * 1024,
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestRunContextPreCanceled: a context canceled before the run starts
// returns promptly with context.Canceled and a failed report.
func TestRunContextPreCanceled(t *testing.T) {
	tb := ctxTestbed(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := tb.RunContext(ctx, 30*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Passed {
		t.Error("canceled run reported passed")
	}
	// The context is polled at every window barrier, the first time
	// before any window runs.
	if rep.Events != 0 {
		t.Errorf("canceled run executed %d events", rep.Events)
	}
}

// TestRunContextDeadline: an expiring wall-clock deadline interrupts
// the event loop and wraps both ErrHorizonExceeded and the context
// error, with the partial report still populated.
func TestRunContextDeadline(t *testing.T) {
	tb := ctxTestbed(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // guarantee expiry before the first poll
	rep, err := tb.RunContext(ctx, 30*time.Second)
	if !errors.Is(err, ErrHorizonExceeded) {
		t.Fatalf("err = %v, want ErrHorizonExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	if rep.Passed {
		t.Error("interrupted run reported passed")
	}
	if rep.Scenario != "ctx_drop" {
		t.Errorf("partial report lost the scenario: %+v", rep)
	}
}

// TestRunContextMidRunCancel cancels from a scheduled callback, at a
// known virtual time, and checks the loop stops at the next window
// barrier instead of running to the horizon.
func TestRunContextMidRunCancel(t *testing.T) {
	tb := ctxTestbed(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tb.sched.After(5*time.Millisecond, "test.cancel", cancel)
	rep, err := tb.RunContext(ctx, 30*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Duration < 5*time.Millisecond {
		t.Errorf("canceled before the cancel event itself ran: %v", rep.Duration)
	}
	if rep.Duration > time.Second {
		t.Errorf("run continued to %v after cancellation", rep.Duration)
	}
}

// TestRunMatchesRunContextBackground: Run is a thin wrapper; both paths
// give identical reports for equal seeds.
func TestRunMatchesRunContextBackground(t *testing.T) {
	repA, err := ctxTestbed(t, 4).Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := ctxTestbed(t, 4).RunContext(context.Background(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := repA.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := repB.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Run and RunContext(Background) reports differ")
	}
	if !repA.Passed || repA.Verdict != "horizon" {
		t.Errorf("report = passed %v verdict %q", repA.Passed, repA.Verdict)
	}
}

// TestScriptParseSentinel: every FSL front-end entry point wraps parse
// failures with ErrScriptParse.
func TestScriptParseSentinel(t *testing.T) {
	tb, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const garbage = "FILTER_TABLE\nnot a filter\n"
	if err := tb.AddNodesFromScript(garbage); !errors.Is(err, ErrScriptParse) {
		t.Errorf("AddNodesFromScript: err = %v, want ErrScriptParse", err)
	}
	if err := tb.LoadScript(garbage); !errors.Is(err, ErrScriptParse) {
		t.Errorf("LoadScript: err = %v, want ErrScriptParse", err)
	}
	if err := tb.LoadScriptScenario(garbage, "x"); !errors.Is(err, ErrScriptParse) {
		t.Errorf("LoadScriptScenario: err = %v, want ErrScriptParse", err)
	}
	if _, err := ScenarioNames(garbage); !errors.Is(err, ErrScriptParse) {
		t.Errorf("ScenarioNames: err = %v, want ErrScriptParse", err)
	}
	if err := CheckScript(garbage, ""); !errors.Is(err, ErrScriptParse) {
		t.Errorf("CheckScript: err = %v, want ErrScriptParse", err)
	}
	if err := CheckScript(ctxScript, "no_such"); !errors.Is(err, ErrScriptParse) {
		t.Errorf("CheckScript(missing scenario): err = %v, want ErrScriptParse", err)
	}
	if err := CheckScript(ctxScript, "ctx_drop"); err != nil {
		t.Errorf("CheckScript(valid): %v", err)
	}
}

// TestLaunchFailureSentinel: a launch failure surfaces through
// RunReport.Err as both ErrLaunchFailed and ErrUnreachable, naming the
// silent node, while Run's error return stays nil (back compat).
func TestLaunchFailureSentinel(t *testing.T) {
	tb, err := New(Config{Seed: 5, LaunchDeadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromScript(ctxScript); err != nil {
		t.Fatal(err)
	}
	if err := tb.LoadScript(ctxScript); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(time.Second)
	if err != nil {
		t.Fatalf("Run must not error on a reported launch failure: %v", err)
	}
	repErr := rep.Err()
	if !errors.Is(repErr, ErrLaunchFailed) || !errors.Is(repErr, ErrUnreachable) {
		t.Fatalf("rep.Err() = %v, want ErrLaunchFailed and ErrUnreachable", repErr)
	}
	if !strings.Contains(repErr.Error(), "node2") {
		t.Errorf("rep.Err() = %v, want the unreachable node named", repErr)
	}
	if rep.Verdict != "launch_failed" {
		t.Errorf("verdict = %q", rep.Verdict)
	}
	// A healthy run's report carries no error.
	if e := ctxReport(t).Err(); e != nil {
		t.Errorf("healthy run Err() = %v", e)
	}
}

func ctxReport(t *testing.T) RunReport {
	t.Helper()
	rep, err := ctxTestbed(t, 6).Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunReportJSONShape: the unified report marshals with the stable
// snake_case schema campaigns and external tooling consume.
func TestRunReportJSONShape(t *testing.T) {
	rep := ctxReport(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "seed", "verdict", "result", "passed", "virtual_ns", "events", "faults", "nodes", "metrics"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	res, ok := doc["result"].(map[string]any)
	if !ok {
		t.Fatal("result not an object")
	}
	if _, ok := res["started"]; !ok {
		t.Error("result JSON not snake_case (missing \"started\")")
	}
	text := rep.Text()
	for _, want := range []string{"ctx_drop", "fault(s) injected", "engine:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}
