package virtualwire

import (
	"testing"
	"time"
)

const launchScript = `FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO launchtest 100ms
C: (node1)
(TRUE) >> ASSIGN_CNTR( C, 1 );
END`

// TestLaunchDeadlineReportsUnreachable: a deadline shorter than one wire
// traversal guarantees no remote node can acknowledge in time, so the run
// must terminate with a degraded launch-failed report naming the node —
// rather than hanging or pretending to have started.
func TestLaunchDeadlineReportsUnreachable(t *testing.T) {
	tb, err := New(Config{Seed: 5, LaunchDeadline: time.Nanosecond})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := tb.AddNodesFromScript(launchScript); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	if err := tb.LoadScript(launchScript); err != nil {
		t.Fatalf("script: %v", err)
	}
	rep, err := tb.Run(time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Passed {
		t.Error("a failed launch must not pass")
	}
	if !rep.Result.LaunchFailed {
		t.Fatalf("LaunchFailed not reported: %+v", rep.Result)
	}
	if rep.Result.Started {
		t.Error("scenario reported started despite the launch failure")
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "node2" {
		t.Errorf("Unreachable = %v, want [node2]", rep.Unreachable)
	}
	// The run is terminal: virtual time stopped at the deadline, not the
	// horizon.
	if rep.Duration > 100*time.Millisecond {
		t.Errorf("run consumed %v, want early termination at the deadline", rep.Duration)
	}
	// The controller's distribution counters are part of the registry.
	found := false
	for _, s := range tb.Metrics().Gather() {
		if s.Node == MetricsNode && s.Layer == "controller" {
			found = true
			break
		}
	}
	if !found {
		t.Error("controller metrics source not registered")
	}
}
