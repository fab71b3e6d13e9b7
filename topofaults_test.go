package virtualwire

import (
	"testing"
	"time"
)

// faultJournalKinds collects the fabric entries of a run's fault journal
// by kind.
func faultJournalKinds(rep RunReport) map[string]int {
	kinds := make(map[string]int)
	for _, f := range rep.Faults {
		if f.Node == "fabric" {
			kinds[f.Kind]++
		}
	}
	return kinds
}

// TestTrunkFailoverReconverges kills the ring's first tree trunk
// mid-run and checks STP-style failover: the redundant blocked trunk
// (trunk 2 on a 4-switch ring) unblocks after the reconvergence delay,
// the failover is counted and journaled, and traffic completes over the
// new tree.
func TestTrunkFailoverReconverges(t *testing.T) {
	tb, err := New(Config{
		Seed:     7,
		Topology: &TopologySpec{Kind: TopoRing, Switches: 4},
		TopologyFaults: []TopologyFaultSpec{
			{Kind: TrunkDown, Trunk: 0, At: 100 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 24)
	mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: 12, Bytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Completed() != mf.Flows() {
		t.Fatalf("flows completed %d/%d after failover (failed %d)", mf.Completed(), mf.Flows(), mf.Failed())
	}
	if got := rep.Metrics.Totals["fabric/failovers"]; got < 1 {
		t.Fatalf("fabric/failovers = %v, want >= 1", got)
	}
	if got := rep.Metrics.Totals["fabric/reconverge_ns_total"]; got != float64(DefaultReconvergeDelay) {
		t.Fatalf("fabric/reconverge_ns_total = %v, want %v", got, float64(DefaultReconvergeDelay))
	}
	st0, err := tb.TrunkStatus(0)
	if err != nil {
		t.Fatal(err)
	}
	if !st0.Failed || !st0.Blocked {
		t.Fatalf("trunk 0 after kill: %+v, want failed and blocked", st0)
	}
	st2, err := tb.TrunkStatus(2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Blocked || st2.InTree {
		t.Fatalf("redundant trunk 2 after failover: %+v, want a promoted non-tree trunk", st2)
	}
	kinds := faultJournalKinds(rep)
	if kinds["trunk_down"] != 1 || kinds["reconverge"] != 1 {
		t.Fatalf("fabric journal = %v, want one trunk_down and one reconverge", kinds)
	}
}

// TestTrunkFailbackRestores restores the killed trunk and checks the
// second reconvergence returns the fabric to the build-time tree: the
// restored trunk forwards again, the redundant trunk re-blocks.
func TestTrunkFailbackRestores(t *testing.T) {
	tb, err := New(Config{
		Seed:     7,
		Topology: &TopologySpec{Kind: TopoRing, Switches: 4},
		TopologyFaults: []TopologyFaultSpec{
			{Kind: TrunkDown, Trunk: 0, At: 100 * time.Millisecond},
			{Kind: TrunkUp, Trunk: 0, At: 300 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 24)
	if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 12, Bytes: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics.Totals["fabric/failovers"]; got != 2 {
		t.Fatalf("fabric/failovers = %v, want 2 (failover + failback)", got)
	}
	st0, _ := tb.TrunkStatus(0)
	if st0.Failed || st0.Blocked {
		t.Fatalf("trunk 0 after failback: %+v, want forwarding", st0)
	}
	st2, _ := tb.TrunkStatus(2)
	if !st2.Blocked {
		t.Fatalf("redundant trunk 2 after failback: %+v, want re-blocked", st2)
	}
}

// TestSwitchCrashRestartReconverges crashes a ring switch and restarts
// it: both transitions are journaled, the restart re-admits the switch
// via reconvergence, and no switch stays down at the end of the run.
func TestSwitchCrashRestartReconverges(t *testing.T) {
	tb, err := New(Config{
		Seed:     11,
		Topology: &TopologySpec{Kind: TopoRing, Switches: 4},
		TopologyFaults: []TopologyFaultSpec{
			// Early enough to catch the ManyFlow mesh in flight: the 2KB
			// flows complete within tens of milliseconds.
			{Kind: SwitchDown, Switch: 3, At: 2 * time.Millisecond},
			{Kind: SwitchUp, Switch: 3, At: 300 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 24)
	// Large enough flows that transfers are still in flight at the crash.
	if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 12, Bytes: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	kinds := faultJournalKinds(rep)
	if kinds["switch_down"] != 1 || kinds["switch_up"] != 1 {
		t.Fatalf("fabric journal = %v, want one switch_down and one switch_up", kinds)
	}
	if got := rep.Metrics.Totals["fabric/failovers"]; got < 1 {
		t.Fatalf("fabric/failovers = %v, want >= 1", got)
	}
	if down := rep.Metrics.Totals["fabric/blocked_frames"]; down == 0 {
		t.Fatal("a crashed switch discarded no ingress frames")
	}
}

// TestTopologyFaultValidation covers the staging errors: faults without
// a fabric, out-of-range targets, and empty degrades.
func TestTopologyFaultValidation(t *testing.T) {
	cases := []struct {
		name   string
		topo   *TopologySpec
		faults []TopologyFaultSpec
	}{
		{"no-fabric", nil, []TopologyFaultSpec{{Kind: TrunkDown, Trunk: 0, At: time.Millisecond}}},
		{"bad-trunk", &TopologySpec{Kind: TopoRing, Switches: 4},
			[]TopologyFaultSpec{{Kind: TrunkDown, Trunk: 99, At: time.Millisecond}}},
		{"bad-switch", &TopologySpec{Kind: TopoRing, Switches: 4},
			[]TopologyFaultSpec{{Kind: SwitchDown, Switch: -1, At: time.Millisecond}}},
		{"empty-degrade", &TopologySpec{Kind: TopoRing, Switches: 4},
			[]TopologyFaultSpec{{Kind: TrunkDegrade, Trunk: 0, At: time.Millisecond}}},
		{"negative-at", &TopologySpec{Kind: TopoRing, Switches: 4},
			[]TopologyFaultSpec{{Kind: TrunkDown, Trunk: 0, At: -time.Millisecond}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := New(Config{Seed: 1, Topology: tc.topo, TopologyFaults: tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			addGroupHosts(t, tb, 8)
			if _, err := tb.Run(10 * time.Millisecond); err == nil {
				t.Fatal("faulted build succeeded, want staging error")
			}
		})
	}
}
