package virtualwire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// No option selects a classifier: the engines read the choice off the
// cost model. Cost.PerTuple charges the paper's linear scan's per-frame
// tuple count, so charging it runs that scan; with it zero no output byte
// depends on the search and the engines walk the script's dispatch tree.
// Every digest below is of the parent commit's run under its linear
// default, when the choice was still Config.Classifier — the rule moved
// no byte on either side of it.
func TestCostModelPicksTheScan(t *testing.T) {
	// Two decoys ahead of the data filter give the dispatch tree a field
	// to split on; the stock one-filter table compiles to a single leaf.
	script := strings.Replace(readScript(t, "quickstart_drop.fsl"), "FILTER_TABLE\n",
		"FILTER_TABLE\ndecoy0: (36 2 0x1f40)\ndecoy1: (36 2 0x1f41)\n", 1)
	cs, err := CompileScript(script)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cost   CostModel
		linear bool
		digest string
	}{
		{"free", CostModel{}, false,
			"efb9afbd248a1486f310e6a9d17ce69aac9ddb0a0bd7fd2b5a0a16f3888b1b43"},
		{"per-tuple", CostModel{Base: 200 * time.Nanosecond, PerTuple: 70 * time.Nanosecond}, true,
			"7a27f4cf8788020546ddabf1cf7dcbf315bd32c5128160b4f102f656a9bada2d"},
		{"base-only", CostModel{Base: 200 * time.Nanosecond}, false,
			"d0001a874fbc411c447732ae1b0ea03e21f7bed2ad7399ce7e2ee18d68df63ee"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := buildQuickstart(t, cs, Config{Seed: 77, Cost: c.cost})
			addQuickstartBulk(t, tb)
			rep, err := tb.Run(resetTestHorizon)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed {
				t.Fatalf("scenario failed: %+v", rep.Result)
			}
			var filters, tuples, probes uint64
			for _, n := range tb.nodes {
				f, tu, p := n.engine.ClassifierWork()
				filters, tuples, probes = filters+f, tuples+tu, probes+p
			}
			if c.linear {
				// The parent's linear run of this table: every filter
				// visited in order, every tuple up to the first mismatch.
				if filters != 168 || tuples != 228 || probes != 0 {
					t.Errorf("charged run did %d filters / %d tuples / %d probes, want the linear scan's 168 / 228 / 0",
						filters, tuples, probes)
				}
			} else if probes == 0 {
				t.Errorf("uncharged run probed no dispatch node (%d filters, %d tuples): it ran the linear scan",
					filters, tuples)
			}
			sum := sha256.Sum256(reportBytes(t, rep))
			if got := hex.EncodeToString(sum[:]); got != c.digest {
				t.Errorf("report digest %s, want the parent's linear run's %s", got, c.digest)
			}
		})
	}
}

// addGroupHosts populates a topology testbed and returns the host names.
func addGroupHosts(t *testing.T, tb *Testbed, n int) []*Node {
	t.Helper()
	nodes, err := tb.AddHostGroup("h", n)
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// A star fabric carries an incast: every sender's transfer crosses at
// least one trunk into the receiver's edge switch and completes.
func TestTopologyStarIncast(t *testing.T) {
	tb, err := New(Config{
		Seed:     5,
		Topology: &TopologySpec{Kind: TopoStar, Switches: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 40)
	inc, err := tb.AddIncast(IncastConfig{Bytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tb.FabricSwitches(); got != 5 { // 4 edges + core
		t.Fatalf("fabric switches = %d, want 5", got)
	}
	if inc.Senders() != 39 {
		t.Fatalf("senders = %d, want 39", inc.Senders())
	}
	if inc.Completed() != inc.Senders() || inc.Failed() != 0 {
		t.Fatalf("completed %d/%d, failed %d", inc.Completed(), inc.Senders(), inc.Failed())
	}
}

// A ring fabric has a redundant trunk; the spanning tree must block
// exactly one, and traffic (including the flooding before MAC learning
// converges) must terminate rather than storm.
func TestTopologyRingBlockedTrunk(t *testing.T) {
	tb, err := New(Config{
		Seed:     9,
		Topology: &TopologySpec{Kind: TopoRing, Switches: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 12)
	mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: 12, Bytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Completed() != mf.Flows() {
		t.Fatalf("flows completed %d/%d", mf.Completed(), mf.Flows())
	}
	blocked, ok := rep.Metrics.Totals["fabric/blocked_frames"]
	if !ok {
		t.Fatal("no fabric metrics in the report")
	}
	_ = blocked // blocked frames may be zero once learning converges fast
	if len(tb.trunks) != 4 || tb.blockedTrunks() != 1 {
		t.Fatalf("ring trunks=%d blocked=%d, want 4/1", len(tb.trunks), tb.blockedTrunks())
	}
}

// Fat-tree auto-sizing picks the smallest even arity whose k^3/4 pod
// capacity covers the hosts, and every generated fabric stays connected.
func TestTopologyGenerators(t *testing.T) {
	cases := []struct {
		spec     TopologySpec
		hosts    int
		switches int
	}{
		{TopologySpec{Kind: TopoStar}, 100, 4},                 // ceil(100/48)=3 edges + core
		{TopologySpec{Kind: TopoRing}, 100, 3},                 // ceil(100/48)=3
		{TopologySpec{Kind: TopoFatTree, FatTreeK: 4}, 16, 20}, // 4 cores + 4*(2+2)
		{TopologySpec{Kind: TopoRandom, Switches: 7, ExtraTrunks: 3}, 50, 7},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Kind.String(), func(t *testing.T) {
			tb, err := New(Config{Topology: &tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			addGroupHosts(t, tb, tc.hosts)
			if err := tb.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if got := tb.FabricSwitches(); got != tc.switches {
				t.Fatalf("switches = %d, want %d", got, tc.switches)
			}
		})
	}

	// Auto fat-tree: 1000 hosts need k=16 (16^3/4 = 1024).
	plan, err := planFabric(&TopologySpec{Kind: TopoFatTree}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantSwitches := 8*8 + 16*16 // 64 cores + 16 pods x (8 agg + 8 edge)
	if plan.switches != wantSwitches {
		t.Fatalf("1000-host fat-tree switches = %d, want %d", plan.switches, wantSwitches)
	}
	if len(plan.edges) != 128 {
		t.Fatalf("edge switches = %d, want 128", len(plan.edges))
	}
}

// The headline scale target: a 1000-node fat-tree testbed builds, runs
// traffic across the fabric, and completes inside the test budget.
func TestTopology1000Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node build in -short mode")
	}
	tb, err := New(Config{
		Seed:     1,
		Topology: &TopologySpec{Kind: TopoFatTree},
	})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 1000)
	mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: 100, Bytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if tb.FabricSwitches() != 320 {
		t.Fatalf("switches = %d, want 320", tb.FabricSwitches())
	}
	if mf.Completed() != mf.Flows() {
		t.Fatalf("flows completed %d/%d (failed %d)", mf.Completed(), mf.Flows(), mf.Failed())
	}
	if sw, ok := rep.Metrics.Totals["fabric/forwarded_frames"]; !ok || sw <= 0 {
		t.Fatalf("fabric forwarded %v frames", sw)
	}
	// Reset keeps the wiring: a second run over the rewound fabric
	// completes as well.
	if err := tb.Reset(2); err != nil {
		t.Fatal(err)
	}
	mf2, err := tb.AddManyFlow(ManyFlowConfig{Flows: 100, Bytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mf2.Completed() != mf2.Flows() {
		t.Fatalf("reset flows completed %d/%d", mf2.Completed(), mf2.Flows())
	}
}

// Host-group identities are deterministic and unique.
func TestAddHostGroupIdentities(t *testing.T) {
	tb, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := addGroupHosts(t, tb, 3)
	for i, n := range nodes {
		wantName := fmt.Sprintf("h%04d", i+1)
		if n.Name() != wantName {
			t.Fatalf("node %d name %q, want %q", i, n.Name(), wantName)
		}
	}
	if nodes[1].IP() != "10.0.0.2" {
		t.Fatalf("second host IP %s, want 10.0.0.2", nodes[1].IP())
	}
	if nodes[2].MAC() != "02:56:57:00:00:03" {
		t.Fatalf("third host MAC %s", nodes[2].MAC())
	}
}
