package virtualwire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// errWriter is a Config.Pcap sink that cannot take the capture header.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestFailedBuildStaysFailed: a testbed whose build returned an error is
// not half a testbed. Every later Run, RunFor and Reset returns that same
// error, nothing panics, and the host set stays closed. (Build used to
// mark the testbed built before it had succeeded, so the second call ran
// on whatever the failed one had left: a nil shard runtime, hosts without
// a TCP stack.)
func TestFailedBuildStaysFailed(t *testing.T) {
	cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
	if err != nil {
		t.Fatal(err)
	}
	ring := &TopologySpec{Kind: TopoRing, Switches: 4}
	cases := []struct {
		name  string
		build func(t *testing.T) *Testbed
	}{
		{"fabric-without-hosts", func(t *testing.T) *Testbed {
			tb, err := New(Config{Topology: &TopologySpec{Kind: TopoStar}})
			if err != nil {
				t.Fatal(err)
			}
			return tb
		}},
		{"trunk-fault-out-of-range", func(t *testing.T) *Testbed {
			tb, err := New(Config{Topology: ring, TopologyFaults: []TopologyFaultSpec{
				{Kind: TrunkDown, Trunk: 99, At: time.Millisecond}}})
			if err != nil {
				t.Fatal(err)
			}
			addGroupHosts(t, tb, 8)
			if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 4, Bytes: 4096}); err != nil {
				t.Fatal(err)
			}
			return tb
		}},
		{"control-node-not-in-script", func(t *testing.T) *Testbed {
			tb := buildQuickstart(t, cs, Config{ControlNode: "nobody"})
			addQuickstartBulk(t, tb)
			return tb
		}},
		{"pcap-writer-errors", func(t *testing.T) *Testbed {
			tb := buildQuickstart(t, cs, Config{Pcap: errWriter{}})
			addQuickstartBulk(t, tb)
			return tb
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := tc.build(t)
			_, first := tb.Run(10 * time.Millisecond)
			if first == nil {
				t.Fatal("build succeeded, want an error")
			}
			same := func(what string, err error) {
				t.Helper()
				if err == nil || err.Error() != first.Error() {
					t.Errorf("%s after a failed build: %v, want the build error again: %v", what, err, first)
				}
			}
			_, err := tb.Run(10 * time.Millisecond)
			same("Run", err)
			same("Reset", tb.Reset(2))
			same("RunFor", tb.RunFor(time.Millisecond))
			_, err = tb.AddHost("late", "00:00:00:00:00:99", "10.9.9.9")
			same("AddHost", err)
			// The accessors a campaign measurer or a report would call
			// still answer.
			_ = tb.InjectedFaults()
			for _, n := range tb.Nodes() {
				_ = n.Failed()
				n.Snapshot("tcp")
			}
		})
	}
}

// TestNodeBeforeBuild: AddHost records a host; nothing of it is
// constructed until the first Run. Until then the node answers with its
// identity and as a host that has seen nothing.
func TestNodeBeforeBuild(t *testing.T) {
	cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddNodesFromCompiled(cs); err != nil {
		t.Fatal(err)
	}
	n, _ := tb.Node("node1")
	if n.host != nil || n.engine != nil || n.rll != nil || n.tcp != nil || tb.fabric != nil || tb.bus != nil || tb.shards != nil {
		t.Fatal("something was constructed before build")
	}
	if n.MAC() != "00:00:00:00:00:01" || n.IP() != "10.0.0.1" {
		t.Errorf("identity %s / %s, want the NODE_TABLE row", n.MAC(), n.IP())
	}
	if n.Failed() {
		t.Error("an unbuilt node reports Failed")
	}
	if v, ok := n.CounterValue("anything"); v != 0 || ok {
		t.Errorf("CounterValue = (%d, %v), want (0, false)", v, ok)
	}
	for _, layer := range []string{"engine", "nic", "ip", "tcp", "rll", "rether"} {
		if _, ok := n.Snapshot(layer); ok {
			t.Errorf("Snapshot(%q) ok before build", layer)
		}
	}
	if got := n.SnapshotLayers(); len(got) != 0 {
		t.Errorf("SnapshotLayers = %v before build", got)
	}
	if err := n.RequestRTSlots(1, nil); err == nil {
		t.Error("RequestRTSlots accepted on a node without Rether")
	}
	if got := tb.InjectedFaults(); len(got) != 0 {
		t.Errorf("InjectedFaults = %v before build", got)
	}
	// LoadCompiled checks identities against what AddHost recorded.
	if err := tb.LoadCompiled(cs); err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	other.AddHost("node1", "00:00:00:00:00:01", "10.0.0.1")
	other.AddHost("node2", "00:00:00:00:00:02", "10.0.0.99")
	if err := other.LoadCompiled(cs); err == nil {
		t.Error("LoadCompiled accepted a host whose IP differs from the script's")
	}
	addQuickstartBulk(t, tb)
	rep, err := tb.Run(resetTestHorizon)
	if err != nil || !rep.Passed {
		t.Fatalf("run: %v, %s", err, rep.Verdict)
	}
	if _, ok := n.Snapshot("tcp"); !ok {
		t.Error("Snapshot(tcp) not ok after build")
	}
}

// TestSingleSwitchIsTheOneSwitchFabric: no Topology, TopoSingle and an
// explicit shard count over a single switch are one testbed — one switch
// that is fabric[0], one shard, "testbed/switch" rows — and print the
// same Fig 5 report.
func TestSingleSwitchIsTheOneSwitchFabric(t *testing.T) {
	script := readScript(t, "fig5_tcp_ss_ca.fsl")
	var want []byte
	for _, cfg := range []Config{
		{Seed: 5},
		{Seed: 5, Topology: &TopologySpec{Kind: TopoSingle}},
		{Seed: 5, Shards: 4},
	} {
		tb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AddNodesFromScript(script); err != nil {
			t.Fatal(err)
		}
		if err := tb.LoadScript(script); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.AddTCPBulk(TCPBulkConfig{
			From: "node1", To: "node2", SrcPort: 0x6000, DstPort: 0x4000, Bytes: 80 << 10,
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := tb.Run(60 * time.Second)
		if err != nil || !rep.Passed {
			t.Fatalf("%+v: %v, %s", cfg, err, rep.Verdict)
		}
		if tb.FabricSwitches() != 1 || tb.TrunkCount() != 0 || tb.shards.count != 1 {
			t.Errorf("%+v: %d switches, %d trunks, %d shards, want 1, 0, 1",
				cfg, tb.FabricSwitches(), tb.TrunkCount(), tb.shards.count)
		}
		got := reportBytes(t, rep)
		if !bytes.Contains(got, []byte(`"switch/forwarded_frames"`)) || bytes.Contains(got, []byte(`"fabric/`)) {
			t.Errorf("%+v: report does not carry the single switch's rows", cfg)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%+v: report differs from the zero Config's", cfg)
		}
	}
}

// unexportedPtr reads a pointer-typed unexported field of *obj: the
// layers keep their scheduler and pool to themselves, and this test is
// about exactly those.
func unexportedPtr(t *testing.T, obj any, field string) uintptr {
	t.Helper()
	f := reflect.ValueOf(obj).Elem().FieldByName(field)
	if !f.IsValid() {
		t.Fatalf("%T has no field %q", obj, field)
	}
	return f.Pointer()
}

// TestHostsAreBuiltOnTheirShard: on a 4-shard ring every host's NIC,
// engine and RLL run on the scheduler of the shard that owns the host's
// edge switch, and recycle into the pool that switch hands its NIC —
// because that is where build constructed them, not because anything
// moved them there afterwards.
func TestHostsAreBuiltOnTheirShard(t *testing.T) {
	const hosts, shards = 24, 4
	spec := &TopologySpec{Kind: TopoRing, Switches: 8}
	tb, err := New(Config{Seed: 1, Shards: shards, RLL: true, Topology: spec})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, hosts)
	if err := tb.build(); err != nil {
		t.Fatal(err)
	}
	if tb.shards.count != shards {
		t.Fatalf("built %d shards, want %d", tb.shards.count, shards)
	}
	plan, err := tb.plan()
	if err != nil {
		t.Fatal(err)
	}
	shardOf := plan.shardOf
	used := map[int]bool{}
	for i, n := range tb.nodes {
		edge := plan.edges[i%len(plan.edges)]
		sid := shardOf[edge]
		used[sid] = true
		sched := reflect.ValueOf(tb.shards.scheds[sid]).Pointer()
		pool := reflect.ValueOf(tb.shards.pools[sid]).Pointer()
		if got := unexportedPtr(t, tb.fabric[edge], "sched"); got != sched {
			t.Fatalf("switch %d is not on shard %d's scheduler", edge, sid)
		}
		for what, got := range map[string]uintptr{
			"host":   reflect.ValueOf(n.host.Sched).Pointer(),
			"nic":    reflect.ValueOf(n.host.NIC.Scheduler()).Pointer(),
			"engine": unexportedPtr(t, n.engine, "sched"),
			"rll":    unexportedPtr(t, n.rll, "sched"),
		} {
			if got != sched {
				t.Errorf("%s: %s scheduler is not shard %d's (edge switch %d)", n.name, what, sid, edge)
			}
		}
		if n.host.NIC.Pool() == nil {
			t.Fatalf("%s: NIC has no pool", n.name)
		}
		for what, got := range map[string]uintptr{
			"nic":    reflect.ValueOf(n.host.NIC.Pool()).Pointer(),
			"engine": unexportedPtr(t, n.engine, "pool"),
			"rll":    unexportedPtr(t, n.rll, "pool"),
		} {
			if got != pool {
				t.Errorf("%s: %s pool is not shard %d's (edge switch %d)", n.name, what, sid, edge)
			}
		}
	}
	if len(used) != shards {
		t.Fatalf("hosts landed on %d shards, want all %d in use", len(used), shards)
	}
}

// TestHostSetClosesAtBuild: AddHost after a successful build still
// errors, and a duplicate name is rejected (by the one check left).
func TestHostSetClosesAtBuild(t *testing.T) {
	tb, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:01", "10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("a", "00:00:00:00:00:02", "10.0.0.2"); err == nil {
		t.Error("duplicate name accepted by AddHost")
	}
	if _, err := tb.AddHostGroup("h", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.addHost("h0001", tb.nodes[1].mac, tb.nodes[1].ip); err == nil {
		t.Error("duplicate name accepted by addHost")
	}
	if len(tb.Nodes()) != 3 {
		t.Fatalf("%d hosts recorded, want 3", len(tb.Nodes()))
	}
	if err := tb.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddHost("b", "00:00:00:00:00:03", "10.0.0.3"); err == nil {
		t.Error("AddHost accepted after build")
	}
	if _, err := tb.AddHostGroup("late", 1); err == nil {
		t.Error("AddHostGroup accepted after build")
	}
	if err := tb.InstallRether([]string{"a"}, RetherConfig{}); err == nil {
		t.Error("InstallRether accepted after build")
	}
	// A single switch or a bus with no host at all still builds.
	for _, m := range []MediumKind{MediumSwitch, MediumBus} {
		empty, err := New(Config{Medium: m})
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := empty.Run(time.Millisecond); err != nil || len(rep.Nodes) != 0 {
			t.Errorf("medium %d with no hosts: %v, %d node rows", m, err, len(rep.Nodes))
		}
	}
}

// TestCheckIsTheBuildPlan: Check is the planning half of build, so for
// every configuration a testbed can be rejected for, Check returns the
// text the first Run fails with, and neither constructs anything. The
// rows New already refuses (it runs the host-independent part of the same
// plan) are staged on a testbed New did hand out, so that Check and Run
// are asked too.
func TestCheckIsTheBuildPlan(t *testing.T) {
	cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
	if err != nil {
		t.Fatal(err)
	}
	ring := &TopologySpec{Kind: TopoRing, Switches: 4} // 4 switches, 4 trunks
	faults := func(f TopologyFaultSpec) Config {
		return Config{Topology: ring, TopologyFaults: []TopologyFaultSpec{{Kind: TrunkUp, At: time.Second}, f}}
	}
	negative := -1.0
	cases := []struct {
		name   string
		cfg    Config
		hosts  int  // generated hosts; 0 with script: the NODE_TABLE's
		script bool // stage quickstart_drop.fsl
		atNew  bool // New refuses it too
		field  string
		want   string
	}{
		{"unknown-medium", Config{Medium: 99}, 2, false, true, "medium",
			"virtualwire: unknown medium 99"},
		{"bus-with-topology", Config{Medium: MediumBus, Topology: ring}, 2, false, true, "medium",
			"virtualwire: topology ring requires a switch medium"},
		{"shard-count", Config{Shards: -2}, 2, false, true, "shards",
			"virtualwire: invalid shard count -2"},
		{"shards-with-trace", Config{Shards: 2, TraceCapacity: 16}, 2, false, true, "shards",
			"virtualwire: TraceCapacity needs one shard, not 2 (the trace buffer is shared across shards)"},
		{"shards-with-sampling", Config{Shards: 4, MetricsSampleInterval: time.Millisecond}, 2, false, true, "shards",
			"virtualwire: MetricsSampleInterval needs one shard, not 4 (sampling gathers cross-shard state mid-run)"},
		{"odd-fattree-k", Config{Topology: &TopologySpec{Kind: TopoFatTree, FatTreeK: 5}}, 4, false, false, "topology.fattree_k",
			"virtualwire: fat-tree arity must be even and between 4 and 64 (got 5)"},
		{"huge-fattree-k", Config{Topology: &TopologySpec{Kind: TopoFatTree, FatTreeK: 1 << 20}}, 4, false, false, "topology.fattree_k",
			"virtualwire: fat-tree arity must be even and between 4 and 64 (got 1048576)"},
		{"huge-ring", Config{Topology: &TopologySpec{Kind: TopoRing, Switches: 1 << 30}}, 4, false, false, "topology",
			"virtualwire: topology ring asks for 1073741824 switches and 0 extra trunks (limit 16384 each)"},
		{"topology-without-hosts", Config{Topology: ring}, 0, false, false, "topology",
			"virtualwire: topology ring needs hosts before build"},
		{"trunk-out-of-range", faults(TopologyFaultSpec{Kind: TrunkDown, Trunk: 4}), 8, false, false, "trunk_faults[1].trunk",
			"virtualwire: topology fault targets trunk 4 (fabric has 4)"},
		{"flap-trunk-negative", faults(TopologyFaultSpec{Kind: TrunkFlap, Trunk: -1}), 8, false, false, "trunk_faults[1].trunk",
			"virtualwire: topology fault targets trunk -1 (fabric has 4)"},
		{"switch-out-of-range", faults(TopologyFaultSpec{Kind: SwitchDown, Switch: 99}), 8, false, false, "trunk_faults[1].switch",
			"virtualwire: topology fault targets switch 99 (fabric has 4)"},
		{"negative-fault-time", faults(TopologyFaultSpec{Kind: TrunkDown, At: -time.Millisecond}), 8, false, false, "trunk_faults[1].at",
			"virtualwire: topology fault 1 at negative time -1ms"},
		{"unknown-fault-kind", faults(TopologyFaultSpec{Kind: 42}), 8, false, false, "trunk_faults[1].kind",
			"virtualwire: topology fault 1 has unknown kind 42"},
		{"degrade-overrides-nothing", faults(TopologyFaultSpec{Kind: TrunkDegrade}), 8, false, false, "trunk_faults[1]",
			"virtualwire: trunk_degrade fault 1 overrides neither Propagation nor BitErrorRate"},
		{"degrade-negative-ber", faults(TopologyFaultSpec{Kind: TrunkDegrade, BitErrorRate: &negative}), 8, false, false, "trunk_faults[1].bit_error_rate",
			"virtualwire: trunk_degrade fault 1 has negative BitErrorRate"},
		{"flap-cycles", faults(TopologyFaultSpec{Kind: TrunkFlap, Count: 1 << 40}), 8, false, false, "trunk_faults[1].count",
			"virtualwire: trunk_flap fault 1 has 1099511627776 cycles (limit 65536)"},
		{"faults-without-topology", Config{TopologyFaults: []TopologyFaultSpec{{Kind: TrunkDown}}}, 2, false, false, "trunk_faults",
			"virtualwire: TopologyFaults require a multi-switch Topology"},
		{"control-node-not-in-script", Config{ControlNode: "nobody"}, 0, true, false, "",
			`virtualwire: control node "nobody" not in script`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if tc.atNew != (err != nil) || (err != nil && err.Error() != tc.want) {
				t.Errorf("New: %v, want rejected=%v with %q", err, tc.atNew, tc.want)
			}
			tb, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			tb.cfg = tc.cfg
			if tb.cfg.Medium == 0 {
				tb.cfg.Medium = MediumSwitch
			}
			if tc.hosts > 0 {
				addGroupHosts(t, tb, tc.hosts)
			}
			if tc.script {
				if err := tb.AddNodesFromCompiled(cs); err != nil {
					t.Fatal(err)
				}
				if err := tb.LoadCompiled(cs); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ { // Check is repeatable: it stages nothing
				err := tb.Check()
				if err == nil || err.Error() != tc.want {
					t.Fatalf("Check: %v, want %q", err, tc.want)
				}
				var member interface{ Field() string }
				if tc.field != "" && (!errors.As(err, &member) || member.Field() != tc.field) {
					t.Errorf("Check names member %v, want %q", member, tc.field)
				}
			}
			if tb.FabricSwitches() != 0 || tb.shards != nil || tb.built || tb.buildErr != nil {
				t.Error("Check constructed or sealed something")
			}
			if _, err := tb.Run(time.Millisecond); err == nil || err.Error() != tc.want {
				t.Errorf("Run: %v, want what Check said: %q", err, tc.want)
			}
			if tb.FabricSwitches() != 0 || tb.shards != nil || tb.nodes != nil && tb.nodes[0].host != nil {
				t.Error("the failed build constructed something")
			}
		})
	}

	// What Check accepts, build constructs — and Check leaves it all to build.
	tb, err := New(faults(TopologyFaultSpec{Kind: TrunkFlap, Trunk: 3, Count: 2}))
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 8)
	if err := tb.Check(); err != nil || tb.FabricSwitches() != 0 || tb.shards != nil {
		t.Fatalf("Check on a buildable testbed: %v (%d switches built)", err, tb.FabricSwitches())
	}
	if _, err := tb.Run(time.Millisecond); err != nil || tb.FabricSwitches() != 4 {
		t.Fatalf("Run after Check: %v, %d switches", err, tb.FabricSwitches())
	}
	if err := tb.Check(); err != nil {
		t.Errorf("Check on a built testbed: %v", err)
	}
}
