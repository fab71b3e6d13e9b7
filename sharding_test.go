package virtualwire

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// shardTopologies are the fabric shapes the identity property sweeps:
// every kind exercises a different trunk pattern (hub-and-spoke, a
// blocked redundant trunk, multi-stage up/down paths).
var shardTopologies = []struct {
	name  string
	spec  TopologySpec
	hosts int
}{
	{"star", TopologySpec{Kind: TopoStar, Switches: 4}, 24},
	{"ring", TopologySpec{Kind: TopoRing, Switches: 4}, 24},
	{"fattree", TopologySpec{Kind: TopoFatTree, FatTreeK: 4}, 16},
}

// shardedManyFlowReport builds a scriptless fabric testbed at the given
// shard count, drives a ManyFlow mesh across it and returns the
// RunReport bytes.
func shardedManyFlowReport(t *testing.T, spec TopologySpec, hosts int, seed int64, shards int) []byte {
	t.Helper()
	topo := spec
	tb, err := New(Config{Seed: seed, Shards: shards, Topology: &topo})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, hosts)
	mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: hosts / 2, Bytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tb.Run(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Completed() != mf.Flows() {
		t.Fatalf("seed %d shards %d: flows completed %d/%d (failed %d)",
			seed, shards, mf.Completed(), mf.Flows(), mf.Failed())
	}
	return reportBytes(t, rep)
}

// TestShardedMatchesSerialAcrossSeeds is the tentpole property: the
// windowed engine produces byte-identical RunReports at 1, 2 and 4
// shards, across 100+ (seed, topology) combinations. Shard count only
// chooses which goroutine executes which switch's events; nothing
// observable may depend on it.
func TestShardedMatchesSerialAcrossSeeds(t *testing.T) {
	seedCount := 36
	if testing.Short() {
		seedCount = 4
	}
	for _, topo := range shardTopologies {
		t.Run(topo.name, func(t *testing.T) {
			for i := 0; i < seedCount; i++ {
				seed := int64(i*7919 + 13)
				serial := shardedManyFlowReport(t, topo.spec, topo.hosts, seed, 1)
				for _, shards := range []int{2, 4} {
					got := shardedManyFlowReport(t, topo.spec, topo.hosts, seed, shards)
					if !bytes.Equal(got, serial) {
						t.Fatalf("seed %d: %d-shard report diverges from serial\nserial:\n%s\nsharded:\n%s",
							seed, shards, serial, got)
					}
				}
			}
		})
	}
}

// TestShardedScriptedMatchesSerial covers the control plane: a scripted
// scenario (controller launch, INIT distribution, fault injection,
// verdict) over a two-edge star, with the client and server on
// different shards.
func TestShardedScriptedMatchesSerial(t *testing.T) {
	script := readScript(t, "quickstart_drop.fsl")
	cs, err := CompileScript(script)
	if err != nil {
		t.Fatal(err)
	}
	seedCount := 10
	if testing.Short() {
		seedCount = 3
	}
	run := func(seed int64, shards int) []byte {
		topo := TopologySpec{Kind: TopoStar, Switches: 2}
		tb := buildQuickstart(t, cs, Config{Seed: seed, Shards: shards, Topology: &topo})
		addQuickstartBulk(t, tb)
		rep, err := tb.Run(resetTestHorizon)
		if err != nil {
			t.Fatalf("seed %d shards %d: %v", seed, shards, err)
		}
		if !rep.Passed {
			t.Fatalf("seed %d shards %d: scenario failed: %+v", seed, shards, rep.Result)
		}
		return reportBytes(t, rep)
	}
	for i := 0; i < seedCount; i++ {
		seed := int64(i*104729 + 7)
		serial := run(seed, 1)
		if got := run(seed, 2); !bytes.Equal(got, serial) {
			t.Fatalf("seed %d: 2-shard scripted report diverges from serial\nserial:\n%s\nsharded:\n%s",
				seed, serial, got)
		}
	}
}

// TestShardedWorkloadsMatchSerial sweeps the remaining workload kinds
// (TCP bulk with pacing, UDP echo, UDP stream, incast) on a star fabric,
// then the two kinds of testbed that only ever run as one shard: a bus
// carrying Rether, and a traced and sampled run. Every case must give
// the same bytes at one shard and at its wide setting, and a testbed
// Reset to the seed must give the bytes of one built fresh under it.
func TestShardedWorkloadsMatchSerial(t *testing.T) {
	const seed = 21
	// wideOr1 is a case's shard setting: wide, or 1.
	wideOr1 := func(wide bool, count int) int {
		if wide {
			return count
		}
		return 1
	}
	star := func(t *testing.T, seed int64, wide bool) (*Testbed, []*Node) {
		tb, err := New(Config{
			Seed: seed, Shards: wideOr1(wide, 4),
			Topology: &TopologySpec{Kind: TopoStar, Switches: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tb, addGroupHosts(t, tb, 16)
	}
	udpStream := func(t *testing.T, tb *Testbed, nodes []*Node) {
		if _, err := tb.AddUDPStream(UDPStreamConfig{
			From: nodes[0].Name(), To: nodes[1].Name(),
			Port: 0x5400, Count: 50,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]struct {
		// build returns a testbed at one shard or at the case's wide
		// setting.
		build func(t *testing.T, seed int64, wide bool) (*Testbed, []*Node)
		load  func(t *testing.T, tb *Testbed, nodes []*Node)
		// after checks what the report bytes do not carry.
		after func(t *testing.T, tb *Testbed, rep RunReport)
	}{
		"tcpbulk-paced": {build: star, load: func(t *testing.T, tb *Testbed, nodes []*Node) {
			if _, err := tb.AddTCPBulk(TCPBulkConfig{
				From: nodes[0].Name(), To: nodes[1].Name(),
				SrcPort: 0x6000, DstPort: 0x4000,
				RateBitsPerSecond: 2e6, Duration: 200 * time.Millisecond,
				CloseWhenDone: true,
			}); err != nil {
				t.Fatal(err)
			}
		}},
		"udpecho": {build: star, load: func(t *testing.T, tb *Testbed, nodes []*Node) {
			if _, err := tb.AddUDPEcho(UDPEchoConfig{
				Client: nodes[0].Name(), Server: nodes[1].Name(),
				ServerPort: 0x5300, Count: 50,
			}); err != nil {
				t.Fatal(err)
			}
		}},
		"udpstream": {build: star, load: udpStream},
		"incast": {build: star, load: func(t *testing.T, tb *Testbed, nodes []*Node) {
			if _, err := tb.AddIncast(IncastConfig{Bytes: 4 << 10}); err != nil {
				t.Fatal(err)
			}
		}},
		// A bus is one segment: any shard count builds it as one shard.
		"bus-rether": {
			build: func(t *testing.T, seed int64, wide bool) (*Testbed, []*Node) {
				tb, err := New(Config{Seed: seed, Shards: wideOr1(wide, 4), Medium: MediumBus})
				if err != nil {
					t.Fatal(err)
				}
				nodes := addGroupHosts(t, tb, 4)
				var ring []string
				for _, n := range nodes {
					ring = append(ring, n.Name())
				}
				if err := tb.InstallRether(ring, RetherConfig{}); err != nil {
					t.Fatal(err)
				}
				return tb, nodes
			},
			load: func(t *testing.T, tb *Testbed, nodes []*Node) {
				if _, err := tb.AddTCPBulk(TCPBulkConfig{
					From: nodes[0].Name(), To: nodes[3].Name(),
					SrcPort: 0x6000, DstPort: 0x4000, Bytes: 64 << 10,
				}); err != nil {
					t.Fatal(err)
				}
			},
			after: func(t *testing.T, tb *Testbed, rep RunReport) {
				if tb.shards.count != 1 {
					t.Fatalf("bus built %d shards, want 1", tb.shards.count)
				}
				if rep.Metrics.Totals["rether/tokens_sent"] == 0 {
					t.Fatal("no Rether token was sent")
				}
			},
		},
		// The trace buffer and the sampler are shared state: a fabric
		// that uses them runs as one shard, which ShardsAuto resolves to.
		"traced-sampled": {
			build: func(t *testing.T, seed int64, wide bool) (*Testbed, []*Node) {
				tb, err := New(Config{
					Seed: seed, Shards: wideOr1(wide, ShardsAuto),
					TraceCapacity: 256, MetricsSampleInterval: 5 * time.Millisecond,
					Topology: &TopologySpec{Kind: TopoStar, Switches: 4},
				})
				if err != nil {
					t.Fatal(err)
				}
				return tb, addGroupHosts(t, tb, 16)
			},
			load: udpStream,
			after: func(t *testing.T, tb *Testbed, _ RunReport) {
				if tb.shards.count != 1 {
					t.Fatalf("traced fabric built %d shards, want 1", tb.shards.count)
				}
				if len(tb.Trace()) == 0 {
					t.Fatal("trace is empty")
				}
				if len(tb.MetricsSeries().Points) == 0 {
					t.Fatal("no metrics point was sampled")
				}
			},
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(tb *Testbed, nodes []*Node) []byte {
				c.load(t, tb, nodes)
				rep, err := tb.Run(2 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if c.after != nil {
					c.after(t, tb, rep)
				}
				return reportBytes(t, rep)
			}
			serial := run(c.build(t, seed, false))
			if got := run(c.build(t, seed, true)); !bytes.Equal(got, serial) {
				t.Fatalf("wide report diverges from one shard\none shard:\n%s\nwide:\n%s", serial, got)
			}
			reused, nodes := c.build(t, seed+1, true)
			run(reused, nodes)
			if err := reused.Reset(seed); err != nil {
				t.Fatal(err)
			}
			if got := run(reused, nodes); !bytes.Equal(got, serial) {
				t.Fatalf("run after Reset diverges from a fresh testbed\nfresh:\n%s\nreset:\n%s", serial, got)
			}
		})
	}
}

// TestShardedResetKeepsTopologyState extends the reset invariants to
// sharded fabrics: across Reset cycles on a ring (which carries one
// redundant, spanning-tree-blocked trunk), the blocked trunk stays
// blocked, every trunk mailbox drains empty, the rewind allocates
// nothing, and the re-run stays byte-identical to the first.
func TestShardedResetKeepsTopologyState(t *testing.T) {
	topo := TopologySpec{Kind: TopoRing, Switches: 4}
	tb, err := New(Config{Seed: 31, Shards: 4, Topology: &topo})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 24)
	addLoad := func() *ManyFlow {
		mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: 12, Bytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return mf
	}
	addLoad()
	first, err := tb.Run(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, first)
	if tb.blockedTrunks() != 1 {
		t.Fatalf("ring blocked trunks = %d, want 1", tb.blockedTrunks())
	}
	for cycle := 0; cycle < 3; cycle++ {
		if allocs := testing.AllocsPerRun(5, func() {
			if err := tb.Reset(31); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("cycle %d: sharded Reset allocates %.0f objects per run, want 0", cycle, allocs)
		}
		if tb.blockedTrunks() != 1 {
			t.Fatalf("cycle %d: blocked trunk count changed to %d", cycle, tb.blockedTrunks())
		}
		for i, tr := range tb.trunks {
			if n := tr.ch.PendingDeposits(); n != 0 {
				t.Fatalf("cycle %d: trunk channel %d holds %d undrained deposits after Reset", cycle, i, n)
			}
		}
		mf := addLoad()
		rep, err := tb.Run(3 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if mf.Completed() != mf.Flows() {
			t.Fatalf("cycle %d: flows completed %d/%d", cycle, mf.Completed(), mf.Flows())
		}
		if got := reportBytes(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: re-run after Reset diverged from first run", cycle)
		}
	}
}

// TestShardedRunForAndAuto covers the remaining entry points: RunFor
// drives the windowed engine without a controller, ShardsAuto resolves
// to a legal count, and a single-switch testbed accepts Shards >= 1 by
// collapsing to one shard.
func TestShardedRunForAndAuto(t *testing.T) {
	topo := TopologySpec{Kind: TopoStar, Switches: 4}
	tb, err := New(Config{Seed: 3, Shards: ShardsAuto, Topology: &topo})
	if err != nil {
		t.Fatal(err)
	}
	addGroupHosts(t, tb, 8)
	if _, err := tb.AddUDPStream(UDPStreamConfig{
		From: "h0001", To: "h0008", Port: 0x5400, Count: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tb.shards.count; got < 1 || got > 4 {
		t.Fatalf("auto shard count = %d, want 1..4", got)
	}

	// Single switch: the windowed engine with no trunks, driven by RunFor.
	single, err := New(Config{Seed: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.AddHostGroup("h", 4); err != nil {
		t.Fatal(err)
	}
	if err := single.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if single.shards.count != 1 {
		t.Fatalf("single-switch shard count = %d, want 1", single.shards.count)
	}
	if got, want := single.sched.Now(), 50*time.Millisecond; got != want {
		t.Fatalf("RunFor left the clock at %v, want %v", got, want)
	}
}

// TestShardConfigValidation pins what New rejects and what it resolves:
// only a shard count that is no count, or more than one shard with the
// trace buffer or the sampler they would share.
func TestShardConfigValidation(t *testing.T) {
	star := &TopologySpec{Kind: TopoStar, Switches: 4}
	bad := []Config{
		{Shards: -2},
		{Shards: 2, TraceCapacity: 64},
		{Shards: 2, MetricsSampleInterval: time.Millisecond, Topology: star},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
	oneShard := []Config{
		{Shards: 4, Medium: MediumBus},
		{Shards: 4},
		{Shards: ShardsAuto, TraceCapacity: 64, Topology: star},
		{Shards: ShardsAuto, MetricsSampleInterval: time.Millisecond, Topology: star},
		{TraceCapacity: 64, MetricsSampleInterval: time.Millisecond, Topology: star},
		{Shards: 1, TraceCapacity: 64, Topology: star},
	}
	for _, cfg := range oneShard {
		tb, err := New(cfg)
		if err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		addGroupHosts(t, tb, 8)
		if err := tb.RunFor(time.Millisecond); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		if tb.shards.count != 1 {
			t.Fatalf("config %+v built %d shards, want 1", cfg, tb.shards.count)
		}
	}
}

// TestComponentSourceStream pins the per-component generator: PCG's
// stream is defined by its 128-bit state alone, so the first outputs
// for a seed are the same on every platform and Go release — the
// determinism contracts of the windowed engine rest on that — and
// reseeding in place (what Reset does) is indistinguishable from a fresh
// source, including through rand.Rand's own cached state.
func TestComponentSourceStream(t *testing.T) {
	pinned := map[int64][8]uint64{
		1: {0x9927a129abed2903, 0x16d0078c4a605356, 0xb7219997bcc14af2, 0x60fa9ae9e1453f8,
			0xb398002335b9b38c, 0x8e32528bbc6b0984, 0xcf83b14f56c50826, 0x97202e68d0cfef14},
		-0x123456789abcdef: {0x86f51a1733697347, 0x914322e2bfc65b84, 0xce60a9524558659c, 0xe6d4f2054518e171,
			0x7565e6985bdb3610, 0xa68a45f8d57f9eff, 0x914a8008bd9ce5a7, 0x65028ad989c9772},
	}
	reused := rand.New(new(pcgSource))
	for seed, want := range pinned {
		src := new(pcgSource)
		src.Seed(seed)
		for i, w := range want {
			if got := src.Uint64(); got != w {
				t.Fatalf("seed %d output %d = %#x, want %#x", seed, i, got, w)
			}
		}
		// A generator that has drawn through every rand.Rand path, then
		// was reseeded, against a fresh one.
		reused.Intn(7)
		reused.Float64()
		reused.Read(make([]byte, 3)) // leaves Rand's byte cache half used
		reused.Seed(seed)
		fresh := rand.New(new(pcgSource))
		fresh.Seed(seed)
		for i := 0; i < 64; i++ {
			if a, b := reused.Int63(), fresh.Int63(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %#x, fresh %#x", seed, i, a, b)
			}
		}
		buf1, buf2 := make([]byte, 5), make([]byte, 5)
		reused.Read(buf1)
		fresh.Read(buf2)
		if !bytes.Equal(buf1, buf2) {
			t.Fatalf("seed %d: Read after reseed %x, fresh %x", seed, buf1, buf2)
		}
	}
}

// TestShardedBitErrorsMatchSerialAndFresh runs the two relative
// determinism contracts where the component generators actually draw: a
// fat-tree with a bit error rate high enough that frames are corrupted
// on host segments and trunks alike. Reports must be byte-identical at
// 1, 2 and 4 shards, and a testbed Reset to a seed must match one built
// fresh under it.
func TestShardedBitErrorsMatchSerialAndFresh(t *testing.T) {
	const hosts, ber = 16, 2e-6
	build := func(seed int64, shards int) *Testbed {
		tb, err := New(Config{
			Seed: seed, Shards: shards, BitErrorRate: ber,
			Topology: &TopologySpec{Kind: TopoFatTree, FatTreeK: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		addGroupHosts(t, tb, hosts)
		return tb
	}
	run := func(tb *Testbed) []byte {
		if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: hosts / 2, Bytes: 32 << 10}); err != nil {
			t.Fatal(err)
		}
		rep, err := tb.Run(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics.Totals["nic/crc_errors"] == 0 {
			t.Fatal("no frame was corrupted: the component generators never drew")
		}
		return reportBytes(t, rep)
	}
	seeds := []int64{3, 1009, 77777}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		serial := run(build(seed, 1))
		for _, shards := range []int{2, 4} {
			if got := run(build(seed, shards)); !bytes.Equal(got, serial) {
				t.Fatalf("seed %d: %d-shard report diverges from serial under bit errors", seed, shards)
			}
		}
		reused := build(seed+1, 2)
		run(reused)
		if err := reused.Reset(seed); err != nil {
			t.Fatal(err)
		}
		if got := run(reused); !bytes.Equal(got, serial) {
			t.Fatalf("seed %d: run after Reset diverges from a fresh testbed under bit errors", seed)
		}
	}
}
