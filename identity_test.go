package virtualwire

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// The identity table: every determinism contract of the facade, over
// every scenario that can carry it. A row is a scenario — a testbed
// shape, its workload and the seeds it runs under. A column is a
// contract: a change to how the testbed is built or driven that must not
// move one byte of its RunReport. Each column is one Test function, named
// for its contract, with a subtest per row. Every cell is compared with
// the row's baseline — a fresh testbed at the row's own configuration,
// run under the seed — which is computed once per (row, seed) and shared
// by every column. A new scenario is a row of identityRows; a new
// contract is a column.

// identityRow is one scenario of the table.
type identityRow struct {
	name    string
	cfg     Config // the harness sets Seed; a column may change Shards or Topology
	seeds   []int64
	horizon time.Duration
	// stage declares the testbed's hosts, script and layers; arm adds the
	// workload before every run and returns that run's check, or nil.
	stage func(t *testing.T, tb *Testbed)
	arm   func(t *testing.T, tb *Testbed) func(t *testing.T, rep RunReport)
	// repro is printed with a divergence: a generated row's schedule.
	repro string
	// family picks the shard column's Test function: "" for the
	// scenarios, "workload" for the star and bus workloads, "topofault"
	// for the fabric fault schedules.
	family string
}

// fabric rows run on a multi-switch topology.
func (r *identityRow) fabric() bool {
	return r.cfg.Topology != nil && r.cfg.Topology.Kind != TopoSingle
}

// wide rows take any shard count: a fabric or a bus, with no trace
// buffer or sampler to hold them to one shard.
func (r *identityRow) wide() bool {
	return (r.fabric() || r.cfg.Medium == MediumBus) && r.cfg.TraceCapacity == 0 && r.cfg.MetricsSampleInterval == 0
}

// singleSwitch rows run on the default single switch.
func (r *identityRow) singleSwitch() bool {
	return r.cfg.Topology == nil && r.cfg.Medium != MediumBus && r.cfg.Shards == 0
}

// build declares the row's testbed under seed; change, when set, is the
// column's transform of the configuration.
func (r *identityRow) build(t *testing.T, seed int64, change func(*Config)) *Testbed {
	t.Helper()
	cfg := r.cfg
	cfg.Seed = seed
	if change != nil {
		change(&cfg)
	}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.stage(t, tb)
	return tb
}

// run is the table's one byte producer: arm the workload, run to the
// horizon (through RunContext when viaCtx), check, encode.
func (r *identityRow) run(t *testing.T, tb *Testbed, viaCtx bool) []byte {
	t.Helper()
	check := r.arm(t, tb)
	var rep RunReport
	var err error
	if viaCtx {
		rep, err = tb.RunContext(context.Background(), r.horizon)
	} else {
		rep, err = tb.Run(r.horizon)
	}
	if err != nil {
		t.Fatal(err)
	}
	if check != nil {
		check(t, rep)
	}
	return reportBytes(t, rep)
}

// identityBaselines memoizes baseline by row name and seed.
var identityBaselines = map[string][]byte{}

func (r *identityRow) baseline(t *testing.T, seed int64) []byte {
	t.Helper()
	key := fmt.Sprintf("%s/%d", r.name, seed)
	if b, ok := identityBaselines[key]; ok {
		return b
	}
	b := r.run(t, r.build(t, seed, nil), false)
	identityBaselines[key] = b
	return b
}

// variant is a column's cell at each of seeds: a fresh testbed under
// change, run (through RunContext when viaCtx), against the baseline.
func (r *identityRow) variant(t *testing.T, column string, seeds []int64, change func(*Config), viaCtx bool) {
	t.Helper()
	for _, seed := range seeds {
		got := r.run(t, r.build(t, seed, change), viaCtx)
		assertSameBytes(t, r, column, seed, got)
	}
}

// assertSameBytes fails the cell unless got is the row's baseline for
// seed, naming the first report line that differs.
func assertSameBytes(t *testing.T, r *identityRow, column string, seed int64, got []byte) {
	t.Helper()
	want := r.baseline(t, seed)
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	i := 0
	for i < len(wl) && i < len(gl) && bytes.Equal(wl[i], gl[i]) {
		i++
	}
	line := func(ls [][]byte) []byte {
		if i < len(ls) {
			return ls[i]
		}
		return []byte("(end of report)")
	}
	t.Fatalf("row %s, column %s, seed %d: report line %d differs\nbaseline: %s\n     got: %s%s",
		r.name, column, seed, i+1, line(wl), line(gl), r.repro)
}

// TestResetMatchesFreshAcrossSeeds: one testbed, run under another seed
// and then Reset to each of the row's seeds in turn, gives a fresh
// testbed's bytes. The rewind allocates nothing, leaves no trunk mailbox
// holding a frame, and restores every trunk to its build-time state. Wide
// rows are rewound at four shards.
func TestResetMatchesFreshAcrossSeeds(t *testing.T) {
	eachIdentityRow(t, nil, func(t *testing.T, r *identityRow) {
		tb := r.build(t, r.seeds[len(r.seeds)-1]+1, func(c *Config) {
			if r.wide() {
				c.Shards = 4
			}
		})
		if err := tb.build(); err != nil {
			t.Fatal(err)
		}
		pristine := trunkStatuses(t, tb)
		r.run(t, tb, false)
		for _, seed := range r.seeds {
			if allocs := testing.AllocsPerRun(1, func() {
				if err := tb.Reset(seed); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("seed %d: Reset allocates %.0f objects", seed, allocs)
			}
			for i, st := range trunkStatuses(t, tb) {
				if st != pristine[i] {
					t.Fatalf("seed %d: trunk %d after Reset is %+v, built %+v", seed, i, st, pristine[i])
				}
				if n := tb.trunks[i].ch.PendingDeposits(); n != 0 {
					t.Fatalf("seed %d: trunk %d holds %d undrained deposits after Reset", seed, i, n)
				}
			}
			assertSameBytes(t, r, "reset", seed, r.run(t, tb, false))
		}
	})
}

// The shard column: a fabric gives the same bytes at 1, 2 and 4 shards
// as at the default — the partition only chooses which goroutine executes
// which switch's events — a bus, one segment, builds one shard at any
// count, and a traced or sampled fabric, held to one shard, gives the
// default's bytes under ShardsAuto. It runs as one Test per row family.
func shardColumn(t *testing.T, family string) {
	applies := func(r *identityRow) bool { return r.family == family && (r.wide() || r.fabric()) }
	eachIdentityRow(t, applies, func(t *testing.T, r *identityRow) {
		if !r.wide() {
			r.variant(t, "shards=auto", r.seeds, func(c *Config) { c.Shards = ShardsAuto }, false)
			return
		}
		counts := []int{1, 2, 4}
		if !r.fabric() {
			counts = counts[2:]
		}
		for _, k := range counts {
			r.variant(t, fmt.Sprintf("shards=%d", k), r.seeds, func(c *Config) { c.Shards = k }, false)
		}
	})
}

// TestShardedMatchesSerialAcrossSeeds is the shard column over the
// scenario rows.
func TestShardedMatchesSerialAcrossSeeds(t *testing.T) { shardColumn(t, "") }

// TestShardedWorkloadsMatchSerial is the shard column over the workload
// rows.
func TestShardedWorkloadsMatchSerial(t *testing.T) { shardColumn(t, "workload") }

// TestTopologyFaultShardIdentity is the shard column over the fixed and
// generated topology-fault rows.
func TestTopologyFaultShardIdentity(t *testing.T) { shardColumn(t, "topofault") }

// TestShardsAutoMatchesSerial: whatever count ShardsAuto resolves a
// fabric to on this machine, the bytes are the default's.
func TestShardsAutoMatchesSerial(t *testing.T) {
	eachIdentityRow(t, (*identityRow).fabric, func(t *testing.T, r *identityRow) {
		r.variant(t, "shards=auto", r.seeds, func(c *Config) { c.Shards = ShardsAuto }, false)
	})
}

// TestSingleSwitchIsTheOneSwitchFabric: no Topology, TopoSingle and an
// explicit shard count over a single switch are one testbed — one switch,
// no trunk, one shard, "switch/" rows and no "fabric/" ones — and print
// the same report.
func TestSingleSwitchIsTheOneSwitchFabric(t *testing.T) {
	eachIdentityRow(t, (*identityRow).singleSwitch, func(t *testing.T, r *identityRow) {
		for _, seed := range r.seeds {
			for column, change := range map[string]func(*Config){
				"config{}":       nil,
				"topo=single":    func(c *Config) { c.Topology = &TopologySpec{Kind: TopoSingle} },
				"shards=4,alone": func(c *Config) { c.Shards = 4 },
			} {
				tb := r.build(t, seed, change)
				got := r.run(t, tb, false)
				if tb.FabricSwitches() != 1 || tb.TrunkCount() != 0 || tb.shards.count != 1 {
					t.Fatalf("%s: %d switches, %d trunks, %d shards, want 1, 0, 1",
						column, tb.FabricSwitches(), tb.TrunkCount(), tb.shards.count)
				}
				if !bytes.Contains(got, []byte(`"switch/forwarded_frames"`)) || bytes.Contains(got, []byte(`"fabric/`)) {
					t.Fatalf("%s: report does not carry the single switch's rows", column)
				}
				assertSameBytes(t, r, column, seed, got)
			}
		}
	})
}

// TestRunMatchesRunContextBackground: Run is RunContext with a context
// that never ends, at each row's first seed.
func TestRunMatchesRunContextBackground(t *testing.T) {
	eachIdentityRow(t, nil, func(t *testing.T, r *identityRow) {
		r.variant(t, "runcontext", r.seeds[:1], nil, true)
	})
}

// eachIdentityRow runs f as a subtest per row that applies.
func eachIdentityRow(t *testing.T, applies func(*identityRow) bool, f func(t *testing.T, r *identityRow)) {
	for _, r := range identityRows(t) {
		if applies == nil || applies(&r) {
			t.Run(r.name, func(t *testing.T) { f(t, &r) })
		}
	}
}

// trunkStatuses is every trunk's live state, in wiring order.
func trunkStatuses(t *testing.T, tb *Testbed) []TrunkStatus {
	t.Helper()
	out := make([]TrunkStatus, tb.TrunkCount())
	for i := range out {
		st, err := tb.TrunkStatus(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st
	}
	return out
}

// short is seeds, cut to the first n under -short.
func short(seeds []int64, n int) []int64 {
	if testing.Short() && len(seeds) > n {
		return seeds[:n]
	}
	return seeds
}

// seedsOf is n seeds i*stride+offset, cut to m under -short.
func seedsOf(n, m int, stride, offset int64) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i)*stride + offset
	}
	return short(seeds, m)
}

var (
	ring4    = TopologySpec{Kind: TopoRing, Switches: 4}
	fatTree4 = TopologySpec{Kind: TopoFatTree, FatTreeK: 4}
)

// topoFaultRow is a ManyFlow mesh of hosts/2 flows of bytes each over a
// fabric under a fault schedule, run under one seed.
type topoFaultRow struct {
	name    string
	topo    TopologySpec
	hosts   int
	seed    int64
	bytes   int
	horizon time.Duration
	faults  []TopologyFaultSpec
}

// topoFaultRows are the fabric fault schedules of the table: a tree-trunk
// kill with failover on the ring, a kill plus a flapping redundant trunk,
// a fat-tree uplink kill with multipath redundancy, and a ring kill, flap
// and degrade whose Reset must restore the build-time tree. A generated
// schedule that diverges prints itself in this form.
var topoFaultRows = []topoFaultRow{
	{"ring-kill", ring4, 24, 13, 2 << 10, 3 * time.Second,
		[]TopologyFaultSpec{{Kind: TrunkDown, Trunk: 0, At: 100 * time.Millisecond}}},
	{"ring-kill-flap", ring4, 24, 13, 2 << 10, 3 * time.Second, []TopologyFaultSpec{
		{Kind: TrunkDown, Trunk: 1, At: 80 * time.Millisecond},
		{Kind: TrunkFlap, Trunk: 3, At: 200 * time.Millisecond, Period: 100 * time.Millisecond, Count: 3}}},
	{"fattree-kill-degrade", fatTree4, 16, 13, 2 << 10, 3 * time.Second, []TopologyFaultSpec{
		{Kind: TrunkDown, Trunk: 0, At: 100 * time.Millisecond},
		{Kind: TrunkDegrade, Trunk: 2, At: 150 * time.Millisecond, Propagation: 20 * time.Microsecond}}},
	{"ring-kill-flap-degrade", ring4, 24, 17, 2 << 10, 2 * time.Second, []TopologyFaultSpec{
		{Kind: TrunkDown, Trunk: 0, At: 100 * time.Millisecond},
		{Kind: TrunkFlap, Trunk: 1, At: 300 * time.Millisecond, Period: 120 * time.Millisecond, Count: 2},
		{Kind: TrunkDegrade, Trunk: 3, At: 150 * time.Millisecond, Propagation: 30 * time.Microsecond}}},
}

// generatedFaults derives a topology fault schedule from seed: one to
// three trunk kills, flaps and degrades over a fabric of the given trunk
// count, early enough to land among the flows.
func generatedFaults(seed int64, trunks int) []TopologyFaultSpec {
	rng := rand.New(rand.NewSource(seed))
	faults := make([]TopologyFaultSpec, 1+rng.Intn(3))
	for i := range faults {
		f := TopologyFaultSpec{Trunk: rng.Intn(trunks), At: time.Duration(1+rng.Intn(20)) * time.Millisecond}
		switch rng.Intn(3) {
		case 0:
			f.Kind = TrunkDown
		case 1:
			f.Kind = TrunkFlap
			f.Period = time.Duration(2+rng.Intn(20)) * time.Millisecond
			f.Count = 1 + rng.Intn(3)
		default:
			f.Kind = TrunkDegrade
			f.Propagation = time.Duration(5+rng.Intn(46)) * time.Microsecond
		}
		faults[i] = f
	}
	return faults
}

// faultsLiteral writes a schedule as the Go source of a topoFaultRows
// entry's faults.
func faultsLiteral(faults []TopologyFaultSpec) string {
	kinds := map[TopologyFaultKind]string{TrunkDown: "TrunkDown", TrunkFlap: "TrunkFlap", TrunkDegrade: "TrunkDegrade"}
	var b strings.Builder
	b.WriteString("[]TopologyFaultSpec{")
	for i, f := range faults {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "{Kind: %s, Trunk: %d, At: %d * time.Millisecond", kinds[f.Kind], f.Trunk, f.At/time.Millisecond)
		if f.Kind == TrunkFlap {
			fmt.Fprintf(&b, ", Period: %d * time.Millisecond, Count: %d", f.Period/time.Millisecond, f.Count)
		}
		if f.Kind == TrunkDegrade {
			fmt.Fprintf(&b, ", Propagation: %d * time.Microsecond", f.Propagation/time.Microsecond)
		}
		b.WriteString("}")
	}
	return b.String() + "}"
}

// fabricManyFlowRow is fabric_manyflow's fabric and load (1000-host
// fat-tree, 10 µs trunks, 100 flows of 16 KiB), whose check pins the
// sharding decision's count at seed 1. Every shard count runs the same 749
// windows and 333 509 events; the busiest shard of each window executes,
// summed, 195 955 events at 2 shards and 125 520 at 4. Events over that
// sum is the parallelism bound, 1.702 and 2.657: no machine runs the
// partition faster, and 2.657 clears the 1.8x a speed-up gate would ask of
// four shards, so what separates the engine from that gate is barrier
// cost (docs/PERFORMANCE.md, "Sharded execution").
func fabricManyFlowRow() identityRow {
	busiest := map[int]uint64{1: 333509, 2: 195955, 4: 125520}
	return identityRow{name: "fabric-manyflow", seeds: []int64{1}, horizon: 5 * time.Second,
		cfg:   Config{Topology: &TopologySpec{Kind: TopoFatTree, TrunkPropagation: 10 * time.Microsecond}},
		stage: func(t *testing.T, tb *Testbed) { addGroupHosts(t, tb, 1000) },
		arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
			mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: 100, Bytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T, rep RunReport) {
				if mf.Completed() != 100 {
					t.Fatalf("%d of 100 flows completed", mf.Completed())
				}
				k := tb.shards.count
				windows, most := tb.shards.set.Windows()
				if want, ok := busiest[k]; rep.Seed == 1 && (windows != 749 || rep.Events != 333509 || ok && most != want) {
					t.Fatalf("%d shards: %d windows, %d events, busiest shards %d; want 749, 333509, %d",
						k, windows, rep.Events, most, want)
				}
			}
		},
	}
}

// quickstartCS is quickstart_drop.fsl, compiled once for every row.
var quickstartCS *CompiledScript

// identityRows is the table. Seed counts fall under -short.
func identityRows(t *testing.T) []identityRow {
	t.Helper()
	if quickstartCS == nil {
		cs, err := CompileScript(readScript(t, "quickstart_drop.fsl"))
		if err != nil {
			t.Fatal(err)
		}
		quickstartCS = cs
	}
	// quickstart: the drop-the-fifth-segment script over a 16 KiB
	// transfer; rether runs a token ring under it.
	quickstart := func(name string, cfg Config, seeds []int64, horizon time.Duration, rether bool) identityRow {
		return identityRow{name: name, cfg: cfg, seeds: seeds, horizon: horizon,
			stage: func(t *testing.T, tb *Testbed) {
				if err := tb.AddNodesFromCompiled(quickstartCS); err != nil {
					t.Fatal(err)
				}
				if err := tb.LoadCompiled(quickstartCS); err != nil {
					t.Fatal(err)
				}
				if rether {
					if err := tb.InstallRether([]string{"node1", "node2"}, RetherConfig{}); err != nil {
						t.Fatal(err)
					}
				}
			},
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				addQuickstartBulk(t, tb)
				return func(t *testing.T, rep RunReport) {
					if !rep.Passed {
						t.Fatalf("scenario failed: %+v", rep.Result)
					}
				}
			},
		}
	}
	hosts := func(n int) func(*testing.T, *Testbed) {
		return func(t *testing.T, tb *Testbed) { addGroupHosts(t, tb, n) }
	}
	// manyFlow: a scriptless fabric with a ManyFlow mesh of hosts/2 flows;
	// complete says every flow must finish.
	manyFlow := func(name string, cfg Config, n int, seeds []int64, flowBytes int, horizon time.Duration, complete bool) identityRow {
		return identityRow{name: name, cfg: cfg, seeds: seeds, horizon: horizon, stage: hosts(n),
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				mf, err := tb.AddManyFlow(ManyFlowConfig{Flows: n / 2, Bytes: flowBytes})
				if err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, rep RunReport) {
					if complete && mf.Completed() != mf.Flows() {
						t.Fatalf("flows completed %d/%d (failed %d)", mf.Completed(), mf.Flows(), mf.Failed())
					}
				}
			},
		}
	}
	// starLoad: one workload on a 16-host star at seed 21.
	star := &TopologySpec{Kind: TopoStar, Switches: 4}
	starLoad := func(name string, add func(tb *Testbed) error) identityRow {
		return identityRow{name: name, cfg: Config{Topology: star}, seeds: []int64{21}, horizon: 2 * time.Second,
			stage: hosts(16), family: "workload",
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				if err := add(tb); err != nil {
					t.Fatal(err)
				}
				return nil
			},
		}
	}
	udpStream := func(tb *Testbed) error {
		_, err := tb.AddUDPStream(UDPStreamConfig{From: "h0001", To: "h0002", Port: 0x5400, Count: 50})
		return err
	}
	bulk := func(t *testing.T, tb *Testbed, to string, n int) *TCPBulk {
		w, err := tb.AddTCPBulk(TCPBulkConfig{From: "node1", To: to, SrcPort: 0x6000, DstPort: 0x4000, Bytes: n})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// figure: a paper figure's script on its testbed, with the check of
	// the claim the figure stands for.
	figure := func(name string, cfg Config, file string, seeds []int64, horizon time.Duration,
		layers func(t *testing.T, tb *Testbed), arm func(t *testing.T, tb *Testbed) func(*testing.T, RunReport)) identityRow {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return identityRow{name: name, cfg: cfg, seeds: seeds, horizon: horizon, arm: arm,
			stage: func(t *testing.T, tb *Testbed) {
				if err := tb.AddNodesFromScript(string(src)); err != nil {
					t.Fatal(err)
				}
				if layers != nil {
					layers(t, tb)
				}
				if err := tb.LoadScript(string(src)); err != nil {
					t.Fatal(err)
				}
			},
		}
	}

	rows := []identityRow{
		quickstart("switch", Config{}, seedsOf(101, 6, 7919, 0), resetTestHorizon, false),
		quickstart("rll-lossy", Config{RLL: true, BitErrorRate: 1e-6}, seedsOf(101, 6, 7919, 0), resetTestHorizon, false),
		// The token ring idles the whole horizon (no STOP drains it), about
		// a million events a run: few seeds, a short horizon.
		quickstart("rether-bus", Config{Medium: MediumBus}, seedsOf(4, 4, 7919, 0), 2*time.Second, true),
		// The control plane across a trunk: client and server on two edges.
		quickstart("scripted-star2", Config{Topology: &TopologySpec{Kind: TopoStar, Switches: 2}},
			seedsOf(10, 3, 104729, 7), resetTestHorizon, false),
		manyFlow("star", Config{Topology: star}, 24, seedsOf(36, 4, 7919, 13), 2<<10, 3*time.Second, true),
		manyFlow("ring", Config{Topology: &ring4}, 24, seedsOf(36, 4, 7919, 13), 2<<10, 3*time.Second, true),
		manyFlow("fattree", Config{Topology: &fatTree4}, 16, seedsOf(36, 4, 7919, 13), 2<<10, 3*time.Second, true),
		// Topology wiring and flow pairing derive from their own seeds, not
		// the run seed; an auto-sized fat-tree.
		manyFlow("fattree-48", Config{Topology: &TopologySpec{Kind: TopoFatTree}}, 48, []int64{3, 11, 42}, 2<<10, 3*time.Second, false),
		starLoad("tcpbulk-paced", func(tb *Testbed) error {
			_, err := tb.AddTCPBulk(TCPBulkConfig{From: "h0001", To: "h0002", SrcPort: 0x6000, DstPort: 0x4000,
				RateBitsPerSecond: 2e6, Duration: 200 * time.Millisecond, CloseWhenDone: true})
			return err
		}),
		starLoad("udpecho", func(tb *Testbed) error {
			_, err := tb.AddUDPEcho(UDPEchoConfig{Client: "h0001", Server: "h0002", ServerPort: 0x5300, Count: 50})
			return err
		}),
		starLoad("udpstream", udpStream),
		starLoad("incast", func(tb *Testbed) error {
			_, err := tb.AddIncast(IncastConfig{Bytes: 4 << 10})
			return err
		}),
		{name: "bus-rether", cfg: Config{Medium: MediumBus}, seeds: []int64{21}, horizon: 2 * time.Second, family: "workload",
			stage: func(t *testing.T, tb *Testbed) {
				addGroupHosts(t, tb, 4)
				if err := tb.InstallRether([]string{"h0001", "h0002", "h0003", "h0004"}, RetherConfig{}); err != nil {
					t.Fatal(err)
				}
			},
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				if _, err := tb.AddTCPBulk(TCPBulkConfig{From: "h0001", To: "h0004",
					SrcPort: 0x6000, DstPort: 0x4000, Bytes: 64 << 10}); err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, rep RunReport) {
					if tb.shards.count != 1 {
						t.Fatalf("bus built %d shards, want 1", tb.shards.count)
					}
					if rep.Metrics.Totals["rether/tokens_sent"] == 0 {
						t.Fatal("no Rether token was sent")
					}
				}
			},
		},
		// The trace buffer and the sampler are shared state: a fabric that
		// uses them runs as one shard, which ShardsAuto resolves to.
		{name: "traced-sampled", cfg: Config{TraceCapacity: 256, MetricsSampleInterval: 5 * time.Millisecond, Topology: star},
			seeds: []int64{21}, horizon: 2 * time.Second, stage: hosts(16), family: "workload",
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				if err := udpStream(tb); err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, _ RunReport) {
					if tb.shards.count != 1 || len(tb.Trace()) == 0 || len(tb.MetricsSeries().Points) == 0 {
						t.Fatalf("%d shards, %d trace entries, %d sampled points; want 1 shard and both recorded",
							tb.shards.count, len(tb.Trace()), len(tb.MetricsSeries().Points))
					}
				}
			},
		},
		// A bit error rate high enough that frames are corrupted on host
		// segments and trunks alike: the component generators draw.
		{name: "fattree-ber", cfg: Config{BitErrorRate: 2e-6, Topology: &fatTree4},
			seeds: short([]int64{3, 1009, 77777}, 1), horizon: 2 * time.Second,
			stage: hosts(16),
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				if _, err := tb.AddManyFlow(ManyFlowConfig{Flows: 8, Bytes: 32 << 10}); err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, rep RunReport) {
					if rep.Metrics.Totals["nic/crc_errors"] == 0 {
						t.Fatal("no frame was corrupted: the component generators never drew")
					}
				}
			},
		},
		// Fig 5: exactly one SYN-ACK is dropped, TCP recovers and delivers
		// every byte, and the slow-start analysis flags nothing.
		figure("fig5", Config{}, "scripts/fig5_tcp_ss_ca.fsl", []int64{1, 2}, 60*time.Second, nil,
			func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				w := bulk(t, tb, "node2", 80<<10)
				return func(t *testing.T, rep RunReport) {
					if len(rep.Faults) != 1 || rep.Faults[0].Kind != "DROP" || rep.Faults[0].PacketType != "TCP_synack" {
						t.Fatalf("faults %+v, want exactly one DROP of TCP_synack", rep.Faults)
					}
					if w.DeliveredBytes() != 80<<10 {
						t.Fatalf("delivered %d of %d bytes", w.DeliveredBytes(), 80<<10)
					}
					if !rep.Passed || len(rep.Errors) != 0 {
						t.Fatalf("analysis script flagged a conforming TCP: %s %v", rep.Verdict, rep.Errors)
					}
				}
			}),
		// Fig 6: the script crashes node3, the three survivors rebuild the
		// ring and complete a token cycle, and the script STOPs the scenario.
		figure("fig6", Config{Medium: MediumBus}, "scripts/fig6_rether_failure.fsl", []int64{3, 4}, 120*time.Second,
			func(t *testing.T, tb *Testbed) {
				if err := tb.InstallRether([]string{"node1", "node2", "node3", "node4"}, RetherConfig{}); err != nil {
					t.Fatal(err)
				}
				tb.AddRTStream(0x6000, 0x4000)
			},
			func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				bulk(t, tb, "node4", 4<<20)
				return func(t *testing.T, rep RunReport) {
					if rep.Verdict != "stopped" || !rep.Passed {
						t.Fatalf("verdict %s (passed %v), want stopped", rep.Verdict, rep.Passed)
					}
					for _, n := range tb.Nodes() {
						if n.Name() == "node3" {
							if !n.Failed() {
								t.Fatal("node3 was never crashed")
							}
						} else if got := retherRingSize(t, n); got != 3 {
							t.Fatalf("%s ring size %v, want the 3 survivors", n.Name(), got)
						}
					}
				}
			}),
		// Fig 8 (iii): 25 filters and 25 actions per packet slow the echoes
		// down, but every one of them comes back.
		figure("fig8iii", Config{RLL: true}, "bench/testdata/fig8_filters25_actions25.fsl", []int64{8, 9}, 60*time.Second, nil,
			func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				echo, err := tb.AddUDPEcho(UDPEchoConfig{Client: "node1", Server: "node2", ServerPort: 9000,
					Size: 18, Interval: 100 * time.Microsecond, Count: 500})
				if err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, rep RunReport) {
					if echo.Sent() != 500 || echo.Received() != 500 || !rep.Passed {
						t.Fatalf("echoes: sent %d, received %d, verdict %s; want 500 of 500, passed",
							echo.Sent(), echo.Received(), rep.Verdict)
					}
				}
			}),
	}

	if !testing.Short() {
		rows = append(rows, fabricManyFlowRow())
	}
	faultRows := topoFaultRows
	// Generated schedules: one per seed on each fabric, each run under its
	// own seed.
	for _, seed := range seedsOf(8, 2, 1, 1) {
		for _, f := range []struct {
			name   string
			topo   TopologySpec
			hosts  int
			trunks int
		}{{"ring", ring4, 24, 4}, {"fattree", fatTree4, 16, 32}} {
			faultRows = append(faultRows, topoFaultRow{fmt.Sprintf("gen-%s-%d", f.name, seed), f.topo, f.hosts, seed, 64 << 10, 2 * time.Second,
				generatedFaults(seed, f.trunks)})
		}
	}
	for i, f := range faultRows {
		topo := f.topo
		r := manyFlow(f.name, Config{Topology: &topo, TopologyFaults: f.faults}, f.hosts, []int64{f.seed}, f.bytes, f.horizon, false)
		r.family = "topofault"
		if i >= len(topoFaultRows) {
			topoName := map[TopologyKind]string{TopoRing: "ring4", TopoFatTree: "fatTree4"}[f.topo.Kind]
			r.repro = fmt.Sprintf("\ngenerated schedule; as a fixed topoFaultRows entry:\n\t{%q, %s, %d, %d, %d << 10, %d * time.Second,\n\t\t%s},",
				f.name, topoName, f.hosts, f.seed, f.bytes>>10, f.horizon/time.Second, faultsLiteral(f.faults))
		}
		rows = append(rows, r)
	}
	return rows
}
