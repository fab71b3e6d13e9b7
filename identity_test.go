package virtualwire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
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

// wide rows take any shard count: a fabric or a bus.
func (r *identityRow) wide() bool {
	return r.fabric() || r.cfg.Medium == MediumBus
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

// identityBaseline is a row's fresh run under one seed: its report
// bytes, its final readings (see gatherBytes) and its work vector (see
// workOf).
type identityBaseline struct {
	bytes  []byte
	gather []byte
	work   map[string]uint64
	ended  time.Duration // the virtual time the run ended at
}

// identityBaselines memoizes fresh by row name and seed.
var identityBaselines = map[string]identityBaseline{}

// fresh is the row's baseline under seed, run once.
func (r *identityRow) fresh(t *testing.T, seed int64) identityBaseline {
	t.Helper()
	key := fmt.Sprintf("%s/%d", r.name, seed)
	if b, ok := identityBaselines[key]; ok {
		return b
	}
	tb := r.build(t, seed, nil)
	b := identityBaseline{r.run(t, tb, false), gatherBytes(t, tb), workOf(tb), tb.Now()}
	identityBaselines[key] = b
	return b
}

// baseline is the report bytes of fresh.
func (r *identityRow) baseline(t *testing.T, seed int64) []byte { return r.fresh(t, seed).bytes }

// variant is a column's cell at each of seeds: a fresh testbed under
// change, run (through RunContext when viaCtx), against the baseline.
func (r *identityRow) variant(t *testing.T, column string, seeds []int64, change func(*Config), viaCtx bool) {
	t.Helper()
	for _, seed := range seeds {
		got := r.run(t, r.build(t, seed, change), viaCtx)
		assertSameBytes(t, r, column, seed, r.baseline(t, seed), got)
	}
}

// gatherBytes is the testbed's final Gather, one JSON sample a line,
// less the readings a warm pool moves (see WarmPoolReading). It holds
// what a report shows only as a count or leaves out: histogram buckets,
// gauges, sources outside the node rows.
func gatherBytes(t *testing.T, tb *Testbed) []byte {
	t.Helper()
	var b []byte
	for _, s := range tb.Metrics().Gather() {
		if WarmPoolReading(s) {
			continue
		}
		line, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return b
}

// assertSameBytes fails the cell unless got is want, the row's baseline
// for seed, naming the first line that differs.
func assertSameBytes(t *testing.T, r *identityRow, column string, seed int64, want, got []byte) {
	t.Helper()
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
	t.Fatalf("row %s, column %s, seed %d: line %d differs\nbaseline: %s\n     got: %s%s",
		r.name, column, seed, i+1, line(wl), line(gl), r.repro)
}

// TestResetMatchesFreshAcrossSeeds: one testbed, run under another seed
// and then Reset to each of the row's seeds in turn, gives a fresh
// testbed's report bytes and final readings. The rewind allocates nothing, leaves no trunk mailbox
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
			assertSameBytes(t, r, "reset", seed, r.baseline(t, seed), r.run(t, tb, false))
			assertSameBytes(t, r, "reset gather", seed, r.fresh(t, seed).gather, gatherBytes(t, tb))
		}
	})
}

// The shard column: a fabric gives the same bytes at 1, 2 and 4 shards
// as at the default — the partition only chooses which goroutine executes
// which switch's events — and a bus, one segment, builds one shard at any
// count. It runs as one Test per row family.
func shardColumn(t *testing.T, family string) {
	applies := func(r *identityRow) bool { return r.family == family && r.wide() }
	eachIdentityRow(t, applies, func(t *testing.T, r *identityRow) {
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
				assertSameBytes(t, r, column, seed, r.baseline(t, seed), got)
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

// The observation column: tracing and sampling change nothing they
// observe. Every row, at its first seed, with a trace buffer and a
// sampler on, gives its baseline's report bytes — less the two members
// that say sampling ran — and its work vector, so long as the run goes to
// its horizon. A run that ends at a STOP is seen to end at a barrier, and
// sample times add barriers, so such a run may end sooner. The interval
// keeps a run's sampled readings near half a million, however large its
// registry.
func TestObservationChangesNothing(t *testing.T) {
	eachIdentityRow(t, nil, func(t *testing.T, r *identityRow) {
		seed := r.seeds[0]
		base := r.fresh(t, seed)
		if base.ended < r.horizon {
			t.Skipf("the run ends at %v, before its %v horizon", base.ended, r.horizon)
		}
		readings := time.Duration(bytes.Count(base.gather, []byte("\n")))
		interval := max(time.Millisecond, r.horizon*readings/(1<<19))
		tb := r.build(t, seed, func(c *Config) {
			c.TraceCapacity = max(c.TraceCapacity, 256)
			if c.MetricsSampleInterval == 0 {
				c.MetricsSampleInterval = interval
			}
		})
		got := r.run(t, tb, false)
		if len(tb.Trace()) == 0 || len(tb.MetricsSeries().Points) == 0 {
			t.Fatalf("%d trace entries, %d sampled points; want both recorded", len(tb.Trace()), len(tb.MetricsSeries().Points))
		}
		assertSameBytes(t, r, "observed", seed, withoutSampling(base.bytes), withoutSampling(got))
		assertWork(t, r.name, base.work, workOf(tb))
	})
}

// withoutSampling drops the report lines that say a sampler ran.
func withoutSampling(report []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"sampled_points"`)) && !bytes.Contains(line, []byte(`"sample_interval_ns"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// observed holds a traced, sampled row's observedBytes by row and seed,
// from the first run that reached its check.
var observed = map[string][]byte{}

// observedBytes is what a testbed observed: its trace, one entry a line,
// then its series as JSON with the final gather's warm-pool readings
// left out.
func observedBytes(t *testing.T, tb *Testbed) []byte {
	t.Helper()
	var b []byte
	for _, e := range tb.Trace() {
		b = fmt.Appendf(b, "%d %s\n", e.FrameID, e)
	}
	s := tb.MetricsSeries()
	s.Final = slices.DeleteFunc(s.Final, WarmPoolReading)
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, js...)
}

// The work column: what a row's baseline did at its first seed, in
// counts, pinned exactly by workPins — one "row layer/name value" line a
// count. Wall time is bench/'s to measure; work is pinned here, so a
// performance change names the counts it moved and by how much, and a
// simplicity change shows that none moved.

// workKeys are the counts a work vector holds, where the row's layers
// report them: registry totals, and the engines' classifier work.
var workKeys = []string{"scheduler/events_executed", "scheduler/events_scheduled", "pool/gets", "pool/hits",
	"nic/tx_frames", "engine/packets_intercepted", "engine/ctl_bytes",
	"classifier/filters_scanned", "classifier/tuples_compared", "classifier/dispatch_probes",
	"switch/ingress_frames", "switch/forwarded_frames", "switch/flooded_frames",
	"fabric/ingress_frames", "fabric/forwarded_frames", "fabric/flooded_frames",
	"rll/data_retrans", "tcp/retransmissions", "rether/token_retransmissions"}

// workOf is the work vector of a testbed that has just run.
func workOf(tb *Testbed) map[string]uint64 {
	w := make(map[string]uint64)
	for _, s := range tb.reg.Gather() {
		if k := s.Layer + "/" + s.Name; slices.Contains(workKeys, k) {
			w[k] += uint64(s.Value)
		}
	}
	if tb.script != nil {
		for _, n := range tb.nodes {
			filters, tuples, probes := n.engine.ClassifierWork()
			w["classifier/filters_scanned"] += filters
			w["classifier/tuples_compared"] += tuples
			w["classifier/dispatch_probes"] += probes
		}
	}
	return w
}

// TestWorkCountsArePinned is the work column, plus the claims the two
// ablation rows stand for: Section 5.2's status-change-only propagation
// puts fewer control bytes on the wire than eager propagation of the same
// remote rule, and on a lossy wire a wider RLL window buys goodput.
func TestWorkCountsArePinned(t *testing.T) {
	pins := parseWorkPins(t, workPins)
	rows := map[string]*identityRow{}
	for _, r := range identityRows(t) {
		rows[r.name] = &r
	}
	for name := range pins {
		if rows[name] == nil && !(testing.Short() && name == "fabric-manyflow") {
			t.Errorf("workPins pins row %s, which the table does not have", name)
		}
	}
	eachIdentityRow(t, func(r *identityRow) bool { return pins[r.name] != nil }, func(t *testing.T, r *identityRow) {
		assertWork(t, r.name, pins[r.name], r.fresh(t, r.seeds[0]).work)
	})
	t.Run("claims", func(t *testing.T) {
		work := func(name string) map[string]uint64 { return rows[name].fresh(t, rows[name].seeds[0]).work }
		if s, e := work("ctlplane-status")["engine/ctl_bytes"], work("ctlplane-eager")["engine/ctl_bytes"]; s >= e {
			t.Errorf("status-only propagation sent %d control bytes, eager %d: want fewer", s, e)
		}
		goodput := func(window int) float64 {
			name := fmt.Sprintf("rll-window-w%d", window)
			work(name) // the baseline run records it
			return rllGoodput[fmt.Sprintf("%s/%d", name, rows[name].seeds[0])]
		}
		if w2, w8, w32 := goodput(2), goodput(8), goodput(32); !(w2 < w8 && w8 <= w32) {
			t.Errorf("RLL goodput %.3f, %.3f, %.3f Mb/s at windows 2, 8, 32: want w2 < w8 <= w32", w2/1e6, w8/1e6, w32/1e6)
		}
	})
}

// parseWorkPins reads "row layer/name value" lines into row -> count ->
// value.
func parseWorkPins(t *testing.T, text string) map[string]map[string]uint64 {
	pins := map[string]map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 {
			t.Fatalf("work pin %q is not \"row layer/name value\"", line)
		}
		v, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			t.Fatalf("work pin %q: %v", line, err)
		}
		if pins[f[0]] == nil {
			pins[f[0]] = map[string]uint64{}
		}
		pins[f[0]][f[1]] = v
	}
	return pins
}

// assertWork fails unless got is exactly the row's pinned vector, naming
// every count that moved and printing the row's lines as they now read.
func assertWork(t *testing.T, row string, pinned, got map[string]uint64) {
	t.Helper()
	var moved, lines []string
	for _, k := range workKeys {
		v, reported := got[k]
		p, ok := pinned[k]
		if reported {
			lines = append(lines, fmt.Sprintf("%s %s %d", row, k, v))
		}
		switch {
		case reported && !ok:
			moved = append(moved, fmt.Sprintf("%s: not pinned, got %d", k, v))
		case ok && !reported:
			moved = append(moved, fmt.Sprintf("%s: pinned %d, not reported", k, p))
		case ok && p != v:
			moved = append(moved, fmt.Sprintf("%s: pinned %d, got %d", k, p, v))
		}
	}
	if len(moved) > 0 {
		t.Errorf("row %s: work moved\n\t%s\nthe row's workPins lines as they now read:\n%s",
			row, strings.Join(moved, "\n\t"), strings.Join(lines, "\n"))
	}
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

// ctlPlane is a two-node script whose rule's condition is remote from its
// term's home (counter D lives on node1, A on node2), over 200 UDP echoes
// that both filters match.
func ctlPlane(name, rule string) identityRow {
	script := `
FILTER_TABLE
p0: (23 1 0x11), (36 2 0x1b58)
p1: (23 1 0x11), (36 2 0x1b59)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO ctlplane
A: (p0, node1, node2, RECV)
B: (p1, node2, node1, RECV)
D: (node1)
(TRUE) >> ENABLE_CNTR( A ); ENABLE_CNTR( B );
` + rule + `
END`
	return identityRow{name: name, seeds: []int64{1}, horizon: 2 * time.Second,
		stage: func(t *testing.T, tb *Testbed) {
			if err := tb.AddNodesFromScript(script); err != nil {
				t.Fatal(err)
			}
			if err := tb.LoadScript(script); err != nil {
				t.Fatal(err)
			}
		},
		arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
			echo, err := tb.AddUDPEcho(UDPEchoConfig{Client: "node1", Server: "node2",
				ServerPort: 7000, ClientPort: 7001, Count: 200, Interval: 200 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T, _ RunReport) {
				if echo.Received() != 200 {
					t.Fatalf("echoes received %d of 200", echo.Received())
				}
			}
		},
	}
}

// rllGoodput is each RLL window run's goodput in bit/s, by row name and
// seed.
var rllGoodput = map[string]float64{}

// rllWindow is the window ablation: a 1 MiB TCP transfer between two
// hosts over the RLL, on a wire corrupting one bit in 10^7.
func rllWindow(window int) identityRow {
	name := fmt.Sprintf("rll-window-w%d", window)
	return identityRow{name: name, seeds: []int64{1}, horizon: 60 * time.Second,
		cfg: Config{RLL: true, RLLWindow: window, BitErrorRate: 1e-7},
		stage: func(t *testing.T, tb *Testbed) {
			for _, h := range []struct{ name, mac, ip string }{{"a", "00:00:00:00:00:0a", "10.0.0.1"}, {"b", "00:00:00:00:00:0b", "10.0.0.2"}} {
				if _, err := tb.AddHost(h.name, h.mac, h.ip); err != nil {
					t.Fatal(err)
				}
			}
		},
		arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
			bulk, err := tb.AddTCPBulk(TCPBulkConfig{From: "a", To: "b", SrcPort: 1, DstPort: 2, Bytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return func(t *testing.T, rep RunReport) {
				if bulk.DeliveredBytes() != 1<<20 {
					t.Fatalf("delivered %d of %d bytes", bulk.DeliveredBytes(), 1<<20)
				}
				rllGoodput[fmt.Sprintf("%s/%d", name, rep.Seed)] = bulk.GoodputBitsPerSecond()
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
		// Observation happens at barriers: a traced, sampled fabric gives
		// the same trace and series at every shard count, and after a
		// Reset, as it does the first time it runs under the seed.
		{name: "traced-sampled", cfg: Config{TraceCapacity: 256, MetricsSampleInterval: 5 * time.Millisecond, Topology: star},
			seeds: []int64{21}, horizon: 2 * time.Second, stage: hosts(16), family: "workload",
			arm: func(t *testing.T, tb *Testbed) func(*testing.T, RunReport) {
				if err := udpStream(tb); err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, rep RunReport) {
					got := observedBytes(t, tb)
					if len(tb.Trace()) == 0 || len(tb.MetricsSeries().Points) == 0 {
						t.Fatalf("%d trace entries, %d sampled points; want both recorded", len(tb.Trace()), len(tb.MetricsSeries().Points))
					}
					key := fmt.Sprintf("traced-sampled/%d", rep.Seed)
					want, ok := observed[key]
					if !ok {
						observed[key] = got
						return
					}
					if !bytes.Equal(got, want) {
						r := identityRow{name: "traced-sampled"}
						assertSameBytes(t, &r, fmt.Sprintf("observed at %d shards", tb.shards.count), rep.Seed, want, got)
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
		// Section 5.2's ablation: one remote rule over 200 echoes, whose
		// term has an integer operand (evaluated at the counter's home,
		// only status changes cross the wire) or a counter spanning nodes
		// (every change of the remote operand pushes a value).
		ctlPlane("ctlplane-status", "((A >= 10)) >> INCR_CNTR( D, 1 );"),
		ctlPlane("ctlplane-eager", "((A > B)) >> INCR_CNTR( D, 1 );"),
		rllWindow(2), rllWindow(8), rllWindow(32),
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

// workPins is the work column's table, one row's counts to a paragraph.
const workPins = `
fig5 scheduler/events_executed 869
fig5 scheduler/events_scheduled 932
fig5 pool/gets 132
fig5 pool/hits 121
fig5 nic/tx_frames 129
fig5 engine/packets_intercepted 248
fig5 engine/ctl_bytes 2456
fig5 classifier/filters_scanned 486
fig5 classifier/tuples_compared 1458
fig5 classifier/dispatch_probes 248
fig5 switch/ingress_frames 129
fig5 switch/forwarded_frames 126
fig5 switch/flooded_frames 3
fig5 tcp/retransmissions 0

fig6 scheduler/events_executed 15900
fig6 scheduler/events_scheduled 18583
fig6 pool/gets 9578
fig6 pool/hits 9524
fig6 nic/tx_frames 3177
fig6 engine/packets_intercepted 6252
fig6 engine/ctl_bytes 7165
fig6 classifier/filters_scanned 6252
fig6 classifier/tuples_compared 12511
fig6 classifier/dispatch_probes 6252
fig6 tcp/retransmissions 0
fig6 rether/token_retransmissions 2

fig8iii scheduler/events_executed 12062
fig8iii scheduler/events_scheduled 13069
fig8iii pool/gets 5028
fig8iii pool/hits 5020
fig8iii nic/tx_frames 2010
fig8iii engine/packets_intercepted 2000
fig8iii engine/ctl_bytes 2837
fig8iii classifier/filters_scanned 1000
fig8iii classifier/tuples_compared 2000
fig8iii classifier/dispatch_probes 2000
fig8iii switch/ingress_frames 2010
fig8iii switch/forwarded_frames 2007
fig8iii switch/flooded_frames 3
fig8iii rll/data_retrans 0
fig8iii tcp/retransmissions 0

fabric-manyflow scheduler/events_executed 333509
fabric-manyflow scheduler/events_scheduled 335131
fabric-manyflow pool/gets 123517
fabric-manyflow pool/hits 122109
fabric-manyflow nic/tx_frames 3200
fabric-manyflow engine/packets_intercepted 0
fabric-manyflow engine/ctl_bytes 0
fabric-manyflow fabric/ingress_frames 44722
fabric-manyflow fabric/forwarded_frames 15474
fabric-manyflow fabric/flooded_frames 13876
fabric-manyflow tcp/retransmissions 0

ctlplane-status scheduler/events_executed 2431
ctlplane-status scheduler/events_scheduled 2433
ctlplane-status pool/gets 407
ctlplane-status pool/hits 404
ctlplane-status nic/tx_frames 405
ctlplane-status engine/packets_intercepted 800
ctlplane-status engine/ctl_bytes 1707
ctlplane-status classifier/filters_scanned 800
ctlplane-status classifier/tuples_compared 1600
ctlplane-status classifier/dispatch_probes 800
ctlplane-status switch/ingress_frames 405
ctlplane-status switch/forwarded_frames 403
ctlplane-status switch/flooded_frames 2
ctlplane-status tcp/retransmissions 0

ctlplane-eager scheduler/events_executed 6025
ctlplane-eager scheduler/events_scheduled 6027
ctlplane-eager pool/gets 1006
ctlplane-eager pool/hits 1003
ctlplane-eager nic/tx_frames 1004
ctlplane-eager engine/packets_intercepted 800
ctlplane-eager engine/ctl_bytes 18620
ctlplane-eager classifier/filters_scanned 800
ctlplane-eager classifier/tuples_compared 1600
ctlplane-eager classifier/dispatch_probes 800
ctlplane-eager switch/ingress_frames 1004
ctlplane-eager switch/forwarded_frames 1002
ctlplane-eager switch/flooded_frames 2
ctlplane-eager tcp/retransmissions 0

rll-window-w2 scheduler/events_executed 21807
rll-window-w2 scheduler/events_scheduled 24059
rll-window-w2 pool/gets 7521
rll-window-w2 pool/hits 7466
rll-window-w2 nic/tx_frames 3017
rll-window-w2 engine/packets_intercepted 0
rll-window-w2 engine/ctl_bytes 0
rll-window-w2 switch/ingress_frames 3015
rll-window-w2 switch/forwarded_frames 3014
rll-window-w2 switch/flooded_frames 1
rll-window-w2 rll/data_retrans 10
rll-window-w2 tcp/retransmissions 0

rll-window-w8 scheduler/events_executed 21309
rll-window-w8 scheduler/events_scheduled 23561
rll-window-w8 pool/gets 7551
rll-window-w8 pool/hits 7478
rll-window-w8 nic/tx_frames 3047
rll-window-w8 engine/packets_intercepted 0
rll-window-w8 engine/ctl_bytes 0
rll-window-w8 switch/ingress_frames 3045
rll-window-w8 switch/forwarded_frames 3044
rll-window-w8 switch/flooded_frames 1
rll-window-w8 rll/data_retrans 24
rll-window-w8 tcp/retransmissions 0

rll-window-w32 scheduler/events_executed 21925
rll-window-w32 scheduler/events_scheduled 24191
rll-window-w32 pool/gets 7632
rll-window-w32 pool/hits 7487
rll-window-w32 nic/tx_frames 3128
rll-window-w32 engine/packets_intercepted 0
rll-window-w32 engine/ctl_bytes 0
rll-window-w32 switch/ingress_frames 3127
rll-window-w32 switch/forwarded_frames 3126
rll-window-w32 switch/flooded_frames 1
rll-window-w32 rll/data_retrans 64
rll-window-w32 tcp/retransmissions 0
`
