package virtualwire

// Multi-switch topology generators: star, ring, fat-tree and random
// fabrics of switches joined by full-duplex trunk links, scaling a single
// testbed to hundreds-to-~1000 hosts. Redundant trunks (ring backlinks,
// fat-tree multipath) are disabled by a deterministic static spanning
// tree — BFS from switch 0 in wiring order — blocked on both ends, so
// flooding stays loop-free, and every switch forwards toward a host along
// that tree by a plan read from it (spanningForest.hop). See
// docs/TOPOLOGIES.md.

import (
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
)

// TopologyKind selects a fabric generator.
type TopologyKind int

// Topology kinds.
const (
	// TopoSingle is the default single switch (Config.Topology == nil
	// behaves identically).
	TopoSingle TopologyKind = iota
	// TopoStar wires N edge switches to one core switch.
	TopoStar
	// TopoRing joins N switches in a cycle; the spanning tree blocks one
	// trunk.
	TopoRing
	// TopoFatTree builds the k-ary fat-tree (k/2)^2 cores / k pods of
	// k/2+k/2 agg+edge switches; k=16 reaches 1024 hosts.
	TopoFatTree
	// TopoRandom grows a random spanning tree over N switches plus
	// ExtraTrunks redundant links, seeded by WiringSeed.
	TopoRandom
)

// String names the kind as campaign specs spell it.
func (k TopologyKind) String() string {
	switch k {
	case TopoSingle:
		return "single"
	case TopoStar:
		return "star"
	case TopoRing:
		return "ring"
	case TopoFatTree:
		return "fattree"
	case TopoRandom:
		return "random"
	}
	return "unknown"
}

// ParseTopologyKind resolves a kind name ("single", "star", "ring",
// "fattree", "random").
func ParseTopologyKind(s string) (TopologyKind, error) {
	switch s {
	case "", "single":
		return TopoSingle, nil
	case "star":
		return TopoStar, nil
	case "ring":
		return TopoRing, nil
	case "fattree", "fat-tree":
		return TopoFatTree, nil
	case "random":
		return TopoRandom, nil
	}
	return TopoSingle, fmt.Errorf("virtualwire: unknown topology kind %q", s)
}

// TopologySpec describes a multi-switch fabric. The wiring is a pure
// function of the spec and the host count — never of Config.Seed — so a
// reset testbed re-runs over identical wiring and a fresh testbed with
// the same spec reproduces it exactly.
type TopologySpec struct {
	// Kind selects the generator; TopoSingle (the zero value) keeps the
	// classic single switch.
	Kind TopologyKind
	// Switches sizes star (edge switches), ring and random fabrics;
	// 0 auto-sizes to about one edge switch per 48 hosts.
	Switches int
	// FatTreeK is the fat-tree arity (even, >= 4); 0 picks the smallest
	// k whose k^3/4 host capacity fits the testbed.
	FatTreeK int
	// ExtraTrunks adds redundant (spanning-tree-blocked) trunks to
	// random fabrics.
	ExtraTrunks int
	// TrunkBitsPerSecond is the inter-switch link bandwidth (default
	// 10x the host link rate).
	TrunkBitsPerSecond float64
	// TrunkPropagation is the inter-switch cable delay (default: the
	// host segment propagation, i.e. Config.Propagation). The engine
	// derives its conservative window lookahead from this value, so
	// campus-length trunks (microseconds) buy proportionally longer
	// parallel windows — see docs/PERFORMANCE.md, "Sharded execution".
	TrunkPropagation time.Duration
	// WiringSeed drives the random generator's RNG only (default 1). It
	// is deliberately separate from Config.Seed: run seeds vary per
	// campaign point, wiring must not.
	WiringSeed int64
	// ReconvergeDelay is the spanning-tree reconvergence latency: how
	// long after a topology change (trunk failure/restore, switch
	// crash/restart) the fabric recomputes its tree, unblocks the best
	// redundant trunk and re-plans its routes. 0 selects
	// DefaultReconvergeDelay. See Config.TopologyFaults.
	ReconvergeDelay time.Duration
}

// DefaultReconvergeDelay is the spanning-tree reconvergence latency when
// TopologySpec.ReconvergeDelay is zero: far faster than real 802.1D
// (tens of seconds) but long enough that traffic observably blackholes
// between a trunk death and failover.
const DefaultReconvergeDelay = time.Millisecond

// topologyActive reports whether the configuration asks for a generated
// multi-switch fabric. Construction does not care — a single switch is
// the one-switch fabric — but two things a user sees do: the switches'
// metric source ("switch" rows or the "fabric" aggregate) and whether
// TopologyFaults have anything to target.
func (tb *Testbed) topologyActive() bool {
	return tb.cfg.Topology != nil && tb.cfg.Topology.Kind != TopoSingle
}

// trunkWire is one generated inter-switch link (switch indices).
type trunkWire struct{ a, b int }

// fabricTrunk is one built inter-switch link: its wiring, the port index
// on each end switch, its mailbox channel and its fault state. Trunks
// persist so the topology fault engine can fail, restore and degrade
// them at runtime.
type fabricTrunk struct {
	wire   trunkWire
	pa, pb int // port index on switch wire.a / wire.b
	// inTree marks membership in the build-time spanning tree (the
	// pristine blocked/forwarding layout Reset restores).
	inTree bool
	ch     *ether.TrunkChannel
	// baseProp/baseBER are the built profile, restored by Reset after
	// degrade faults.
	baseProp time.Duration
	baseBER  float64
	failed   bool
}

// blocked reports the trunk's live spanning-tree state (both end ports
// are always blocked/unblocked together).
func (tb *Testbed) trunkBlocked(i int) bool {
	t := &tb.trunks[i]
	return tb.fabric[t.wire.a].PortBlocked(t.pa)
}

// blockedTrunks counts trunks currently blocked — live state, unlike
// the build-time constant the blocked_trunks gauge used to report.
func (tb *Testbed) blockedTrunks() int {
	n := 0
	for i := range tb.trunks {
		if tb.trunkBlocked(i) {
			n++
		}
	}
	return n
}

// setTrunkBlocked blocks or unblocks a trunk on both ends.
func (tb *Testbed) setTrunkBlocked(i int, blocked bool) {
	t := &tb.trunks[i]
	tb.fabric[t.wire.a].SetPortBlocked(t.pa, blocked)
	tb.fabric[t.wire.b].SetPortBlocked(t.pb, blocked)
}

// fabricPlan is a generated wiring: switch count, trunks in wiring
// order, and the host-bearing (edge) switches.
type fabricPlan struct {
	switches int
	trunks   []trunkWire
	edges    []int
}

// Plan-size limits. A plan is generated wherever a testbed is checked —
// for a campaign that is at submit — so the plan itself must never be
// the allocation that takes the process down. All are far above the
// 1000-host target (a k=16 fat-tree: 320 switches, 2048 trunks).
const (
	maxSwitches   = 1 << 14 // TopologySpec.Switches and ExtraTrunks
	maxFatTreeK   = 64      // 65 536 hosts, 5120 switches, 131 072 trunks
	maxFlapCycles = 1 << 16 // TopologyFaultSpec.Count
)

// planFabric generates the wiring for n hosts. No spec, or TopoSingle,
// is the one-switch fabric: one switch, no trunks, every host on it.
func planFabric(spec *TopologySpec, n int) (fabricPlan, error) {
	if spec == nil || spec.Kind == TopoSingle {
		return fabricPlan{switches: 1, edges: []int{0}}, nil
	}
	if n == 0 {
		return fabricPlan{}, rejectf("topology", "topology %v needs hosts before build", spec.Kind)
	}
	if spec.Switches > maxSwitches || spec.ExtraTrunks > maxSwitches {
		return fabricPlan{}, rejectf("topology", "topology %v asks for %d switches and %d extra trunks (limit %d each)",
			spec.Kind, spec.Switches, spec.ExtraTrunks, maxSwitches)
	}
	autoEdges := func(min int) int {
		e := (n + 47) / 48
		if e < min {
			e = min
		}
		return e
	}
	switch spec.Kind {
	case TopoStar:
		edges := spec.Switches
		if edges <= 0 {
			edges = autoEdges(2)
		}
		p := fabricPlan{switches: edges + 1}
		for i := 1; i <= edges; i++ {
			p.trunks = append(p.trunks, trunkWire{0, i})
			p.edges = append(p.edges, i)
		}
		return p, nil
	case TopoRing:
		sw := spec.Switches
		if sw <= 0 {
			sw = autoEdges(3)
		}
		if sw < 3 {
			sw = 3
		}
		p := fabricPlan{switches: sw}
		for i := 0; i < sw; i++ {
			p.trunks = append(p.trunks, trunkWire{i, (i + 1) % sw})
			p.edges = append(p.edges, i)
		}
		return p, nil
	case TopoFatTree:
		k := spec.FatTreeK
		if k <= 0 {
			for k = 4; k*k*k/4 < n; k += 2 {
			}
		}
		if k < 4 || k%2 != 0 || k > maxFatTreeK {
			return fabricPlan{}, rejectf("topology.fattree_k", "fat-tree arity must be even and between 4 and %d (got %d)", maxFatTreeK, k)
		}
		half := k / 2
		cores := half * half
		p := fabricPlan{switches: cores + k*(half+half)}
		// Switch layout: [0,cores) cores, then per pod half aggs followed
		// by half edges.
		for pod := 0; pod < k; pod++ {
			podBase := cores + pod*k
			for a := 0; a < half; a++ {
				agg := podBase + a
				// Each agg uplinks to its column of core switches.
				for c := 0; c < half; c++ {
					p.trunks = append(p.trunks, trunkWire{a*half + c, agg})
				}
			}
			for e := 0; e < half; e++ {
				edge := podBase + half + e
				for a := 0; a < half; a++ {
					p.trunks = append(p.trunks, trunkWire{podBase + a, edge})
				}
				p.edges = append(p.edges, edge)
			}
		}
		return p, nil
	case TopoRandom:
		sw := spec.Switches
		if sw <= 0 {
			sw = autoEdges(2)
		}
		seed := spec.WiringSeed
		if seed == 0 {
			seed = 1
		}
		rng := rand.New(rand.NewSource(seed))
		p := fabricPlan{switches: sw}
		for i := 1; i < sw; i++ {
			p.trunks = append(p.trunks, trunkWire{rng.Intn(i), i})
		}
		for x := 0; x < spec.ExtraTrunks && sw >= 2; x++ {
			a := rng.Intn(sw)
			b := rng.Intn(sw - 1)
			if b >= a {
				b++
			}
			p.trunks = append(p.trunks, trunkWire{a, b})
		}
		for i := 0; i < sw; i++ {
			p.edges = append(p.edges, i)
		}
		return p, nil
	}
	return fabricPlan{}, rejectf("topology.kind", "topology kind %v has no generator", spec.Kind)
}

// spanningForest is the fabric's loop-free layout: the BFS forest over the
// live switches and trunks, its roots the lowest-index live switch of
// each component, adjacency walked in wiring order. A trunk outside it is
// redundant and blocked on both ends. The build plan walks the planned
// wiring with everything alive — one tree from switch 0, or the plan is
// rejected as disconnected; reset walks it again, and reconvergence walks
// over the live fabric, in place and without allocating, and with every
// trunk and switch alive reproduces the planned layout exactly.
//
// The walk also numbers the forest in preorder, which is what the
// switches route by (hop): a subtree is the interval [pre, end), and the
// children of a switch, adjacent in BFS order, hold adjacent ascending
// intervals. That is O(switches) state however large the fabric.
type spanningForest struct {
	wires  []trunkWire
	adj    [][]int // switch index -> trunk indices, wiring order
	inTree []bool  // per trunk
	parent []int   // per switch: itself for a root, -1 if not reached
	order  []int   // reached switches in discovery order
	// Per switch: the trunk to its parent (-1 for a root), its root, its
	// preorder interval [pre, end) (pre -1 if not reached), and its
	// children as order[kids : kids+nkids].
	up, root, pre, end, kids, nkids []int32
}

func newSpanningForest(switches int, wires []trunkWire) *spanningForest {
	f := &spanningForest{
		wires:  wires,
		adj:    make([][]int, switches),
		inTree: make([]bool, len(wires)),
		parent: make([]int, switches),
		order:  make([]int, 0, switches),
		up:     make([]int32, switches),
		root:   make([]int32, switches),
		pre:    make([]int32, switches),
		end:    make([]int32, switches),
		kids:   make([]int32, switches),
		nkids:  make([]int32, switches),
	}
	for ti, w := range wires {
		f.adj[w.a] = append(f.adj[w.a], ti)
		f.adj[w.b] = append(f.adj[w.b], ti)
	}
	return f
}

// walk recomputes the forest, leaving out the trunks failed reports and
// the switches down reports, and returns the number of roots.
func (f *spanningForest) walk(failed, down func(int) bool) (roots int) {
	clear(f.inTree)
	for i := range f.parent {
		f.parent[i], f.up[i], f.pre[i] = -1, -1, -1
	}
	f.order = f.order[:0]
	for root := range f.adj {
		if f.parent[root] >= 0 || down(root) {
			continue
		}
		roots++
		f.parent[root] = root
		f.root[root] = int32(root)
		head := len(f.order)
		f.order = append(f.order, root)
		for ; head < len(f.order); head++ {
			s := f.order[head]
			f.kids[s] = int32(len(f.order))
			for _, ti := range f.adj[s] {
				other := f.wires[ti].a + f.wires[ti].b - s
				if failed(ti) || f.parent[other] >= 0 || down(other) {
					continue
				}
				f.parent[other] = s
				f.up[other] = int32(ti)
				f.root[other] = int32(root)
				f.inTree[ti] = true
				f.order = append(f.order, other)
			}
			f.nkids[s] = int32(len(f.order)) - f.kids[s]
		}
	}
	// Preorder: subtree sizes leaves first (held in end), then intervals
	// root first, each child starting where its elder sibling ends.
	for _, s := range f.order {
		f.end[s] = 1
	}
	for i := len(f.order) - 1; i >= 0; i-- {
		if s, p := f.order[i], f.parent[f.order[i]]; p != s {
			f.end[p] += f.end[s]
		}
	}
	next := int32(0)
	for _, s := range f.order {
		if f.parent[s] == s {
			f.pre[s] = next
			next += f.end[s]
		}
		f.end[s] += f.pre[s]
		at := f.pre[s] + 1
		for _, c := range f.order[f.kids[s] : f.kids[s]+f.nkids[s]] {
			f.pre[c] = at
			at += f.end[c] // still c's size: c comes later in order
		}
	}
	return roots
}

// hop is the first trunk on the live forest's path from switch from to
// switch to, or -1 when there is none: the same switch, either end not
// reached (down), or the two in different components. It is the
// child whose interval holds to when to is below from, else the trunk
// up — O(log children), a binary search.
func (f *spanningForest) hop(from, to int) int {
	if from == to || f.pre[from] < 0 || f.pre[to] < 0 || f.root[from] != f.root[to] {
		return -1
	}
	p := f.pre[to]
	if p < f.pre[from] || p >= f.end[from] {
		return int(f.up[from])
	}
	kids := f.order[f.kids[from] : f.kids[from]+f.nkids[from]]
	lo, hi := 0, len(kids) // kids[lo] starts at or before p; kids[hi] after it
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; f.pre[kids[mid]] <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int(f.up[kids[lo]])
}

// never is walk's predicate for a fabric with nothing failed or down.
func never(int) bool { return false }

// buildPlan is everything build decides before it constructs anything:
// the wiring (empty on a bus testbed), its spanning tree, the shard
// partition, the expanded topology-fault schedule and the control node.
// It is a pure function of the configuration, the declared hosts and the
// staged script, and the only place any of them is rejected.
type buildPlan struct {
	fabricPlan
	forest  *spanningForest
	shards  int
	shardOf []int       // per switch
	events  []topoEvent // sorted by time
}

// Check reports the error the first Run or RunFor would fail with — an
// impossible configuration or a fault aimed past the fabric the declared
// hosts generate — or nil, without constructing anything. It is the
// planning half of build, so whatever Check accepts, build constructs.
func (tb *Testbed) Check() error {
	_, err := tb.plan()
	return err
}

// plan is the first half of build. Order is the order errors are
// reported in.
func (tb *Testbed) plan() (p *buildPlan, err error) {
	if err = checkConfig(&tb.cfg); err != nil {
		return nil, err
	}
	p = &buildPlan{}
	if tb.cfg.Medium != MediumBus {
		if p.fabricPlan, err = planFabric(tb.cfg.Topology, len(tb.nodes)); err != nil {
			return nil, err
		}
	}
	p.forest = newSpanningForest(p.switches, p.trunks)
	if roots := p.forest.walk(never, never); roots > 1 {
		return nil, rejectf("topology", "topology %v is disconnected (%d components)", tb.cfg.Topology.Kind, roots)
	}
	// Every switch — and with it the hosts it serves — is assigned to one
	// shard before anything is wired.
	p.shards = tb.resolveShardCount(len(p.edges))
	p.shardOf = planShards(p.fabricPlan, p.forest, len(tb.nodes), p.shards)
	if p.events, err = planTopoFaults(tb.cfg.TopologyFaults, tb.topologyActive(), len(p.trunks), p.switches); err != nil {
		return nil, err
	}
	return p, nil
}

// buildMedia creates the shard runtime and constructs the planned media
// on it: the fabric's switches in index order and trunks in wiring order,
// each switch directly on the scheduler and pool of the shard that owns
// it, with non-spanning-tree trunks blocked on both ends — or, on a bus
// testbed, no switch at all and the one bus. Called once from build; the
// wiring then persists across Reset. The function it returns places host
// i (add order): the edge switch it attaches to (round-robin across the
// edge switches; nil on a bus) and the shard it lives on.
func (tb *Testbed) buildMedia(plan *buildPlan) (segmentOf func(i int) (*ether.Switch, int)) {
	spec := tb.cfg.Topology
	if spec == nil {
		spec = &TopologySpec{}
	}
	hostRate := tb.cfg.BitsPerSecond
	if hostRate <= 0 {
		hostRate = 100e6
	}
	trunkRate := spec.TrunkBitsPerSecond
	if trunkRate <= 0 {
		trunkRate = 10 * hostRate
	}
	trunkProp := spec.TrunkPropagation
	if trunkProp <= 0 {
		trunkProp = tb.cfg.Propagation
	}
	tb.topo.delay = DefaultReconvergeDelay
	if spec.ReconvergeDelay > 0 {
		tb.topo.delay = spec.ReconvergeDelay
	}
	tb.topo.events = plan.events
	tb.initShardRuntime(plan.shards)
	shardOf := plan.shardOf
	tb.forest = plan.forest
	// One plan for every switch: hosts enter it as they attach, and a
	// host on another switch is reached along the live forest.
	routes := ether.NewRoutes()
	routes.Toward = func(from, to int) int {
		ti := tb.forest.hop(from, to)
		if ti < 0 {
			return -1
		}
		tr := &tb.trunks[ti]
		if tr.wire.a == from {
			return tr.pa
		}
		return tr.pb
	}
	tb.fabric = make([]*ether.Switch, plan.switches)
	for i := range tb.fabric {
		tb.fabric[i] = ether.NewSwitch(tb.shards.scheds[shardOf[i]], ether.SwitchConfig{
			BitsPerSecond: tb.cfg.BitsPerSecond,
			Propagation:   tb.cfg.Propagation,
			BitErrorRate:  tb.cfg.BitErrorRate,
			FullDuplex:    tb.cfg.Medium == MediumSwitchFullDuplex,
			Pool:          tb.shards.pools[shardOf[i]],
			ID:            i,
			Routes:        routes,
		})
	}
	trunkCfg := ether.LinkConfig{
		BitsPerSecond: trunkRate,
		Propagation:   trunkProp,
		BitErrorRate:  tb.cfg.BitErrorRate,
	}
	tb.trunks = make([]fabricTrunk, len(plan.trunks))
	for ti, w := range plan.trunks {
		tr := &tb.trunks[ti]
		tr.wire = w
		// Every trunk is a mailbox channel regardless of whether its ends
		// share a shard: the engine's behavior must not depend on the
		// partition, or shard counts would produce different outputs.
		// Each direction cuts its frames from the transmitting shard's pool.
		ab, ba := trunkCfg, trunkCfg
		ab.Pool = tb.shards.pools[shardOf[w.a]]
		ba.Pool = tb.shards.pools[shardOf[w.b]]
		tr.ch, tr.pa, tr.pb = ether.ConnectTrunkChannel(tb.fabric[w.a], tb.fabric[w.b], ab, ba)
		tb.shards.trunks.Track(tr.ch, shardOf[w.a], shardOf[w.b])
		// The base profile Reset restores after degrade faults is read back
		// from the built medium (post-default-fill), not from the spec: a
		// zero spec propagation means "LinkConfig default", and restoring a
		// raw zero would keep the degraded value instead.
		tr.baseProp, tr.baseBER = tr.ch.Profile()
		tr.inTree = plan.forest.inTree[ti]
		if !tr.inTree {
			tb.setTrunkBlocked(ti, true)
		}
	}
	// Per-trunk state gauges stay readable on small fabrics; a 320-switch
	// fat-tree would bloat every RunReport, so they gate off above
	// trunkStateGaugeMax. Names are interned once here — fabricSnapshot
	// runs on report assembly and must not format strings per gather.
	if len(tb.trunks) <= trunkStateGaugeMax {
		tb.trunkStateNames = make([]string, len(tb.trunks))
		for i := range tb.trunks {
			tb.trunkStateNames[i] = fmt.Sprintf("trunk%02d_state", i)
		}
	}
	if tb.cfg.Medium == MediumBus {
		tb.bus = ether.NewSharedBus(tb.sched, ether.BusConfig{
			BitsPerSecond: tb.cfg.BitsPerSecond,
			Propagation:   tb.cfg.Propagation,
			BitErrorRate:  tb.cfg.BitErrorRate,
			Pool:          tb.pool,
		})
		return func(int) (*ether.Switch, int) { return nil, 0 }
	}
	return func(i int) (*ether.Switch, int) {
		edge := plan.edges[i%len(plan.edges)]
		return tb.fabric[edge], shardOf[edge]
	}
}

// planShards assigns every switch to one of k shards. Edge switches are
// cut into k contiguous blocks (in plan.edges order) balanced by
// attached-host count — contiguity keeps pods/neighbor switches
// together, a cheap stand-in for a min-cut since every generator lays
// related switches out adjacently. Interior switches (cores,
// aggregators) then adopt the majority shard of their spanning-tree
// children, processed leaves-first, so an aggregator lands with the pod
// block it serves and most tree trunks stay shard-internal. The result
// is a pure function of (plan, host count, k): independent of seeds,
// GOMAXPROCS and run history.
func planShards(plan fabricPlan, tree *spanningForest, hosts, k int) []int {
	shard := make([]int, plan.switches)
	if k == 1 {
		return shard // one shard owns everything (and a bus plan has no switch to walk)
	}
	for i := range shard {
		shard[i] = -1
	}
	hostsPer := make([]int, plan.switches) // hosts attach round-robin to the edges
	for i := 0; i < hosts; i++ {
		hostsPer[plan.edges[i%len(plan.edges)]]++
	}
	s, cum := 0, 0
	for i, e := range plan.edges {
		shard[e] = s
		cum += hostsPer[e]
		remaining := len(plan.edges) - i - 1
		if s < k-1 && cum*k >= (s+1)*hosts && remaining >= k-1-s {
			s++
		}
	}
	children := make([][]int, plan.switches)
	for v, p := range tree.parent {
		if p != v {
			children[p] = append(children[p], v)
		}
	}
	counts := make([]int, k)
	for i := len(tree.order) - 1; i >= 0; i-- {
		v := tree.order[i]
		if shard[v] >= 0 {
			continue
		}
		for j := range counts {
			counts[j] = 0
		}
		best := -1
		for _, c := range children[v] {
			if sc := shard[c]; sc >= 0 {
				counts[sc]++
				if best < 0 || counts[sc] > counts[best] || (counts[sc] == counts[best] && sc < best) {
					best = sc
				}
			}
		}
		if best < 0 {
			best = 0
		}
		shard[v] = best
	}
	return shard
}

// trunkStateGaugeMax bounds the fabrics that emit per-trunk state
// gauges (larger fabrics would bloat every report).
const trunkStateGaugeMax = 64

// Per-trunk gauge state encoding.
const (
	trunkStateForwarding = 0
	trunkStateBlocked    = 1
	trunkStateFailed     = 2
)

// fabricSnapshot aggregates the fabric's switches into one metrics
// source ("testbed"/"fabric"): per-switch sources at 320 switches would
// bloat every RunReport, and fabric-wide totals are what campaigns
// compare. Alongside the forwarding totals it reports the fault
// engine's failover counters and the fabric's live trunk state — the
// blocked_trunks gauge tracks runtime block/unblock, not the build-time
// layout, so spanning-tree failover is observable.
func (tb *Testbed) fabricSnapshot(sn *MetricsSnapshot) {
	var ingress, fwd, flood, blockedFr, dropped, drops uint64
	downSwitches := 0
	for _, sw := range tb.fabric {
		ingress += sw.IngressFrames
		fwd += sw.ForwardedFrames
		flood += sw.FloodedFrames
		blockedFr += sw.BlockedFrames
		dropped += sw.DroppedFrames
		if sw.Down() {
			downSwitches++
		}
		drops += sw.PortQueueDrops()
	}
	sn.Counter("ingress_frames", ingress)
	sn.Counter("forwarded_frames", fwd)
	sn.Counter("flooded_frames", flood)
	sn.Counter("blocked_frames", blockedFr)
	sn.Counter("dropped_frames", dropped)
	sn.Counter("port_queue_drops", drops)
	sn.Counter("failovers", tb.topo.failovers)
	sn.Counter("reconverge_ns_total", uint64(tb.topo.reconvergeTotal))
	sn.Gauge("reconverge_last_ns", float64(tb.topo.reconvergeLast))
	sn.Gauge("switches", float64(len(tb.fabric)))
	sn.Gauge("down_switches", float64(downSwitches))
	sn.Gauge("trunks", float64(len(tb.trunks)))
	sn.Gauge("blocked_trunks", float64(tb.blockedTrunks()))
	failedTrunks := 0
	for i := range tb.trunks {
		if tb.trunks[i].failed {
			failedTrunks++
		}
	}
	sn.Gauge("failed_trunks", float64(failedTrunks))
	for i, name := range tb.trunkStateNames {
		state := trunkStateForwarding
		switch {
		case tb.trunks[i].failed:
			state = trunkStateFailed
		case tb.trunkBlocked(i):
			state = trunkStateBlocked
		}
		sn.Gauge(name, float64(state))
	}
}

// TrunkCount reports the number of trunks in the built fabric.
func (tb *Testbed) TrunkCount() int { return len(tb.trunks) }

// TrunkStatus is one trunk's live state (see Testbed.TrunkStatus).
type TrunkStatus struct {
	// A and B are the end switch indices.
	A, B int
	// InTree marks membership in the build-time spanning tree.
	InTree bool
	// Blocked and Failed are the live spanning-tree and fault states.
	Blocked, Failed bool
	// Propagation and BitErrorRate are the live profile (degrade faults
	// override the built values until Reset).
	Propagation  time.Duration
	BitErrorRate float64
}

// TrunkStatus reports a trunk's live state by wiring index.
func (tb *Testbed) TrunkStatus(i int) (TrunkStatus, error) {
	if i < 0 || i >= len(tb.trunks) {
		return TrunkStatus{}, fmt.Errorf("virtualwire: no trunk %d (fabric has %d)", i, len(tb.trunks))
	}
	tr := &tb.trunks[i]
	st := TrunkStatus{
		A: tr.wire.a, B: tr.wire.b,
		InTree:  tr.inTree,
		Blocked: tb.trunkBlocked(i),
		Failed:  tr.failed,
	}
	st.Propagation, st.BitErrorRate = tr.ch.Profile()
	return st, nil
}

// FabricSwitches reports the number of switches in the built fabric (1
// for the single switch; 0 on a bus testbed, or before build).
func (tb *Testbed) FabricSwitches() int { return len(tb.fabric) }

// AddHostGroup adds n hosts named <prefix><seq> (four-digit sequence)
// with deterministic MAC (02:56:57:...) and IP (10.x.y.z) identities
// derived from a testbed-wide host sequence — the bulk-population API for
// generated topologies, where hand-writing a 1000-row NODE_TABLE is not
// an option. Returns the new nodes in addition order.
func (tb *Testbed) AddHostGroup(prefix string, n int) ([]*Node, error) {
	if n <= 0 {
		return nil, fmt.Errorf("virtualwire: host group size %d", n)
	}
	if prefix == "" {
		prefix = "h"
	}
	if n > 0xFFFFFF-tb.hostSeq {
		return nil, fmt.Errorf("virtualwire: host sequence overflow: %d more hosts after %d (limit %d)", n, tb.hostSeq, 0xFFFFFF)
	}
	out := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		tb.hostSeq++
		s := tb.hostSeq
		name := fmt.Sprintf("%s%04d", prefix, s)
		mac := packet.MAC{0x02, 0x56, 0x57, byte(s >> 16), byte(s >> 8), byte(s)}
		ip := packet.IP{10, byte(s >> 16), byte(s >> 8), byte(s)}
		nd, err := tb.addHost(name, mac, ip)
		if err != nil {
			return out, err
		}
		out = append(out, nd)
	}
	return out, nil
}
