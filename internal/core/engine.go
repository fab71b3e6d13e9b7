package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// Jiffy is the software-timer granularity of the paper's Linux 2.4
// implementation; DELAY durations are rounded up to it.
const Jiffy = 10 * time.Millisecond

// CostModel charges virtual processing time per intercepted packet,
// reproducing the kernel-module CPU costs behind Figure 8 (see DESIGN.md,
// "Substitutions"). The zero value disables cost accounting entirely and
// the engine forwards synchronously.
type CostModel struct {
	// Base is charged for every intercepted packet.
	Base time.Duration
	// PerTuple is charged per filter tuple the paper's linear scan
	// compares for the frame (the linear-search term). Charging it makes
	// the engine run that scan; with it zero no run output depends on the
	// search, and the engine walks the compiled dispatch tree instead.
	PerTuple time.Duration
	// PerCounterUpdate is charged per counter update (table walk).
	PerCounterUpdate time.Duration
	// PerAction is charged per action fired.
	PerAction time.Duration
}

func (c CostModel) enabled() bool {
	return c.Base > 0 || c.PerTuple > 0 || c.PerCounterUpdate > 0 || c.PerAction > 0
}

// EngineStats counts engine events.
type EngineStats struct {
	PacketsIntercepted uint64
	PacketsMatched     uint64
	CounterUpdates     uint64
	TermEvals          uint64
	CondEvals          uint64
	ActionsFired       uint64
	Drops              uint64
	Delays             uint64
	Dups               uint64
	Modifies           uint64
	Reorders           uint64
	FailConsumed       uint64
	CtlSent            uint64
	CtlRcvd            uint64
	CtlBytes           uint64
	InitChunksRcvd     uint64
	InitDupChunks      uint64 // duplicate INIT chunks (controller retries)
	InitReacks         uint64 // acks re-sent for INITs already assembled
}

// FaultEvent records one injected fault for post-run reporting.
type FaultEvent struct {
	At     time.Duration
	Kind   ActionKind
	Filter FilterID
	From   NodeID
	To     NodeID
	Dir    Direction
}

// packetCtx is the in-flight packet an action cascade may apply to.
type packetCtx struct {
	fr       *ether.Frame
	filter   FilterID
	from, to NodeID
	dir      Direction
	consumed bool
	dropped  bool // consumed by DROP: dead once the cascade has run
	dup      bool
}

type reorderBuf struct {
	action ActionID
	frames []*ether.Frame
	dir    Direction
}

// Engine is the combined Fault Injection Engine and Fault Analysis Engine
// for one testbed node. It implements stack.Layer and is inserted between
// the (R)LL and the protocol under test, exactly where the paper's
// Netfilter hook sits. An Engine is inert (pure pass-through plus control
// message handling) until the controller initializes and starts it.
type Engine struct {
	base  stack.Base
	sched *sim.Scheduler
	mac   packet.MAC
	rng   *rand.Rand       // optional pinned fault-randomness source (SetRand)
	pool  *ether.FramePool // the node's frame pool (SetPool); nil allocates

	prog        *Program
	self        NodeID
	controlNode NodeID
	classifier  *Classifier
	macToNode   map[packet.MAC]NodeID
	active      bool
	failed      bool

	enabled    []bool
	values     []int64
	termStatus []bool
	condStatus []bool
	condHere   []bool

	pending  []ActionID // armed one-shot faults
	reorders []*reorderBuf

	cur          *packetCtx
	cascadeDepth int

	// ctxScratch and matchScratch are reused across top-level process
	// calls to keep the interception hot path allocation-free. A nested
	// interception (an action cascade injecting a frame that re-enters
	// the engine synchronously, e.g. a reorder release answered inline)
	// falls back to heap allocation — detected by e.cur being set.
	ctxScratch   packetCtx
	matchScratch []CounterID

	// INIT reassembly: initTotal is the chunk count of the distribution
	// being assembled (0: none is), initHave marks which chunks arrived
	// (a bitmap, so an empty chunk counts once) and initChunks holds
	// their bytes, copied out of the frames. The chunk buffers and
	// initBlob, the joined program, keep their capacity across Reset: a
	// reused testbed re-launching its scenario reassembles into them.
	initChunks [][]byte
	initHave   []uint64
	initTotal  int
	initGot    int
	initBlob   []byte
	// initDone records that a program was assembled and loaded over the
	// control plane; later duplicate chunks (lost acks, controller
	// retries, a second Launch) are re-acked instead of re-assembled, so
	// a live scenario is never reset by a stale retransmission.
	initDone bool

	// cachedBlob/cachedProg memoize the last INIT decode so a reused
	// testbed re-running the same scenario skips the gob decode and — via
	// load's pointer-identity fast path — the full table rebuild.
	cachedBlob []byte
	cachedProg *Program

	lastActivity time.Duration
	activitySent bool

	// Cost is the virtual processing-time model (zero = free).
	Cost CostModel
	// Stats accumulates counters.
	Stats EngineStats

	controller *Controller
	faultLog   []FaultEvent
}

var _ stack.Layer = (*Engine)(nil)

// NewEngine creates an engine for the host with the given MAC. It stays
// inert until it receives INIT and START from the controller (or is
// loaded directly via LoadLocal).
func NewEngine(sched *sim.Scheduler, mac packet.MAC) *Engine {
	return &Engine{sched: sched, mac: mac, self: -1, controlNode: -1}
}

// SetPool wires the node's frame pool into the engine: frames whose
// journey ends here (DROP, a FAIL-crashed node, consumed control frames)
// are recycled into it, and control frames and DUP copies are cut from
// it. Safe to leave unset: a nil pool degrades to plain allocation.
func (e *Engine) SetPool(p *ether.FramePool) { e.pool = p }

// SetRand pins the random source for probabilistic faults (CORRUPT byte
// draws). When unset, draws come from the scheduler's shared generator;
// the testbed derives one generator per engine from (seed, node order)
// so draws are interleaving-independent.
func (e *Engine) SetRand(r *rand.Rand) { e.rng = r }

func (e *Engine) rand() *rand.Rand {
	if e.rng != nil {
		return e.rng
	}
	return e.sched.Rand()
}

// SetBelow implements stack.Layer.
func (e *Engine) SetBelow(d stack.Down) { e.base.SetBelow(d) }

// SetAbove implements stack.Layer.
func (e *Engine) SetAbove(u stack.Up) { e.base.SetAbove(u) }

// Node returns this engine's node ID (-1 before initialization).
func (e *Engine) Node() NodeID { return e.self }

// Active reports whether a scenario is running on this engine.
func (e *Engine) Active() bool { return e.active }

// Failed reports whether a FAIL action has crashed this node.
func (e *Engine) Failed() bool { return e.failed }

// Snapshot implements the uniform metrics hook: classification work,
// fault injection counts and control-plane traffic.
func (e *Engine) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("packets_intercepted", e.Stats.PacketsIntercepted)
	sn.Counter("packets_matched", e.Stats.PacketsMatched)
	sn.Counter("counter_updates", e.Stats.CounterUpdates)
	sn.Counter("term_evals", e.Stats.TermEvals)
	sn.Counter("cond_evals", e.Stats.CondEvals)
	sn.Counter("actions_fired", e.Stats.ActionsFired)
	sn.Counter("drops", e.Stats.Drops)
	sn.Counter("delays", e.Stats.Delays)
	sn.Counter("dups", e.Stats.Dups)
	sn.Counter("modifies", e.Stats.Modifies)
	sn.Counter("reorders", e.Stats.Reorders)
	sn.Counter("fail_consumed", e.Stats.FailConsumed)
	sn.Counter("ctl_sent", e.Stats.CtlSent)
	sn.Counter("ctl_rcvd", e.Stats.CtlRcvd)
	sn.Counter("ctl_bytes", e.Stats.CtlBytes)
	sn.Counter("init_chunks_rcvd", e.Stats.InitChunksRcvd)
	sn.Counter("init_dup_chunks", e.Stats.InitDupChunks)
	sn.Counter("init_reacks", e.Stats.InitReacks)
	sn.Counter("faults_injected", uint64(len(e.faultLog)))
	if e.failed {
		sn.Gauge("failed", 1)
	} else {
		sn.Gauge("failed", 0)
	}
}

// ClassifierWork reports the loaded classifier's cumulative work: filter
// entries visited, per-filter tuple comparisons, and dispatch-tree probes
// (zero whenever Cost.PerTuple is charged: that engine runs the linear
// scan).
func (e *Engine) ClassifierWork() (filtersScanned, tuplesCompared, nodeTests uint64) {
	if e.classifier == nil {
		return 0, 0, 0
	}
	return e.classifier.FiltersScanned, e.classifier.TuplesCompared, e.classifier.NodeTests
}

// CounterValue returns a counter's current value at this engine (the
// authoritative value when the counter is homed here).
func (e *Engine) CounterValue(id CounterID) int64 {
	if e.prog == nil || int(id) >= len(e.values) {
		return 0
	}
	return e.values[id]
}

// CounterValueByName resolves and reads a counter.
func (e *Engine) CounterValueByName(name string) (int64, bool) {
	if e.prog == nil {
		return 0, false
	}
	id, ok := e.prog.CounterByName(name)
	if !ok {
		return 0, false
	}
	return e.values[id], true
}

// LoadLocal installs the program directly, bypassing the INIT exchange.
// The controller uses it for its own co-located engine; tests use it to
// drive an engine standalone.
func (e *Engine) LoadLocal(p *Program, self, controlNode NodeID) {
	e.load(p, self, controlNode)
}

func (e *Engine) load(p *Program, self, controlNode NodeID) {
	// The cost model picks the scan: PerTuple charges the linear scan's
	// per-frame tuple count, so charging it means running that scan.
	strategy := StrategyCompiled
	if e.Cost.PerTuple > 0 {
		strategy = StrategyLinear
	}
	if e.prog == p && e.self == self && e.controlNode == controlNode &&
		e.classifier != nil && e.classifier.Strategy == strategy {
		// Same tables, same identity (a reused testbed re-running the
		// scenario): rewind the execution state in place instead of
		// reallocating every table-sized slice and map.
		e.classifier.Reset()
		for i := range e.enabled {
			e.enabled[i] = false
		}
		for i := range e.values {
			e.values[i] = 0
		}
		for i := range e.termStatus {
			e.termStatus[i] = false
		}
		for i := range e.condStatus {
			e.condStatus[i] = false
		}
		// condHere depends only on (p, self) — both unchanged.
		e.pending = e.pending[:0]
		e.reorders = e.reorders[:0]
		e.failed = false
		e.active = false
		return
	}
	e.prog = p
	e.self = self
	e.controlNode = controlNode
	e.classifier = NewClassifier(p)
	e.classifier.Strategy = strategy
	e.macToNode = make(map[packet.MAC]NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		e.macToNode[n.MAC] = NodeID(i)
	}
	e.enabled = make([]bool, len(p.Counters))
	e.values = make([]int64, len(p.Counters))
	e.termStatus = make([]bool, len(p.Terms))
	e.condStatus = make([]bool, len(p.Conds))
	e.condHere = make([]bool, len(p.Conds))
	for ci := range p.Conds {
		for _, n := range p.Conds[ci].EvalNodes {
			if n == self {
				e.condHere[ci] = true
			}
		}
	}
	e.pending = nil
	e.reorders = nil
	e.failed = false
	e.active = false
}

// Activate starts scenario execution: initial term statuses are computed
// from zero-valued counters and every condition evaluated here gets its
// initial edge (so (TRUE) initialization rules fire exactly once).
func (e *Engine) Activate() {
	if e.prog == nil {
		return
	}
	e.active = true
	for t := range e.prog.Terms {
		e.termStatus[t] = e.evalTerm(TermID(t))
	}
	all := make([]CondID, 0, len(e.prog.Conds))
	for c := range e.prog.Conds {
		all = append(all, CondID(c))
	}
	e.sweepConds(all)
}

// Deactivate stops scenario execution (frames pass through untouched).
// A FAIL-crashed node stays crashed: the emulated hardware failure does
// not heal when the test case ends — reviving it mid-simulation would
// hand the revenant stale protocol state (e.g. an outdated Rether ring)
// and corrupt everything that runs after the scenario.
func (e *Engine) Deactivate() {
	e.active = false
}

// Revive clears a FAIL crash (the "reboot" between test cases).
func (e *Engine) Revive() { e.failed = false }

// Reset rewinds the engine to its pre-launch state for testbed reuse:
// stats, the fault log, pending faults and the INIT reassembly state are
// cleared, while the loaded tables, the INIT decode cache and the
// reassembly buffers survive so the next launch of the same scenario
// reassembles without allocating and hits load's in-place fast path.
func (e *Engine) Reset() {
	e.Stats = EngineStats{}
	e.faultLog = e.faultLog[:0]
	e.pending = e.pending[:0]
	e.reorders = e.reorders[:0]
	e.cur = nil
	e.cascadeDepth = 0
	e.active = false
	e.failed = false
	e.endInit()
	e.initDone = false
	e.lastActivity = 0
	e.activitySent = false
}

// --- stack.Layer data path ---

// SendDown implements stack.Layer (outbound interception).
func (e *Engine) SendDown(fr *ether.Frame) {
	if fr.EtherType() == packet.EtherTypeVWCtl {
		e.base.PassDown(fr)
		return
	}
	if e.failed {
		e.Stats.FailConsumed++
		e.pool.Put(fr)
		return
	}
	if !e.active {
		e.base.PassDown(fr)
		return
	}
	consumed, cost, dup := e.process(fr, DirSend)
	e.forward(fr, DirSend, consumed, cost, dup)
}

// DeliverUp implements stack.Layer (inbound interception).
func (e *Engine) DeliverUp(fr *ether.Frame) {
	if fr.EtherType() == packet.EtherTypeVWCtl {
		e.handleControlFrame(fr)
		e.pool.Put(fr) // the decoded message aliased it only while handled
		return
	}
	if e.failed {
		e.Stats.FailConsumed++
		e.pool.Put(fr)
		return
	}
	if !e.active {
		e.base.PassUp(fr)
		return
	}
	consumed, cost, dup := e.process(fr, DirRecv)
	e.forward(fr, DirRecv, consumed, cost, dup)
}

// forward continues a frame's journey, charging the cost model's virtual
// processing delay and emitting DUP copies. A consumed frame was either
// dropped — process recycled it — or parked by DELAY/REORDER, which own
// it until they inject it.
func (e *Engine) forward(fr *ether.Frame, dir Direction, consumed bool, cost time.Duration, dup bool) {
	if consumed {
		return
	}
	if e.failed {
		// A FAIL fired while this very packet was being processed: the
		// crash takes effect immediately.
		e.Stats.FailConsumed++
		e.pool.Put(fr)
		return
	}
	if cost > 0 {
		// Only the delayed path pays for a closure; the common zero-cost
		// path emits inline, allocation-free.
		e.sched.After(cost, "vw.cost", func() { e.emit(fr, dir, dup) })
		return
	}
	e.emit(fr, dir, dup)
}

// emit injects fr and, for DUP, a copy of it. The copy is taken first:
// injecting hands fr to the next layer, and the end of the chain recycles
// it before inject returns.
func (e *Engine) emit(fr *ether.Frame, dir Direction, dup bool) {
	if !dup {
		e.inject(fr, dir)
		return
	}
	cp := e.pool.Clone(fr)
	e.inject(fr, dir)
	e.inject(cp, dir)
}

// inject re-introduces a frame beyond the engine in the given direction.
func (e *Engine) inject(fr *ether.Frame, dir Direction) {
	if dir == DirSend {
		e.base.PassDown(fr)
		return
	}
	e.base.PassUp(fr)
}

// process runs Figure 4(b)'s control flow for one packet: classify,
// update counters (cascading through terms, conditions and actions —
// fault actions may consume the packet inline), then apply any armed
// one-shot faults.
func (e *Engine) process(fr *ether.Frame, dir Direction) (consumed bool, cost time.Duration, dup bool) {
	e.Stats.PacketsIntercepted++
	tuplesBefore := e.classifier.TuplesCompared
	updatesBefore := e.Stats.CounterUpdates
	actionsBefore := e.Stats.ActionsFired

	flt := e.classifier.Classify(fr)
	if flt >= 0 {
		e.Stats.PacketsMatched++
		e.noteActivity()
		from, okF := e.macToNode[fr.Src()]
		to, okT := e.macToNode[fr.Dst()]
		if !okF {
			from = -1
		}
		if !okT {
			to = -1
		}
		var ctx *packetCtx
		var matched []CounterID
		nested := e.cur != nil
		if nested {
			ctx = &packetCtx{fr: fr, filter: flt, from: from, to: to, dir: dir}
		} else {
			ctx = &e.ctxScratch
			*ctx = packetCtx{fr: fr, filter: flt, from: from, to: to, dir: dir}
			matched = e.matchScratch[:0]
		}
		e.cur = ctx
		// 1. Counters (before faults: a dropped packet is still
		// counted, which Figure 5's SYNACK-drop rule relies on).
		// The matching set is snapshotted first: an ENABLE_CNTR fired
		// by an earlier counter's cascade takes effect from the NEXT
		// packet, not retroactively for this one (Figure 5's script
		// depends on the handshake ACK enabling DATA without being
		// counted by it).
		for ci := range e.prog.Counters {
			c := &e.prog.Counters[ci]
			if c.Kind != CounterEvent || c.Home != e.self || !e.enabled[ci] {
				continue
			}
			if c.Filter != flt || c.From != from || c.To != to || c.Dir != dir {
				continue
			}
			matched = append(matched, CounterID(ci))
		}
		for _, ci := range matched {
			e.bumpCounter(ci, e.values[ci]+1)
		}
		// 2. Armed one-shot faults.
		if !ctx.consumed {
			e.applyPending(ctx)
		}
		e.cur = nil
		consumed = ctx.consumed
		dup = ctx.dup
		if ctx.dropped {
			e.pool.Put(fr)
		}
		if !nested {
			e.matchScratch = matched[:0]
		}
	}

	if e.Cost.enabled() {
		cost = e.Cost.Base +
			time.Duration(e.classifier.TuplesCompared-tuplesBefore)*e.Cost.PerTuple +
			time.Duration(e.Stats.CounterUpdates-updatesBefore)*e.Cost.PerCounterUpdate +
			time.Duration(e.Stats.ActionsFired-actionsBefore)*e.Cost.PerAction
	}
	return consumed, cost, dup
}

// --- execution-state cascade (Figure 3) ---

const maxCascadeDepth = 1000

func (e *Engine) bumpCounter(id CounterID, v int64) {
	e.cascadeDepth++
	defer func() { e.cascadeDepth-- }()
	if e.cascadeDepth > maxCascadeDepth {
		e.runtimeError(fmt.Sprintf("cascade depth exceeded updating counter %q (action cycle in script?)",
			e.prog.Counters[id].Name))
		return
	}
	e.Stats.CounterUpdates++
	e.values[id] = v
	c := &e.prog.Counters[id]
	for _, n := range c.RemoteNodes {
		e.sendCtl(n, &Msg{Kind: MsgCounterValue, From: e.self, Counter: id, Value: v})
	}
	e.reevalTerms(c.Terms)
}

// reevalTerms re-evaluates every listed term homed here, propagates
// status changes, and then sweeps the affected conditions exactly once.
// All terms update before any condition evaluates: a condition combining
// two terms of the same counter (e.g. CWND<=SSTHRESH and CWND>SSTHRESH)
// must never see a half-updated mixture.
func (e *Engine) reevalTerms(ts []TermID) {
	// Stack-backed scratch: reevalTerms can recurse through action
	// execution (cond fires -> counter op -> reevalTerms), so the buffer
	// must be per-call, and real scripts touch only a handful of conds.
	var buf [8]CondID
	affected := buf[:0]
	for _, t := range ts {
		term := &e.prog.Terms[t]
		if term.Home != e.self {
			continue
		}
		newS := e.evalTerm(t)
		if newS == e.termStatus[t] {
			continue
		}
		e.termStatus[t] = newS
		for _, n := range term.StatusNodes {
			e.sendCtl(n, &Msg{Kind: MsgTermStatus, From: e.self, Term: t, Status: newS})
		}
		for _, c := range term.Conds {
			affected = appendUniqueCondID(affected, c)
		}
	}
	if len(affected) > 0 {
		e.sweepConds(affected)
	}
}

func appendUniqueCondID(s []CondID, v CondID) []CondID {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func (e *Engine) evalTerm(t TermID) bool {
	term := &e.prog.Terms[t]
	e.Stats.TermEvals++
	lhs := e.operandValue(term.LHS)
	rhs := e.operandValue(term.RHS)
	return term.Op.Eval(lhs, rhs)
}

func (e *Engine) operandValue(o Operand) int64 {
	if o.IsConst {
		return o.Const
	}
	return e.values[o.Counter]
}

// sweepConds re-evaluates the conditions affected by one term change in
// two phases, mirroring Figure 4(b): first every condition is evaluated
// against the state as it stands at the event, then the false-to-true
// ones fire in rule order. The two phases matter: an action of an
// earlier rule may reset the very counter a later rule's condition
// tests (Figure 6's TokensTo2 does exactly this), and the later rule
// must still see the pre-action state.
func (e *Engine) sweepConds(conds []CondID) {
	// Stack-backed and per-call, like reevalTerms' scratch: fireCond can
	// cascade into another sweep.
	var buf [8]CondID
	fired := buf[:0]
	for _, c := range conds {
		if !e.condHere[c] {
			continue
		}
		e.Stats.CondEvals++
		newS := e.evalExpr(e.prog.Conds[c].Expr)
		old := e.condStatus[c]
		e.condStatus[c] = newS
		if newS && !old {
			fired = append(fired, c)
		}
	}
	for _, c := range fired {
		e.fireCond(c)
	}
}

func (e *Engine) evalExpr(x *CondExpr) bool {
	switch x.Op {
	case CondTrue:
		return true
	case CondTerm:
		return e.termStatus[x.Term]
	case CondAnd:
		return e.evalExpr(x.Kids[0]) && e.evalExpr(x.Kids[1])
	case CondOr:
		return e.evalExpr(x.Kids[0]) || e.evalExpr(x.Kids[1])
	case CondNot:
		return !e.evalExpr(x.Kids[0])
	}
	return false
}

func (e *Engine) fireCond(c CondID) {
	cond := &e.prog.Conds[c]
	for _, a := range cond.Actions {
		if e.prog.Actions[a].Node != e.self {
			continue
		}
		e.execAction(a, cond.Rule)
	}
}

// --- actions ---

func (e *Engine) execAction(id ActionID, rule int) {
	e.Stats.ActionsFired++
	a := &e.prog.Actions[id]
	switch a.Kind {
	case ActDrop, ActDelay, ActReorder, ActDup, ActModify:
		if e.cur != nil && !e.cur.consumed && e.matchesCur(a) {
			e.applyFault(id, e.cur)
			return
		}
		// Arm for the next matching packet.
		e.pending = append(e.pending, id)
	case ActFail:
		e.failed = true
	case ActStop:
		e.sendCtl(e.controlNode, &Msg{
			Kind: MsgStop, From: e.self, Rule: rule, AtNanos: int64(e.sched.Now()),
		})
	case ActFlagErr:
		e.sendCtl(e.controlNode, &Msg{
			Kind: MsgError, From: e.self, Rule: rule, AtNanos: int64(e.sched.Now()), Message: "FLAG_ERR",
		})
	default:
		e.counterOp(a.Kind, a.Counter, a.Value)
	}
}

// ExecCounterOp applies a counter primitive programmatically, with the
// same semantics (including the term/condition cascade) as the
// corresponding script action. It exists for tooling and model-based
// tests; kind must be one of the ActXxxCntr/ActSetCurTime/
// ActElapsedTime kinds.
func (e *Engine) ExecCounterOp(kind ActionKind, id CounterID, v int64) {
	if e.prog == nil || int(id) >= len(e.values) || kind.IsFault() {
		return
	}
	e.Stats.ActionsFired++
	e.counterOp(kind, id, v)
}

// counterOp is the counter arm of an action, taking its operands as
// values rather than as an ActionEntry: ExecCounterOp must not append a
// synthetic entry to e.prog.Actions, because the Program may be shared
// read-only across testbeds (CompileScript) and the engine never mutates
// it, even transiently.
func (e *Engine) counterOp(kind ActionKind, id CounterID, v int64) {
	switch kind {
	case ActAssignCntr:
		e.enabled[id] = true
		e.bumpCounter(id, v)
	case ActEnableCntr:
		e.enabled[id] = true
	case ActDisableCntr:
		e.enabled[id] = false
	case ActIncrCntr:
		e.bumpCounter(id, e.values[id]+v)
	case ActDecrCntr:
		e.bumpCounter(id, e.values[id]-v)
	case ActResetCntr:
		e.bumpCounter(id, 0)
	case ActSetCurTime:
		e.bumpCounter(id, int64(e.sched.Now()/time.Millisecond))
	case ActElapsedTime:
		now := int64(e.sched.Now() / time.Millisecond)
		e.bumpCounter(id, now-e.values[id])
	}
}

// matchesCur reports whether a fault action applies to the packet being
// processed.
func (e *Engine) matchesCur(a *ActionEntry) bool {
	c := e.cur
	return a.Filter == c.filter && a.From == c.from && a.To == c.to && a.Dir == c.dir
}

// applyPending applies armed one-shot faults to the current packet.
func (e *Engine) applyPending(ctx *packetCtx) {
	// First, feed active reorder buffers.
	for i, rb := range e.reorders {
		a := &e.prog.Actions[rb.action]
		if a.Filter == ctx.filter && a.From == ctx.from && a.To == ctx.to && a.Dir == ctx.dir {
			rb.frames = append(rb.frames, ctx.fr)
			ctx.consumed = true
			if len(rb.frames) >= a.Count {
				e.releaseReorder(rb)
				e.reorders = append(e.reorders[:i], e.reorders[i+1:]...)
			}
			return
		}
	}
	keep := e.pending[:0]
	for _, id := range e.pending {
		a := &e.prog.Actions[id]
		if ctx.consumed || !e.matchesCur(a) {
			keep = append(keep, id)
			continue
		}
		e.applyFault(id, ctx)
	}
	e.pending = keep
}

// FaultLog returns the faults injected by this engine, in order.
func (e *Engine) FaultLog() []FaultEvent {
	out := make([]FaultEvent, len(e.faultLog))
	copy(out, e.faultLog)
	return out
}

// applyFault performs one fault on the given packet.
func (e *Engine) applyFault(id ActionID, ctx *packetCtx) {
	a := &e.prog.Actions[id]
	e.faultLog = append(e.faultLog, FaultEvent{
		At: e.sched.Now(), Kind: a.Kind,
		Filter: a.Filter, From: a.From, To: a.To, Dir: a.Dir,
	})
	switch a.Kind {
	case ActDrop:
		e.Stats.Drops++
		ctx.consumed = true
		ctx.dropped = true
	case ActDelay:
		e.Stats.Delays++
		ctx.consumed = true
		d := roundUpToJiffy(a.Duration)
		fr, dir := ctx.fr, ctx.dir
		e.sched.After(d, "vw.delay", func() { e.inject(fr, dir) })
	case ActDup:
		e.Stats.Dups++
		ctx.dup = true
	case ActModify:
		e.Stats.Modifies++
		e.modify(ctx.fr, a)
	case ActReorder:
		e.Stats.Reorders++
		ctx.consumed = true
		rb := &reorderBuf{action: id, dir: ctx.dir}
		rb.frames = append(rb.frames, ctx.fr)
		e.reorders = append(e.reorders, rb)
	}
}

// roundUpToJiffy models the 10 ms kernel software-timer granularity.
func roundUpToJiffy(d time.Duration) time.Duration {
	if d <= 0 {
		return Jiffy
	}
	j := (d + Jiffy - 1) / Jiffy
	return j * Jiffy
}

// modify overwrites bytes per the action's pattern, or perturbs one
// random byte past the Ethernet header (the checksum is deliberately not
// fixed up: "The checksum in such a case must be set correctly by the
// user", Section 5.2).
func (e *Engine) modify(fr *ether.Frame, a *ActionEntry) {
	if len(a.Pattern) > 0 {
		for i, b := range a.Pattern {
			off := a.PatternOff + i
			if off >= 0 && off < len(fr.Data) {
				fr.Data[off] = b
			}
		}
		return
	}
	if len(fr.Data) <= packet.EthHeaderLen {
		return
	}
	i := packet.EthHeaderLen + e.rand().Intn(len(fr.Data)-packet.EthHeaderLen)
	old := fr.Data[i]
	for fr.Data[i] == old {
		fr.Data[i] = byte(e.rand().Intn(256))
	}
}

// releaseReorder emits the buffered window in the configured permutation
// (reverse order when none given), back-to-back — the paper releases the
// burst "when the bottom half is scheduled next".
func (e *Engine) releaseReorder(rb *reorderBuf) {
	a := &e.prog.Actions[rb.action]
	order := a.Order
	if len(order) == 0 {
		order = make([]int, len(rb.frames))
		for i := range order {
			order[i] = len(rb.frames) - i
		}
	}
	for _, pos := range order {
		if pos >= 1 && pos <= len(rb.frames) {
			e.inject(rb.frames[pos-1], rb.dir)
		}
	}
}

// --- runtime errors & activity ---

func (e *Engine) runtimeError(text string) {
	e.sendCtl(e.controlNode, &Msg{
		Kind: MsgError, From: e.self, AtNanos: int64(e.sched.Now()),
		Message: "runtime: " + text,
	})
}

// noteActivity rate-limits liveness reports feeding the controller's
// inactivity timer (Section 6.2's "1sec" scenario timeout).
func (e *Engine) noteActivity() {
	timeout := e.prog.InactivityTimeout
	if timeout <= 0 {
		return
	}
	now := e.sched.Now()
	if e.activitySent && now-e.lastActivity < timeout/4 {
		return
	}
	e.lastActivity = now
	e.activitySent = true
	e.sendCtl(e.controlNode, &Msg{Kind: MsgActivity, From: e.self, AtNanos: int64(now)})
}

// --- control plane ---

// sendCtl routes a message to another node's engine (or locally when the
// destination is this node).
func (e *Engine) sendCtl(to NodeID, m *Msg) {
	if to < 0 {
		return
	}
	if to == e.self {
		e.handleCtl(m)
		return
	}
	fr, err := encodeMsg(e.pool, e.mac, e.prog.Nodes[to].MAC, m)
	if err != nil {
		return
	}
	e.Stats.CtlSent++
	e.Stats.CtlBytes += uint64(len(fr.Data))
	e.base.PassDown(fr)
}

// injectCtl transmits a pre-built control frame (used by the controller
// before the local engine is loaded).
func (e *Engine) injectCtl(fr *ether.Frame) {
	e.Stats.CtlSent++
	e.Stats.CtlBytes += uint64(len(fr.Data))
	e.base.PassDown(fr)
}

func (e *Engine) handleControlFrame(fr *ether.Frame) {
	dst := fr.Dst()
	if dst != e.mac && !dst.IsBroadcast() {
		return
	}
	var m Msg
	if err := decodeMsg(fr, &m); err != nil {
		return
	}
	e.Stats.CtlRcvd++
	e.handleCtl(&m)
}

func (e *Engine) handleCtl(m *Msg) {
	switch m.Kind {
	case MsgInitChunk:
		e.handleInitChunk(m)
	case MsgStart:
		e.Activate()
	case MsgShutdown:
		e.Deactivate()
	case MsgCounterValue:
		if e.prog == nil || m.Counter < 0 || int(m.Counter) >= len(e.values) {
			return
		}
		e.values[m.Counter] = m.Value
		e.reevalTerms(e.prog.Counters[m.Counter].Terms)
	case MsgTermStatus:
		if e.prog == nil || m.Term < 0 || int(m.Term) >= len(e.termStatus) {
			return
		}
		if e.termStatus[m.Term] == m.Status {
			return
		}
		e.termStatus[m.Term] = m.Status
		e.sweepConds(e.prog.Terms[m.Term].Conds)
	case MsgInitAck, MsgError, MsgStop, MsgActivity:
		if e.controller != nil {
			e.controller.handle(m)
		}
	}
}

// SeedProgramCache pre-populates the INIT decode memo with a known
// (blob, program) pair — the one a CompiledScript carries. When the
// wire-reassembled INIT blob matches, the engine adopts the shared
// program directly and never gob-decodes at all. blob must be exactly
// EncodeProgram(p).
func (e *Engine) SeedProgramCache(blob []byte, p *Program) {
	e.cachedBlob = blob
	e.cachedProg = p
}

// handleInitChunk reassembles the INIT distribution idempotently: chunks
// may arrive duplicated, reordered, or partially (the controller re-sends
// the full sequence on its retry timer until acked). Once the program is
// loaded, any further chunk — a retry racing the ack, or a second Launch
// — is answered with a fresh ack rather than a destructive re-assembly.
func (e *Engine) handleInitChunk(m *Msg) {
	if m.ChunkTotal <= 0 || m.ChunkTotal > maxInitChunks || m.ChunkIndex < 0 || m.ChunkIndex >= m.ChunkTotal {
		return
	}
	e.Stats.InitChunksRcvd++
	if e.initDone && e.initTotal == 0 {
		// Already assembled and loaded: the ack was lost or the
		// controller retried before it arrived. Re-ack so it can advance.
		e.Stats.InitDupChunks++
		e.Stats.InitReacks++
		e.sendCtl(e.controlNode, &Msg{Kind: MsgInitAck, From: e.self})
		return
	}
	if e.initTotal != m.ChunkTotal {
		e.beginInit(m.ChunkTotal)
	}
	word, bit := m.ChunkIndex/64, uint64(1)<<(m.ChunkIndex%64)
	if e.initHave[word]&bit != 0 {
		e.Stats.InitDupChunks++
		return
	}
	e.initHave[word] |= bit
	e.initChunks[m.ChunkIndex] = append(e.initChunks[m.ChunkIndex][:0], m.ChunkData...)
	if e.initGot++; e.initGot < e.initTotal {
		return
	}
	blob := e.initBlob[:0]
	for _, c := range e.initChunks[:e.initTotal] {
		blob = append(blob, c...)
	}
	e.initBlob = blob
	e.endInit()
	// Nothing outlives this call in blob: a decoded program owns its
	// bytes, and the cache keeps a clone.
	defer e.pool.Scrub(blob)
	p := e.cachedProg
	if p == nil || !bytes.Equal(blob, e.cachedBlob) {
		decoded, err := decodeProgram(blob)
		if err != nil {
			return
		}
		p = decoded
		e.cachedBlob = bytes.Clone(blob)
		e.cachedProg = p
	}
	if n := NodeID(len(p.Nodes)); m.NodeID < 0 || m.NodeID >= n || m.ControlNode < 0 || m.ControlNode >= n {
		// Identities the node table does not have: every later sendCtl
		// would index past it.
		return
	}
	e.load(p, m.NodeID, m.ControlNode)
	e.initDone = true
	e.sendCtl(e.controlNode, &Msg{Kind: MsgInitAck, From: e.self})
}

// beginInit starts reassembling a distribution of total chunks, reusing
// the chunk buffers and bitmap of earlier ones.
func (e *Engine) beginInit(total int) {
	if c := cap(e.initChunks); total > c {
		e.initChunks = append(e.initChunks[:c], make([][]byte, total-c)...)
	}
	e.initChunks = e.initChunks[:total]
	words := (total + 63) / 64
	if words > cap(e.initHave) {
		e.initHave = make([]uint64, words)
	}
	e.initHave = e.initHave[:words]
	clear(e.initHave)
	e.initTotal = total
	e.initGot = 0
}

// endInit abandons or closes the reassembly in progress; its chunk
// buffers are released for the next one.
func (e *Engine) endInit() {
	for _, c := range e.initChunks {
		e.pool.Scrub(c)
	}
	e.initTotal = 0
	e.initGot = 0
}
