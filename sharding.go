package virtualwire

// The run loop: conservative windowed execution, at one shard or many.
//
// Every testbed runs on this one engine. The fabric's switches — each
// with its attached hosts, NICs, stacks and engine state — are
// partitioned into Config.Shards shards (a bus or a single switch is one
// shard; so is any fabric at Shards: 0 or 1), every shard owns a
// scheduler (the same monomorphic 4-ary heap) and a frame pool, and
// shards run in conservative time windows: shard 0 inline on the calling
// goroutine, the others on parallel goroutines, so one shard costs no
// goroutine or channel operation at all. Each window executes all events
// strictly below
//
//	E = min( m + L,  earliest in-flight trunk arrival,  m + cap )
//
// where m is the global minimum pending event time across shards, L is
// the minimum over trunks of (propagation + minimum-frame serialization
// + inter-frame gap) — the classic conservative lookahead; no decision
// taken at or after m can be observed across a trunk before m+L — and
// cap bounds the window when the fabric has no trunks at all. Frames
// crossing a trunk are deposited into timestamped per-trunk mailboxes
// and drained at the barrier in canonical order (trunk wiring order,
// A→B before B→A, FIFO within a direction). Everything that is not a
// shard's own event happens at a barrier, single-threaded: workload
// start, topology faults and reconvergence, the scenario-finished and
// cancellation checks, and observation — sampled metrics points and the
// merge of each shard's staged trace entries into the one trace ring.
//
// The central design decision is that the engine is *shard-count
// invariant*: every trunk is a mailbox channel even when both ends land
// in the same shard, the window bound E is computed from global,
// partition-independent quantities, and every random draw comes from a
// per-component generator derived from (seed, construction order)
// rather than from a scheduler's shared stream. The partition therefore
// only chooses which goroutine executes which switch's events —
// unobservable in any output — so a run is byte-identical at 1, 2, 4 or
// any other shard count, and the one identity property tests keep is
// K shards ≡ 1 shard.
//
// The component generators are PCG streams (pcgSource below), one per
// switch port, bus and engine.

import (
	"context"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"slices"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/sim"
)

// ShardsAuto asks the testbed to pick the shard count: min(GOMAXPROCS,
// edge switches). On a single-CPU machine, on a single switch or a bus,
// auto resolves to one shard, so auto is always safe to set.
const ShardsAuto = -1

// shardWindowCap bounds a window when the fabric has no trunk channels
// (a single switch or a bus): without a lookahead constraint a window
// could swallow the whole horizon, delaying scenario-finish and
// cancellation checks, which happen at barriers. The cap is a constant,
// so it is shard-count invariant. With trunks, the lookahead L (tens of
// microseconds at most) is always the tighter bound.
const shardWindowCap = time.Millisecond

// shardRuntime is the engine's state, created at build time.
type shardRuntime struct {
	count  int
	scheds []*sim.Scheduler   // scheds[0] == tb.sched
	pools  []*ether.FramePool // pools[0] == tb.pool
	trunks *ether.TrunkSet    // every fabric trunk, in wiring order
	set    *sim.ShardSet

	// lookahead is min over channels of Lookahead(); 0 when no channels.
	lookahead time.Duration

	// rands are the per-component generators, in assignment order (see
	// assignComponentRands); kept so Reset can reseed without
	// allocating.
	rands []*rand.Rand

	// startPending is set by the controller's OnStarted upcall (which
	// fires on the control node's shard mid-window) and consumed by the
	// run loop at the next barrier, where workload setup can run
	// single-threaded with every shard parked.
	startPending bool
}

// resolveShardCount maps Config.Shards to a concrete count given the
// number of host-bearing switches.
func (tb *Testbed) resolveShardCount(edges int) int {
	k := tb.cfg.Shards
	if k == ShardsAuto {
		k = runtime.GOMAXPROCS(0)
	}
	if k > edges {
		k = edges
	}
	if k < 1 {
		k = 1
	}
	return k
}

// initShardRuntime creates the per-shard schedulers and pools. Shard 0
// reuses the testbed's own.
func (tb *Testbed) initShardRuntime(k int) {
	sr := &shardRuntime{count: k, trunks: ether.NewTrunkSet(k)}
	sr.scheds = make([]*sim.Scheduler, k)
	sr.pools = make([]*ether.FramePool, k)
	sr.scheds[0] = tb.sched
	sr.pools[0] = tb.pool
	for i := 1; i < k; i++ {
		// Schedulers never serve Rand() draws (components carry pinned
		// generators), but seed them deterministically anyway.
		sr.scheds[i] = sim.NewScheduler(deriveStreamSeed(tb.cfg.Seed, uint64(i)))
		sr.pools[i] = ether.NewFramePool()
	}
	sr.set = sim.NewShardSet(sr.scheds)
	tb.shards = sr
}

// deriveStreamSeed seeds stream id of a run with the given seed: the
// shard schedulers (id = shard) and the component generators (id =
// construction order, see assignComponentRands). It has splitmix64's
// shape, but its second multiplier is 0xBF58476D1CE4E9B5, not
// splitmix64's 0xBF58476D1CE4E5B9 (which campaign.DeriveSeed uses). The
// constant stays: every component stream, and with it every pinned
// digest, derives from it. It is fixed, platform-independent, and
// scrambles enough that per-component streams are uncorrelated.
func deriveStreamSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(id+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B5
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// pcgSource is a component generator's stream: the standard library's
// PCG (16 bytes of state, seeded in O(1), the same stream on every
// platform) behind math/rand's Source64. A fat-tree pins thousands of
// these — one per switch port and engine — and Reset reseeds them all,
// which the 607-word default source made the dominant cost of a
// 1000-host Reset. Uint64 is the embedded PCG's.
type pcgSource struct{ randv2.PCG }

func (p *pcgSource) Seed(seed int64) { p.PCG.Seed(uint64(seed), 0) }
func (p *pcgSource) Int63() int64    { return int64(p.Uint64() >> 1) }

// assignComponentRands pins a deterministic generator on every
// randomness-drawing component, in a fixed construction-order walk:
// switch port segments (switches in index order, ports in index order)
// or the bus, then engines in node order. A scheduler's single stream
// would make draw order depend on event interleaving, which depends on
// the partition; here every backoff, bit-error and CORRUPT draw comes
// from the component's own PCG stream, seeded from (run seed,
// construction id).
// First call allocates the generators; later calls (Reset) reseed them
// in place, keeping the reset path allocation-free.
func (tb *Testbed) assignComponentRands(seed int64) {
	sr := tb.shards
	alloc := sr.rands == nil
	id := uint64(0)
	next := func() *rand.Rand {
		if alloc {
			sr.rands = append(sr.rands, rand.New(new(pcgSource)))
		}
		r := sr.rands[id]
		r.Seed(deriveStreamSeed(seed, id))
		id++
		return r
	}
	for _, sw := range tb.fabric {
		for p := 0; p < sw.NumPorts(); p++ {
			sw.SetPortRand(p, next())
		}
	}
	if tb.bus != nil {
		tb.bus.SetRand(next())
	}
	for _, n := range tb.nodes {
		n.engine.SetRand(next())
	}
}

// checkConfig is the part of the plan that needs no host: the medium,
// and shard counts that make no sense. New rejects a configuration with
// it; plan starts with it.
func checkConfig(cfg *Config) error {
	if cfg.Shards < ShardsAuto {
		return rejectf("shards", "invalid shard count %d", cfg.Shards)
	}
	switch cfg.Medium {
	case MediumSwitch, MediumSwitchFullDuplex:
	case MediumBus:
		if t := cfg.Topology; t != nil && t.Kind != TopoSingle {
			return rejectf("medium", "topology %v requires a switch medium", t.Kind)
		}
	default:
		return rejectf("medium", "unknown medium %d", cfg.Medium)
	}
	return nil
}

// shardSchedulerSnapshot aggregates the per-shard schedulers into the
// single "testbed"/"scheduler" source, summing counters and gauges so
// totals are the same at any shard count.
func (tb *Testbed) shardSchedulerSnapshot(out *MetricsSnapshot) {
	var exec, schd, rec uint64
	var pend, free int
	for _, s := range tb.shards.scheds {
		exec += s.Executed()
		schd += s.Scheduled()
		rec += s.Recycled()
		pend += s.Pending()
		free += s.FreeListLen()
	}
	out.Counter("events_executed", exec)
	out.Counter("events_scheduled", schd)
	out.Counter("events_recycled", rec)
	out.Gauge("events_pending", float64(pend))
	out.Gauge("free_list_len", float64(free))
}

// shardPoolSnapshot aggregates the per-shard frame pools into the
// single "testbed"/"pool" source.
func (tb *Testbed) shardPoolSnapshot(out *MetricsSnapshot) {
	var gets, hits, puts uint64
	var free int
	for _, p := range tb.shards.pools {
		gets += p.Gets
		hits += p.Hits
		puts += p.Puts
		free += p.FreeFrames()
	}
	out.Counter("gets", gets)
	out.Counter("hits", hits)
	out.Counter("puts", puts)
	out.Gauge("free_frames", float64(free))
}

// dispatchWorkloads starts every workload at a barrier (shards parked,
// all clocks equal), in workload order. Setup — Listen/Bind
// registrations, histogram creation — executes single-threaded here, so
// registry and socket-table mutations stay deterministic and race-free;
// only the traffic-driving events run on shard goroutines.
func (tb *Testbed) dispatchWorkloads() error {
	at := tb.sched.Now()
	for _, w := range tb.workloads {
		if err := w.start(tb, at); err != nil {
			return err
		}
	}
	return nil
}

// workload is a traffic source. start is called at a barrier: its setup
// may touch any testbed state, and it schedules its traffic at `at` on
// the scheduler of each node that drives it. A scheduled event must only
// touch state owned by that node's side of the workload, never reach
// across shards.
type workload interface {
	start(tb *Testbed, at time.Duration) error
}

// detacher is a workload whose handle reads state that Reset recycles —
// a TCP connection, flow records. Reset calls detach first, and the
// handle answers from what it kept from then on.
type detacher interface{ detach() }

// runWindowed drives the conservative window loop until the deadline,
// the context fires or — for a scenario run, not for RunFor, which
// advances the clock regardless — the scenario finishes. It returns
// (ctxErr, fatal): ctxErr is the context's error when cancellation interrupted
// the run (the caller assembles a partial report); fatal aborts the run.
//
// Events at exactly the deadline execute (RunUntil semantics: the final
// window ends at deadline+1ns) and every shard clock lands on the
// deadline, so a subsequent RunFor/Run continues from there.
func (tb *Testbed) runWindowed(ctx context.Context, deadline time.Duration, scenario bool) (error, error) {
	sr := tb.shards
	done := ctx.Done()
	sr.set.Start()
	defer sr.set.Stop()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err(), nil
			default:
			}
		}
		if scenario && tb.ctl != nil && tb.ctl.Finished() {
			return nil, nil
		}
		if sr.startPending {
			sr.startPending = false
			if err := tb.dispatchWorkloads(); err != nil {
				return nil, err
			}
		}
		m, ok := sr.set.PeekMin()
		if !ok {
			// Every queue is empty and (since deposits are drained into
			// queues at each barrier) no frame is in flight. Topology
			// faults due within the horizon still apply — they mutate
			// fabric state (and journal) even with no traffic, and a
			// restore could in principle re-arm activity, so re-enter the
			// loop after applying any; so are the points due.
			if tb.observeUpTo(deadline, deadline) {
				continue
			}
			for _, s := range sr.scheds {
				if err := s.RunWindow(0, deadline); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		// Apply topology faults and take the sample points due at or
		// before the window floor, with every shard parked. Applying
		// before the bound computation matters: a fault can change the
		// live-trunk set and with it the lookahead below.
		tb.observeUpTo(m, deadline)
		end := m + shardWindowCap
		if sr.lookahead > 0 {
			if la := m + sr.lookahead; la < end {
				end = la
			}
		}
		// The in-flight-arrival bound applies whether or not lookahead is
		// positive: with every trunk failed the lookahead is zero, yet
		// frames committed before the failure are still propagating and
		// must be delivered before any event at or after their arrival
		// runs.
		if t, ok := sr.trunks.EarliestPending(); ok && t < end {
			end = t
		}
		// Never let a window cross the next fault, reconvergence or
		// sample time: the live-trunk set (and lookahead) must be
		// constant within a window for the bound to hold — and for
		// shard-count invariance — and a point is taken at a barrier.
		if bt, ok := tb.nextBoundary(); ok && bt < end {
			end = bt
		}
		if end <= m {
			// Unreachable before the deadline (every bound above is then
			// provably > m; past it a sample time may not be, and the
			// window is the last), but a stall here would loop forever;
			// the clamp is computed from the same global quantities, so it
			// stays shard-invariant.
			end = m + 1
		}
		past := end > deadline
		if past {
			end = deadline + 1
		}
		clockTo := end
		if clockTo > deadline {
			clockTo = deadline
		}
		if err := sr.set.RunWindow(end, clockTo); err != nil {
			return nil, err
		}
		sr.trunks.Drain()
		if tb.tracing != nil {
			tb.tracing.Flush()
		}
		if past {
			return nil, nil
		}
	}
}

// observeUpTo applies the topology faults due at or before m and takes
// the sample points due at or before min(m, deadline), in time order (a
// point at t follows the faults at t); it reports whether a fault applied.
func (tb *Testbed) observeUpTo(m, deadline time.Duration) bool {
	applied := false
	for s := tb.sampler; s != nil && s.Due() <= min(m, deadline); {
		applied = tb.applyTopoFaultsUpTo(s.Due()) || applied
		s.Record(slices.DeleteFunc(tb.reg.Gather(), WarmPoolReading))
	}
	return tb.applyTopoFaultsUpTo(m) || applied
}
