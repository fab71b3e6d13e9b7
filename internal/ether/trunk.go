package ether

import (
	"math/rand"
	"slices"
	"time"

	"virtualwire/internal/sim"
)

// TrunkChannel is the inter-switch trunk: a full-duplex wire whose two
// directions are independent halves, each owned entirely by the
// transmitting switch's scheduler. Serialization and bit errors run on
// the source shard; the transmitted frame is deposited into a
// timestamped outbox instead of being scheduled directly onto the
// destination scheduler. The run loop drains every outbox at each window
// barrier — in fixed trunk order, A→B before B→A, FIFO within a half —
// so delivery scheduling is identical regardless of how switches are
// partitioned across shards. That invariance is what makes output
// byte-identical at any shard count.
//
// The conservative window guarantee relies on two properties of a half:
// deposits are timestamped txEnd+Propagation, and a transmission takes
// at least txDuration(0)+IFG (wire padding to MinFrame makes that a
// true lower bound for any payload). Lookahead exposes that bound.
type TrunkChannel struct {
	ab, ba *trunkHalf

	// Set by TrunkSet.Track; both belong to the coordinator.
	order  int  // canonical (wiring) position
	listed bool // on the set's busy list
}

// trunkDeposit is one cross-shard frame waiting at the barrier.
type trunkDeposit struct {
	fr *Frame
	at time.Duration // absolute delivery time (txEnd + propagation)
}

// trunkHalf carries one direction. It implements Medium for the source
// switch's port NIC; the destination NIC is wired in by
// ConnectTrunkChannel once both ports exist.
type trunkHalf struct {
	cfg      LinkConfig
	sched    *sim.Scheduler // source side
	dstSched *sim.Scheduler // destination side
	src      *NIC
	dst      *NIC
	rng      *rand.Rand

	busyUntil time.Duration
	active    bool // a txEnd event is pending
	failed    bool // fault injection: no new transmissions start
	outbox    []trunkDeposit

	// Tracked halves (TrunkSet.Track) report going from silent to busy:
	// the first pump of a busy period appends the channel to the source
	// shard's wake list. awake holds from then until the coordinator
	// drops the channel from its busy list, so a busy period costs one
	// append however many frames it carries.
	ch    *TrunkChannel
	woken *[]*TrunkChannel
	awake bool
}

var _ Medium = (*trunkHalf)(nil)

func (h *trunkHalf) Attach(n *NIC) {
	n.medium = h
	n.pool = h.cfg.Pool
	h.src = n
}

func (h *trunkHalf) kick(*NIC) { h.pump() }

func (h *trunkHalf) rand() *rand.Rand {
	if h.rng != nil {
		return h.rng
	}
	return h.sched.Rand()
}

// pump mirrors Link.pump; txEnd deposits instead of delivering.
func (h *trunkHalf) pump() {
	if h.failed {
		// A dead wire starts nothing new; queued frames were dropped by
		// SetFailed and restore re-kicks.
		return
	}
	fr := h.src.head()
	if fr == nil {
		return
	}
	// A pending txEnd always re-pumps when it fires, so any kick that
	// arrives mid-transmission is redundant. The guard must be the
	// pending-event flag, not a clock comparison: an event scheduled
	// before the transmission began (smaller seq) can fire at exactly
	// busyUntil, ahead of the txEnd sharing that timestamp, and a time
	// guard would admit it and double-schedule txEnd.
	if h.active {
		return
	}
	now := h.sched.Now()
	dur := txDuration(len(fr.Data), h.cfg.BitsPerSecond) + bitTime(IFGBits, h.cfg.BitsPerSecond)
	h.active = true
	h.busyUntil = now + dur
	if h.woken != nil && !h.awake {
		h.awake = true
		*h.woken = append(*h.woken, h.ch)
	}
	h.sched.AtCall(now+dur, "trunk.txEnd", trunkTxEnd, h, nil, 0)
}

func trunkTxEnd(recv, _ any, _ int) { recv.(*trunkHalf).txEnd() }

// txEnd mirrors Link.txEnd, minus direct delivery: the transmitted frame
// itself crosses, from the source shard's pool into the hands (and, at
// the end of its life, the pool) of the destination shard.
func (h *trunkHalf) txEnd() {
	out := h.src.dequeue()
	h.src.txDone(out)
	bits := wireBytes(len(out.Data)) * 8
	if h.cfg.BitErrorRate > 0 {
		p := float64(bits) * h.cfg.BitErrorRate
		if p > 1 {
			p = 1
		}
		if h.rand().Float64() < p {
			out.Corrupt = true
			if len(out.Data) > 12 {
				i := 12 + h.rand().Intn(len(out.Data)-12)
				out.Data[i] ^= 1 << uint(h.rand().Intn(8))
			}
		}
	}
	h.active = false
	h.outbox = append(h.outbox, trunkDeposit{fr: out, at: h.sched.Now() + h.cfg.Propagation})
	h.pump()
}

// drain schedules every deposited frame onto the destination scheduler.
// Only the coordinator calls this, at a barrier, with all shards parked.
func (h *trunkHalf) drain() {
	for i, d := range h.outbox {
		h.dstSched.AtCall(d.at, "trunk.deliver", nicDeliver, h.dst, d.fr, 0)
		h.outbox[i] = trunkDeposit{}
	}
	h.outbox = h.outbox[:0]
}

// reset clears serializer state and recycles any undrained deposits into
// the source-side pool.
func (h *trunkHalf) reset() {
	h.busyUntil = 0
	h.active = false
	h.failed = false
	for i, d := range h.outbox {
		h.cfg.Pool.Put(d.fr)
		h.outbox[i] = trunkDeposit{}
	}
	h.outbox = h.outbox[:0]
}

// earliest returns the arrival time of the half's earliest in-flight or
// deposited frame, or false when the direction is silent.
func (h *trunkHalf) earliest() (time.Duration, bool) {
	t := time.Duration(0)
	ok := false
	if h.active {
		t, ok = h.busyUntil+h.cfg.Propagation, true
	}
	for _, d := range h.outbox {
		if !ok || d.at < t {
			t, ok = d.at, true
		}
	}
	return t, ok
}

// ConnectTrunkChannel joins two switches with a mailbox trunk and
// returns the channel plus the new port index on each switch. Each
// direction's config may differ in Pool (frames must be cut from the
// transmitting shard's pool) but shares rate/propagation/BER.
func ConnectTrunkChannel(a, b *Switch, acfg, bcfg LinkConfig) (*TrunkChannel, int, int) {
	acfg.fill()
	bcfg.fill()
	if acfg.Pool == nil {
		acfg.Pool = a.cfg.Pool
	}
	if bcfg.Pool == nil {
		bcfg.Pool = b.cfg.Pool
	}
	ab := &trunkHalf{cfg: acfg, sched: a.sched, dstSched: b.sched}
	ba := &trunkHalf{cfg: bcfg, sched: b.sched, dstSched: a.sched}
	aPort := a.addPort(ab, true)
	bPort := b.addPort(ba, true)
	ab.dst = b.ports[bPort].nic
	ba.dst = a.ports[aPort].nic
	return &TrunkChannel{ab: ab, ba: ba}, aPort, bPort
}

// Drain flushes both directions in canonical order (A→B then B→A).
func (t *TrunkChannel) Drain() {
	t.ab.drain()
	t.ba.drain()
}

// EarliestPending returns the earliest cross-trunk arrival still in
// flight in either direction, or false when the trunk is silent.
func (t *TrunkChannel) EarliestPending() (time.Duration, bool) {
	ta, oka := t.ab.earliest()
	tb, okb := t.ba.earliest()
	switch {
	case oka && okb:
		if tb < ta {
			return tb, true
		}
		return ta, true
	case oka:
		return ta, true
	case okb:
		return tb, true
	}
	return 0, false
}

// TrunkSet is the windowed coordinator's view of a fabric's trunk
// channels: the ones with a frame serializing or deposited, in canonical
// order. A window touches a handful of a fat-tree's thousands of trunks,
// and both the window bound (EarliestPending) and the barrier exchange
// (Drain) only concern those, so the set spares the coordinator two full
// scans per window. Drain order — and with it delivery scheduling order,
// and every byte of output — is the order draining every channel in
// wiring order would give, because a silent channel drains nothing.
//
// Halves report in through per-shard wake lists, each appended to only
// by its shard's goroutine during a window; the coordinator merges them
// at the barrier, when every shard is parked.
type TrunkSet struct {
	tracked int
	busy    []*TrunkChannel   // sorted by order
	woken   [][]*TrunkChannel // per source shard
}

// NewTrunkSet returns an empty set for a testbed of the given shard count.
func NewTrunkSet(shards int) *TrunkSet {
	return &TrunkSet{woken: make([][]*TrunkChannel, shards)}
}

// Track adds ch at the next canonical position. shardA and shardB are
// the shards that run its A→B and B→A halves (the switches' shards).
func (ts *TrunkSet) Track(ch *TrunkChannel, shardA, shardB int) {
	ch.order = ts.tracked
	ts.tracked++
	ch.ab.ch, ch.ab.woken = ch, &ts.woken[shardA]
	ch.ba.ch, ch.ba.woken = ch, &ts.woken[shardB]
}

// collect merges the shards' wake lists into the busy list, each new
// channel inserted at its canonical position.
func (ts *TrunkSet) collect() {
	for i, w := range ts.woken {
		for _, ch := range w {
			if ch.listed {
				continue
			}
			ch.listed = true
			at, _ := slices.BinarySearchFunc(ts.busy, ch.order,
				func(c *TrunkChannel, order int) int { return c.order - order })
			ts.busy = slices.Insert(ts.busy, at, ch)
		}
		ts.woken[i] = w[:0]
	}
}

// EarliestPending returns the earliest cross-trunk arrival still in
// flight on any tracked channel, or false when every trunk is silent.
func (ts *TrunkSet) EarliestPending() (time.Duration, bool) {
	ts.collect()
	var min time.Duration
	any := false
	for _, ch := range ts.busy {
		if t, ok := ch.EarliestPending(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// Drain flushes every busy channel's mailboxes in canonical order and
// forgets the channels that have fallen silent. Barrier-only.
func (ts *TrunkSet) Drain() {
	ts.collect()
	keep := ts.busy[:0]
	for _, ch := range ts.busy {
		ch.Drain()
		if ch.ab.active || ch.ba.active {
			keep = append(keep, ch)
		} else {
			ch.listed, ch.ab.awake, ch.ba.awake = false, false, false
		}
	}
	clear(ts.busy[len(keep):])
	ts.busy = keep
}

// Lookahead returns the minimum delay between a transmission decision on
// one side and the earliest possible arrival on the other: propagation
// plus the serialization of a minimum-size frame plus the inter-frame
// gap. This is the conservative window bound for the trunk.
func (t *TrunkChannel) Lookahead() time.Duration {
	la := t.ab.lookahead()
	if lb := t.ba.lookahead(); lb < la {
		la = lb
	}
	return la
}

func (h *trunkHalf) lookahead() time.Duration {
	return h.cfg.Propagation + txDuration(0, h.cfg.BitsPerSecond) + bitTime(IFGBits, h.cfg.BitsPerSecond)
}

// PendingDeposits reports queued mailbox frames across both directions
// (tests use it to assert mailboxes drain empty across Reset).
func (t *TrunkChannel) PendingDeposits() int {
	return len(t.ab.outbox) + len(t.ba.outbox)
}

// SetFailed fails or restores the trunk (fault injection), both
// directions at once. Failing drops every queued frame on both source
// NICs — except in-flight heads, whose committed txEnd still deposits;
// the delivery is discarded at the far (failed) switch port — and
// refuses new transmissions. Restoring re-kicks both pumps. Returns the
// number of frames dropped (counted in the port NICs' QueueDrops).
//
// Only the sharded coordinator calls this, at a window barrier with all
// shards parked, so touching both halves' source-side state is safe.
func (t *TrunkChannel) SetFailed(failed bool) int {
	dropped := 0
	for _, h := range []*trunkHalf{t.ab, t.ba} {
		if h.failed == failed {
			continue
		}
		h.failed = failed
		if failed {
			if h.src != nil {
				dropped += h.src.dropQueued(h.active)
			}
		} else {
			h.pump()
		}
	}
	return dropped
}

// Failed reports the trunk's fault state.
func (t *TrunkChannel) Failed() bool { return t.ab.failed || t.ba.failed }

// SetProfile overrides both directions' propagation delay and bit error
// rate in place (per-trunk degradation axis). Zero propagation keeps
// the current value; a negative BER keeps the current rate. Applies
// from the next txEnd; callers re-derive the shard lookahead after a
// propagation change.
func (t *TrunkChannel) SetProfile(propagation time.Duration, ber float64) {
	for _, h := range []*trunkHalf{t.ab, t.ba} {
		if propagation > 0 {
			h.cfg.Propagation = propagation
		}
		if ber >= 0 {
			h.cfg.BitErrorRate = ber
		}
	}
}

// Profile reports the trunk's current propagation delay and BER (the
// A→B direction; both directions always carry the same profile).
func (t *TrunkChannel) Profile() (time.Duration, float64) {
	return t.ab.cfg.Propagation, t.ab.cfg.BitErrorRate
}
