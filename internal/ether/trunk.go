package ether

import (
	"slices"
	"time"
)

// TrunkChannel is the inter-switch trunk: a link plus a mailbox. Its two
// directions are independent wires, each owned entirely by the
// transmitting switch's scheduler. Serialization and bit errors run on
// the source shard; the transmitted frame is deposited into a
// timestamped outbox instead of being scheduled directly onto the
// destination scheduler. The run loop drains every outbox at each window
// barrier — in fixed trunk order, A→B before B→A, FIFO within a wire —
// so delivery scheduling is identical regardless of how switches are
// partitioned across shards. That invariance is what makes output
// byte-identical at any shard count.
//
// The conservative window guarantee relies on two properties of a wire:
// deposits are timestamped txEnd+Propagation, and a transmission takes
// at least txDuration(0)+IFG (wire padding to MinFrame makes that a
// true lower bound for any payload). Lookahead exposes that bound.
type TrunkChannel struct {
	ab, ba *wire

	// Set by TrunkSet.Track; both belong to the coordinator.
	order  int  // canonical (wiring) position
	listed bool // on the set's busy list
}

// trunkDeposit is one cross-shard frame waiting at the barrier.
type trunkDeposit struct {
	fr *Frame
	at time.Duration // absolute delivery time (txEnd + propagation)
}

// drain schedules every deposited frame onto the destination scheduler.
// Only the coordinator calls this, at a barrier, with all shards parked.
func (w *wire) drain() {
	for i, d := range w.outbox {
		w.dstSched.AtCall(d.at, "wire.deliver", nicDeliver, w.dst, d.fr, 0)
		w.outbox[i] = trunkDeposit{}
	}
	w.outbox = w.outbox[:0]
}

// earliest returns the arrival time of the wire's earliest in-flight or
// deposited frame, or false when the direction is silent.
func (w *wire) earliest() (time.Duration, bool) {
	t := time.Duration(0)
	ok := false
	if w.active {
		t, ok = w.busyUntil+w.cfg.Propagation, true
	}
	for _, d := range w.outbox {
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
	ab := &wire{cfg: acfg, sched: a.sched, dstSched: b.sched}
	ba := &wire{cfg: bcfg, sched: b.sched, dstSched: a.sched}
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
	if tb, okb := t.ba.earliest(); okb && (!oka || tb < ta) {
		return tb, true
	}
	return ta, oka
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
// Wires report in through per-shard wake lists, each appended to only
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
// the shards that run its A→B and B→A wires (the switches' shards).
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

func (w *wire) lookahead() time.Duration {
	return w.cfg.Propagation + txDuration(0, w.cfg.BitsPerSecond) + bitTime(IFGBits, w.cfg.BitsPerSecond)
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
// shards parked, so touching both wires' source-side state is safe.
func (t *TrunkChannel) SetFailed(failed bool) int {
	dropped := 0
	for _, w := range []*wire{t.ab, t.ba} {
		if w.failed == failed {
			continue
		}
		w.failed = failed
		if failed {
			if w.src != nil {
				dropped += w.src.dropQueued(w.active)
			}
		} else {
			w.pump()
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
	for _, w := range []*wire{t.ab, t.ba} {
		if propagation > 0 {
			w.cfg.Propagation = propagation
		}
		if ber >= 0 {
			w.cfg.BitErrorRate = ber
		}
	}
}

// Profile reports the trunk's current propagation delay and BER (the
// A→B direction; both directions always carry the same profile).
func (t *TrunkChannel) Profile() (time.Duration, float64) {
	return t.ab.cfg.Propagation, t.ab.cfg.BitErrorRate
}
