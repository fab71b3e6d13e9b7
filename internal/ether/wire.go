package ether

import (
	"math/rand"
	"time"

	"virtualwire/internal/sim"
)

// LinkConfig parametrizes a point-to-point wire: a full-duplex Link, or
// one direction of a TrunkChannel.
type LinkConfig struct {
	BitsPerSecond float64
	Propagation   time.Duration
	BitErrorRate  float64
	// Pool, when non-nil, recycles frames on the link (see BusConfig.Pool).
	Pool *FramePool
}

func (c *LinkConfig) fill() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 100e6
	}
	if c.Propagation <= 0 {
		c.Propagation = 500 * time.Nanosecond
	}
}

// wire is one direction of a point-to-point medium: the serializer, the
// bit-error model and the propagation delay between one transmitting NIC
// and one receiving NIC. It runs entirely on the transmitting side's
// scheduler. A Link is two wires that deliver inline; a TrunkChannel is
// two wires that deposit into a mailbox the window barrier drains (a
// wire whose dstSched is set). Nothing else serializes a frame onto a
// point-to-point hop.
type wire struct {
	cfg   LinkConfig     // Propagation and BitErrorRate are live (SetProfile)
	sched *sim.Scheduler // transmitting side
	src   *NIC
	dst   *NIC
	rng   *rand.Rand // pinned source (setRand); nil draws from sched

	busyUntil time.Duration // when the current transmission ends
	active    bool          // a txEnd event is pending
	failed    bool          // fault injection: no new transmission starts

	// Mailbox side (trunks only). dstSched is the receiving switch's
	// scheduler; txEnd deposits into outbox instead of scheduling the
	// delivery, and drain moves the deposits across at the barrier.
	dstSched *sim.Scheduler
	outbox   []trunkDeposit

	// Tracked wires (TrunkSet.Track) report going from silent to busy:
	// the first pump of a busy period appends the channel to the source
	// shard's wake list. awake holds from then until the coordinator
	// drops the channel from its busy list, so a busy period costs one
	// append however many frames it carries.
	ch    *TrunkChannel
	woken *[]*TrunkChannel
	awake bool
}

var _ Medium = (*wire)(nil)

// Attach implements Medium for a trunk port: n is the transmitting NIC.
func (w *wire) Attach(n *NIC) {
	n.medium = w
	n.pool = w.cfg.Pool
	w.src = n
}

func (w *wire) kick(*NIC) { w.pump() }

func (w *wire) setRand(r *rand.Rand) { w.rng = r }

// reset clears serializer and fault state and recycles any undrained
// deposits into the source-side pool. Pending txEnd/deliver events are
// assumed cancelled (scheduler reset); the source NIC's queue, in-flight
// head included, is recycled by NIC.Reset.
func (w *wire) reset() {
	w.busyUntil = 0
	w.active = false
	w.failed = false
	for i, d := range w.outbox {
		w.cfg.Pool.Put(d.fr)
		w.outbox[i] = trunkDeposit{}
	}
	w.outbox = w.outbox[:0]
}

// pump starts transmitting the source NIC's head frame, if the wire is
// free to.
func (w *wire) pump() {
	if w.failed {
		// A dead wire starts nothing new; queued frames were dropped by
		// SetFailed and restore re-kicks.
		return
	}
	fr := w.src.head()
	if fr == nil {
		return
	}
	// A pending txEnd always re-pumps when it fires, so any kick that
	// arrives mid-transmission is redundant. The guard must be the
	// pending-event flag, not a clock comparison: an event scheduled
	// before the transmission began (smaller seq) can fire at exactly
	// busyUntil, ahead of the txEnd sharing that timestamp, and a time
	// guard would admit it and double-schedule txEnd (double-dequeuing
	// the in-flight frame).
	if w.active {
		return
	}
	w.active = true
	w.busyUntil = w.sched.Now() + txDuration(len(fr.Data), w.cfg.BitsPerSecond) + bitTime(IFGBits, w.cfg.BitsPerSecond)
	if w.woken != nil && !w.awake {
		w.awake = true
		*w.woken = append(*w.woken, w.ch)
	}
	w.sched.AtCall(w.busyUntil, "wire.txEnd", wireTxEnd, w, nil, 0)
}

func wireTxEnd(recv, _ any, _ int) { recv.(*wire).txEnd() }

// txEnd finishes the serialization: the frame starts propagating and the
// next queued frame, if any, starts transmitting. A wire has one
// receiver, so the transmitted frame itself travels on — the sender gave
// it up at Send — and no copy is made. On a trunk it crosses from the
// source shard's pool into the hands (and, at the end of its life, the
// pool) of the destination shard.
func (w *wire) txEnd() {
	out := w.src.dequeue()
	w.src.txDone(out)
	corrupt(randOf(w.rng, w.sched), w.cfg.BitErrorRate, out)
	w.active = false
	at := w.sched.Now() + w.cfg.Propagation
	if w.dstSched == nil {
		w.sched.AtCall(at, "wire.deliver", nicDeliver, w.dst, out, 0)
	} else {
		w.outbox = append(w.outbox, trunkDeposit{fr: out, at: at})
	}
	w.pump()
}

// nicDeliver is the arrival of a propagated frame at a NIC.
func nicDeliver(recv, arg any, _ int) { recv.(*NIC).deliver(arg.(*Frame)) }

// randOf is a segment's random source: the generator its owner pinned
// (the testbed derives one per segment from (seed, construction order),
// so draw sequences do not depend on event interleaving across shards),
// or the scheduler's shared one.
func randOf(pinned *rand.Rand, s *sim.Scheduler) *rand.Rand {
	if pinned != nil {
		return pinned
	}
	return s.Rand()
}

// corrupt is the bit-error model, applied once per delivery: with
// probability ber × wire bits (≈ 1-(1-ber)^bits for the small rates the
// testbed uses) the frame is marked Corrupt and one random bit past the
// address fields is flipped, so corruption is observable in the bytes
// and not only in the flag. Addresses are spared so that a corrupt frame
// still reaches the NIC whose FCS check accounts for it (a real NIC
// would miss a frame whose destination got mangled; the Reliable Link
// Layer recovers either way via timeout).
func corrupt(rng *rand.Rand, ber float64, fr *Frame) {
	if ber <= 0 {
		return
	}
	p := float64(wireBytes(len(fr.Data))*8) * ber
	if p > 1 {
		p = 1
	}
	if rng.Float64() < p {
		fr.Corrupt = true
		if len(fr.Data) > 12 {
			i := 12 + rng.Intn(len(fr.Data)-12)
			fr.Data[i] ^= 1 << uint(rng.Intn(8))
		}
	}
}
