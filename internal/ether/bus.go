package ether

import (
	"math/rand"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/sim"
)

// BusConfig parametrizes a shared segment.
type BusConfig struct {
	// BitsPerSecond is the segment bandwidth (default 100 Mbps).
	BitsPerSecond float64
	// Propagation is the one-way propagation delay (default 500 ns,
	// ~100 m of cable). It is also the carrier-sense collision window:
	// a station that begins transmitting within Propagation of another
	// station's start has not yet sensed the carrier and collides.
	Propagation time.Duration
	// BitErrorRate is the independent per-bit flip probability applied
	// to each delivery (default 0: clean wire).
	BitErrorRate float64
	// Pool, when non-nil, recycles frames on the segment: the copies a
	// segment with several listeners makes draw from it, and frames the
	// NICs drop return to it. Nil keeps plain allocation.
	Pool *FramePool
}

func (c *BusConfig) fill() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 100e6
	}
	if c.Propagation <= 0 {
		c.Propagation = 500 * time.Nanosecond
	}
}

type activeTx struct {
	nic      *NIC
	frame    *Frame
	start    time.Duration
	end      *sim.Event
	collided bool
	// fire is the pre-bound completion callback, created once per
	// activeTx so recycled transmissions (see SharedBus.free) schedule
	// their end without a fresh closure.
	fire func()
}

// SharedBus is a CSMA/CD shared segment: every attached NIC sees every
// frame, simultaneous transmissions collide, and colliding stations back
// off with binary exponential backoff. With exactly two stations it also
// models one half-duplex switch port segment.
type SharedBus struct {
	cfg     BusConfig
	sched   *sim.Scheduler
	nics    []*NIC
	active  []*activeTx
	free    []*activeTx // finished transmissions, ready for reuse
	waiting []*NIC
	// releaseFn is the pre-bound release callback (see scheduleRelease).
	releaseFn func()
	// idleAt is the earliest instant a deferred station may begin
	// transmitting (end of last activity plus inter-frame gap).
	idleAt time.Duration

	// TotalCollisions counts collision episodes on the segment.
	TotalCollisions uint64
	// DeliveredFrames counts successful frame deliveries to any NIC.
	DeliveredFrames uint64
	// DeliveredBytes counts bytes across those deliveries.
	DeliveredBytes uint64

	// busyTime accumulates the virtual time spent serializing frames
	// that completed successfully, for the utilization gauge.
	busyTime time.Duration

	rng *rand.Rand // optional pinned source (see SetRand)
}

var _ Medium = (*SharedBus)(nil)

// NewSharedBus returns a bus running on sched with the given
// configuration (zero values select defaults).
func NewSharedBus(sched *sim.Scheduler, cfg BusConfig) *SharedBus {
	cfg.fill()
	b := &SharedBus{cfg: cfg, sched: sched}
	b.releaseFn = b.release
	return b
}

// SetRand pins the random source for backoff and bit-error draws. When
// unset, draws come from the scheduler's shared generator. The testbed
// pins per-segment generators so draw sequences do not depend on
// cross-shard event interleaving.
func (b *SharedBus) SetRand(r *rand.Rand) { b.setRand(r) }

func (b *SharedBus) setRand(r *rand.Rand) { b.rng = r }

// Attach implements Medium.
func (b *SharedBus) Attach(n *NIC) {
	n.medium = b
	n.pool = b.cfg.Pool
	b.nics = append(b.nics, n)
}

// kick implements Medium: n has at least one queued frame.
func (b *SharedBus) kick(n *NIC) {
	for _, tx := range b.active {
		if tx.nic == n {
			return // already transmitting
		}
	}
	for _, w := range b.waiting {
		if w == n {
			return // already deferring
		}
	}
	now := b.sched.Now()
	if len(b.active) > 0 {
		// A transmission is in progress. If it started within the
		// propagation window, this station has not sensed the carrier
		// yet and barges in, causing a collision. Otherwise it defers.
		first := b.active[0]
		if now-first.start < b.cfg.Propagation {
			b.startTx(n)
			return
		}
		b.waiting = append(b.waiting, n)
		return
	}
	if now < b.idleAt {
		// Inside the inter-frame gap: defer until it elapses.
		b.waiting = append(b.waiting, n)
		b.scheduleRelease()
		return
	}
	b.startTx(n)
}

// scheduleRelease arranges for the next deferring station to start when
// the medium becomes idle. Stations are released round-robin: under
// sustained bidirectional load the medium behaves like an arbitrated
// pipe (as real carrier sense mostly does), while genuine collisions
// still occur when stations begin transmitting within the propagation
// window of each other (see kick).
func (b *SharedBus) scheduleRelease() {
	b.sched.At(b.idleAt, "bus.release", b.releaseFn)
}

// release is scheduleRelease's pre-bound callback (releaseFn): binding
// it once in NewSharedBus keeps the per-frame schedule allocation-free.
func (b *SharedBus) release() {
	if len(b.active) > 0 || b.sched.Now() < b.idleAt {
		return
	}
	for len(b.waiting) > 0 {
		n := b.waiting[0]
		copy(b.waiting, b.waiting[1:])
		b.waiting = b.waiting[:len(b.waiting)-1]
		if n.head() != nil {
			b.startTx(n)
			return
		}
	}
}

func (b *SharedBus) startTx(n *NIC) {
	fr := n.head()
	if fr == nil {
		return
	}
	now := b.sched.Now()
	dur := txDuration(len(fr.Data), b.cfg.BitsPerSecond)
	var tx *activeTx
	if l := len(b.free); l > 0 {
		tx = b.free[l-1]
		b.free[l-1] = nil
		b.free = b.free[:l-1]
		tx.nic, tx.frame, tx.start, tx.collided = n, fr, now, false
	} else {
		tx = &activeTx{nic: n, frame: fr, start: now}
		self := tx
		tx.fire = func() { b.finishTx(self) }
	}
	tx.end = b.sched.At(now+dur, "bus.txEnd", tx.fire)
	b.active = append(b.active, tx)
	if len(b.active) > 1 {
		b.collide()
	}
}

// collide aborts every active transmission, charges each sender a
// backoff, and re-arms the medium after the jam signal.
func (b *SharedBus) collide() {
	b.TotalCollisions++
	now := b.sched.Now()
	jam := bitTime(JamBits, b.cfg.BitsPerSecond)
	ifg := bitTime(IFGBits, b.cfg.BitsPerSecond)
	b.idleAt = now + jam + b.cfg.Propagation + ifg
	txs := b.active
	b.active = b.active[:0]
	for _, tx := range txs {
		tx.end.Cancel()
		n := tx.nic
		b.recycle(tx)
		if !n.collided() {
			// Frame dropped after too many attempts; move on to the
			// next queued frame, if any.
			if n.head() != nil {
				b.deferRetry(n, 0)
			}
			continue
		}
		slots := 1 << n.backoff
		if n.backoff > maxBackoffExp {
			slots = 1 << maxBackoffExp
		}
		wait := time.Duration(randOf(b.rng, b.sched).Intn(slots)) * bitTime(SlotBits, b.cfg.BitsPerSecond)
		b.deferRetry(n, jam+wait)
	}
	b.scheduleRelease()
}

// deferRetry re-kicks a NIC after d, bypassing the duplicate-suppression
// in kick (the NIC is no longer listed as active or waiting).
func (b *SharedBus) deferRetry(n *NIC, d time.Duration) {
	b.sched.AfterCall(d, "bus.retry", busRetry, b, n, 0)
}

func busRetry(recv, arg any, _ int) {
	if n := arg.(*NIC); n.head() != nil {
		recv.(*SharedBus).kick(n)
	}
}

// busDeliver hands a propagated copy to station i of the segment.
func busDeliver(recv, arg any, i int) {
	b, cp := recv.(*SharedBus), arg.(*Frame)
	b.DeliveredFrames++
	b.DeliveredBytes += uint64(len(cp.Data))
	b.nics[i].deliver(cp)
}

func (b *SharedBus) finishTx(tx *activeTx) {
	// Remove from active.
	for i, a := range b.active {
		if a == tx {
			b.active = append(b.active[:i], b.active[i+1:]...)
			break
		}
	}
	now := b.sched.Now()
	ifg := bitTime(IFGBits, b.cfg.BitsPerSecond)
	b.idleAt = now + ifg
	b.busyTime += now - tx.start
	fr := tx.nic.dequeue()
	tx.nic.txDone(fr)

	// Deliver to every other station after the propagation delay. The
	// sender relinquished the frame at Send, so the last station gets
	// the transmitted frame itself and only the stations before it get
	// copies (drawn from the pool): a two-station segment — one switch
	// port — copies nothing. Stations are visited, and bit errors drawn,
	// in attachment order either way.
	last := len(b.nics) - 1
	if b.nics[last] == tx.nic {
		last--
	}
	for i, dst := range b.nics {
		if dst == tx.nic {
			continue
		}
		cp := fr
		if i != last {
			cp = b.cfg.Pool.Clone(fr)
		}
		corrupt(randOf(b.rng, b.sched), b.cfg.BitErrorRate, cp)
		b.sched.AfterCall(b.cfg.Propagation, "bus.deliver", busDeliver, b, cp, i)
	}
	if last < 0 {
		b.cfg.Pool.Put(fr) // nobody else on the segment
	}

	// More traffic from this NIC or deferred stations?
	if tx.nic.head() != nil {
		b.waiting = append(b.waiting, tx.nic)
	}
	b.recycle(tx)
	if len(b.waiting) > 0 {
		b.scheduleRelease()
	}
}

// recycle returns a finished or aborted transmission to the free list.
func (b *SharedBus) recycle(tx *activeTx) {
	tx.nic, tx.frame, tx.end = nil, nil, nil
	b.free = append(b.free, tx)
}

// Reset clears all transient medium state (active transmissions,
// deferring stations, the inter-frame-gap clock) and the segment
// counters, keeping both lists' capacity and returning in-flight
// transmissions to the free list. Frames referenced by aborted
// transmissions still sit at the head of their NIC's transmit queue and
// are recycled by NIC.Reset; pending bus events are assumed cancelled
// (scheduler reset).
func (b *SharedBus) Reset() { b.reset() }

func (b *SharedBus) reset() {
	for _, tx := range b.active {
		b.recycle(tx)
	}
	b.active = b.active[:0]
	b.waiting = b.waiting[:0]
	b.idleAt = 0
	b.TotalCollisions = 0
	b.DeliveredFrames = 0
	b.DeliveredBytes = 0
	b.busyTime = 0
}

// Snapshot implements the uniform metrics hook: segment counters plus a
// utilization gauge (fraction of elapsed virtual time the wire spent
// serializing successful transmissions — collision episodes excluded).
func (b *SharedBus) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("collisions", b.TotalCollisions)
	sn.Counter("delivered_frames", b.DeliveredFrames)
	sn.Counter("delivered_bytes", b.DeliveredBytes)
	sn.Gauge("stations", float64(len(b.nics)))
	if now := b.sched.Now(); now > 0 {
		sn.Gauge("utilization", float64(b.busyTime)/float64(now))
	} else {
		sn.Gauge("utilization", 0)
	}
}
