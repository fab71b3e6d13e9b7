// Package rether implements the Rether software-based real-time Ethernet
// protocol (Venkatramani & Chiueh, SIGCOMM '95) — the second protocol
// under test in the paper (Section 6.2). Rether is a token-passing layer
// inserted between the Ethernet driver and the IP stack: a node may
// transmit data frames only while it holds the circulating control token.
//
// Implemented mechanisms, matching what the paper's Figure 6 scenario
// exercises:
//
//   - best-effort token circulation in a fixed round-robin ring;
//   - real-time slot reservations (frames matched by an RT classifier are
//     served from a dedicated queue with a per-cycle quota);
//   - token passing with explicit token-ack, a bounded number of token
//     transmissions (default 3, the number the Figure 6 analysis script
//     checks for), after which the downstream node is declared dead;
//   - ring reconstruction: the detecting node removes the dead node,
//     broadcasts a ring-sync with the new membership, and forwards the
//     token to the successor — real-time traffic continues unaffected;
//   - token regeneration: if a node observes no token activity for a
//     staggered idle timeout (lowest surviving index fires first), it
//     regenerates the token, recovering from total token loss.
//
// Control frames use ethertype 0x9900 with the packet type at frame
// offset 14, exactly as the paper's filter table matches them.
package rether

import (
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// Config parametrizes a Rether node.
type Config struct {
	// Ring is the initial round-robin membership in token order. It
	// must contain this node's MAC.
	Ring []packet.MAC
	// BEQuota is the number of best-effort data frames a node may
	// transmit per token visit (default 8).
	BEQuota int
	// RTQuota is the number of real-time frames transmittable per visit
	// (default 8); RT frames are always served before best-effort.
	RTQuota int
	// TokenAckTimeout is how long to wait for a token-ack before
	// retransmitting the token (default 10 ms).
	TokenAckTimeout time.Duration
	// TokenRetries is the total number of token transmissions to a
	// successor before declaring it dead (default 3, per the paper).
	TokenRetries int
	// TokenIdleTimeout is the base token-regeneration timeout; node i
	// in the surviving ring fires at TokenIdleTimeout*(2+i)/2
	// (default 500 ms).
	TokenIdleTimeout time.Duration
	// HoldGap is the pacing delay before re-circulating when the node
	// is alone in the ring (default 10 ms).
	HoldGap time.Duration
	// QueueFrames bounds each data queue (default 256).
	QueueFrames int
	// RTBudget is the ring-wide total of grantable real-time slots per
	// cycle, accounted by the ring monitor (default 32).
	RTBudget int
}

func (c *Config) fill() {
	if c.BEQuota <= 0 {
		c.BEQuota = 8
	}
	if c.RTQuota <= 0 {
		c.RTQuota = 8
	}
	if c.TokenAckTimeout <= 0 {
		c.TokenAckTimeout = 10 * time.Millisecond
	}
	if c.TokenRetries <= 0 {
		c.TokenRetries = 3
	}
	if c.TokenIdleTimeout <= 0 {
		c.TokenIdleTimeout = 500 * time.Millisecond
	}
	if c.HoldGap <= 0 {
		c.HoldGap = 10 * time.Millisecond
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 256
	}
	if c.RTBudget <= 0 {
		c.RTBudget = 32
	}
}

// Stats counts Rether protocol events on one node.
type Stats struct {
	TokensSent            uint64
	TokenRetransmissions  uint64
	TokensReceived        uint64
	AcksSent              uint64
	AcksReceived          uint64
	StaleTokens           uint64
	NodesDeclaredDead     uint64
	RingSyncsSent         uint64
	RingSyncsApplied      uint64
	TokenRegenerations    uint64
	DataQueuedBE          uint64
	DataQueuedRT          uint64
	DataSent              uint64
	DataDropped           uint64 // queue overflow
	ReservationsRequested uint64
	ReservationsGranted   uint64
	ReservationsDenied    uint64
}

// Layer is the per-node Rether protocol instance. It implements
// stack.Layer and must be placed above the fault injection engine.
type Layer struct {
	base  stack.Base
	cfg   Config
	sched *sim.Scheduler
	self  packet.MAC
	pool  *ether.FramePool // the node's frame pool (SetPool); nil allocates

	ring        []packet.MAC
	ringVersion uint32
	holder      bool
	tokenSeq    uint32 // last seq we held or observed
	passSeq     uint32 // seq of the token we are trying to pass
	passTo      packet.MAC
	passTries   int
	ackTimer    *sim.Timer
	idleTimer   *sim.Timer
	started     bool

	// The timer callbacks, bound once in New: a method value allocates
	// each time it is taken.
	onAckTimeoutFn, onIdleFn, holdSoloFn func()

	beQueue []*ether.Frame
	rtQueue []*ether.Frame

	// ClassifyRT, when set, routes matching outbound data frames to the
	// real-time queue (the paper's node1/node4 real-time TCP stream).
	ClassifyRT func(fr *ether.Frame) bool
	// OnRingChange fires with the new membership after a ring sync or
	// local reconstruction.
	OnRingChange func(ring []packet.MAC)
	// OnTokenVisit fires each time this node receives the token (used
	// by tests and examples to observe circulation).
	OnTokenVisit func(seq uint32)

	// Stats accumulates counters.
	Stats Stats

	// Reservation state (see reserve.go). grants is populated only on
	// the ring monitor.
	grants       map[packet.MAC]int
	reserveCb    func(ReserveResult)
	reserveTimer *sim.Timer

	// origRTQuota remembers the configured per-visit RT quota so Reset
	// can undo reservation grants (applyGrant mutates cfg.RTQuota).
	origRTQuota int
}

var _ stack.Layer = (*Layer)(nil)

// New creates a Rether node. Call Start after the host stack is built.
func New(sched *sim.Scheduler, self packet.MAC, cfg Config) *Layer {
	cfg.fill()
	ring := make([]packet.MAC, len(cfg.Ring))
	copy(ring, cfg.Ring)
	l := &Layer{
		cfg:   cfg,
		sched: sched,
		self:  self,
		ring:  ring,
	}
	l.ackTimer = sim.NewTimer(sched, "rether.ack")
	l.idleTimer = sim.NewTimer(sched, "rether.idle")
	l.onAckTimeoutFn, l.onIdleFn, l.holdSoloFn = l.onAckTimeout, l.onIdle, l.holdSolo
	l.origRTQuota = l.cfg.RTQuota
	return l
}

// SetPool wires the node's frame pool into the layer: control frames
// are cut from it, and the frames whose journey ends here (consumed
// control frames, queue overflow) are recycled into it. Safe to leave
// unset: a nil pool degrades to plain allocation.
func (l *Layer) SetPool(p *ether.FramePool) { l.pool = p }

// Reset rewinds the layer to its pre-Start state: initial ring
// membership, zero token state, empty queues, cleared counters, and any
// reservation grant undone. The caller must invoke Start again (after
// resetting the scheduler, which cancels the layer's timers).
func (l *Layer) Reset() {
	l.ring = l.ring[:0]
	l.ring = append(l.ring, l.cfg.Ring...)
	l.ringVersion = 0
	l.holder = false
	l.tokenSeq = 0
	l.passSeq = 0
	l.passTo = packet.MAC{}
	l.passTries = 0
	l.ackTimer.Disarm()
	l.idleTimer.Disarm()
	if l.reserveTimer != nil {
		l.reserveTimer.Disarm()
	}
	l.started = false
	for _, fr := range l.beQueue {
		l.pool.Put(fr)
	}
	l.beQueue = l.pool.ShiftFrames(l.beQueue, len(l.beQueue))
	for _, fr := range l.rtQueue {
		l.pool.Put(fr)
	}
	l.rtQueue = l.pool.ShiftFrames(l.rtQueue, len(l.rtQueue))
	l.Stats = Stats{}
	l.grants = nil
	l.reserveCb = nil
	l.cfg.RTQuota = l.origRTQuota
}

// SetBelow implements stack.Layer.
func (l *Layer) SetBelow(d stack.Down) { l.base.SetBelow(d) }

// SetAbove implements stack.Layer.
func (l *Layer) SetAbove(u stack.Up) { l.base.SetAbove(u) }

// Ring returns a copy of the current membership.
func (l *Layer) Ring() []packet.MAC {
	out := make([]packet.MAC, len(l.ring))
	copy(out, l.ring)
	return out
}

// Holding reports whether this node currently holds the token.
func (l *Layer) Holding() bool { return l.holder }

// Snapshot implements the uniform metrics hook: token rotation,
// membership and reservation counters plus instantaneous queue depths.
func (l *Layer) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("tokens_sent", l.Stats.TokensSent)
	sn.Counter("token_retransmissions", l.Stats.TokenRetransmissions)
	sn.Counter("tokens_received", l.Stats.TokensReceived)
	sn.Counter("acks_sent", l.Stats.AcksSent)
	sn.Counter("acks_received", l.Stats.AcksReceived)
	sn.Counter("stale_tokens", l.Stats.StaleTokens)
	sn.Counter("nodes_declared_dead", l.Stats.NodesDeclaredDead)
	sn.Counter("ring_syncs_sent", l.Stats.RingSyncsSent)
	sn.Counter("ring_syncs_applied", l.Stats.RingSyncsApplied)
	sn.Counter("token_regenerations", l.Stats.TokenRegenerations)
	sn.Counter("data_queued_be", l.Stats.DataQueuedBE)
	sn.Counter("data_queued_rt", l.Stats.DataQueuedRT)
	sn.Counter("data_sent", l.Stats.DataSent)
	sn.Counter("data_dropped", l.Stats.DataDropped)
	sn.Counter("reservations_requested", l.Stats.ReservationsRequested)
	sn.Counter("reservations_granted", l.Stats.ReservationsGranted)
	sn.Counter("reservations_denied", l.Stats.ReservationsDenied)
	sn.Gauge("ring_size", float64(len(l.ring)))
	sn.Gauge("be_queue_len", float64(len(l.beQueue)))
	sn.Gauge("rt_queue_len", float64(len(l.rtQueue)))
}

// Start begins protocol operation: ring index 0 creates the initial
// token, everyone arms the regeneration timer.
func (l *Layer) Start() {
	if l.started {
		return
	}
	l.started = true
	l.armIdle()
	if len(l.ring) > 0 && l.ring[0] == l.self {
		// Initial token enters the ring here.
		l.sched.After(0, "rether.bootstrap", func() { l.acquireToken(1) })
	}
}

// --- outbound data path ---

// SendDown implements stack.Layer: data frames queue until the token
// visits; Rether's own control frames (and anything not IP) bypass the
// token discipline.
func (l *Layer) SendDown(fr *ether.Frame) {
	if !l.started || fr.EtherType() != packet.EtherTypeIPv4 {
		l.base.PassDown(fr)
		return
	}
	if l.ClassifyRT != nil && l.ClassifyRT(fr) {
		if len(l.rtQueue) >= l.cfg.QueueFrames {
			l.Stats.DataDropped++
			l.pool.Put(fr)
			return
		}
		l.Stats.DataQueuedRT++
		l.rtQueue = append(l.rtQueue, fr)
		return
	}
	if len(l.beQueue) >= l.cfg.QueueFrames {
		l.Stats.DataDropped++
		l.pool.Put(fr)
		return
	}
	l.Stats.DataQueuedBE++
	l.beQueue = append(l.beQueue, fr)
}

// --- inbound path ---

// DeliverUp implements stack.Layer: consume Rether control traffic,
// deliver everything else. A control frame's journey ends here, so it is
// recycled once handled (the handlers copy what they keep).
func (l *Layer) DeliverUp(fr *ether.Frame) {
	if fr.EtherType() != packet.EtherTypeRether {
		l.base.PassUp(fr)
		return
	}
	l.handleControl(fr)
	l.pool.Put(fr)
}

func (l *Layer) handleControl(fr *ether.Frame) {
	hdr, err := packet.DecodeRether(fr.Data[packet.EthHeaderLen:])
	if err != nil {
		return
	}
	l.armIdle() // any control activity proves the ring is alive
	switch hdr.Type {
	case packet.RetherToken:
		l.onToken(fr.Src(), hdr.TokenSeq)
	case packet.RetherTokenAck:
		l.onTokenAck(fr.Src(), hdr.TokenSeq)
	case packet.RetherRingSync:
		l.onRingSync(hdr.TokenSeq, fr.Data[packet.EthHeaderLen+packet.RetherHeaderLen:])
	case packet.RetherRegen:
		// Another node regenerated; our stale state yields.
		if hdr.TokenSeq > l.tokenSeq {
			l.tokenSeq = hdr.TokenSeq
		}
	case packet.RetherReserve:
		l.handleReserve(fr.Src(), fr.Data[packet.EthHeaderLen+packet.RetherHeaderLen:])
	case packet.RetherReserveOK:
		l.handleReserveOK(hdr.TokenSeq, fr.Data[packet.EthHeaderLen+packet.RetherHeaderLen:])
	}
}

func (l *Layer) onToken(from packet.MAC, seq uint32) {
	if seq < l.tokenSeq {
		// Stale token from an obsolete holder or regeneration race.
		l.Stats.StaleTokens++
		return
	}
	// Always ack (a retransmitted token means our previous ack was
	// lost).
	l.sendCtl(from, packet.RetherTokenAck, seq, nil)
	l.Stats.AcksSent++
	if seq == l.tokenSeq {
		// Duplicate of a token we already consumed.
		l.Stats.StaleTokens++
		return
	}
	l.Stats.TokensReceived++
	l.acquireToken(seq)
}

// acquireToken makes this node the holder of token seq: serve queues,
// then pass it on.
func (l *Layer) acquireToken(seq uint32) {
	l.holder = true
	l.tokenSeq = seq
	if l.OnTokenVisit != nil {
		l.OnTokenVisit(seq)
	}
	l.serveQueues()
	l.passToken()
}

// serveQueues transmits RT then best-effort frames up to the per-visit
// quotas.
func (l *Layer) serveQueues() {
	l.serve(&l.rtQueue, l.cfg.RTQuota)
	l.serve(&l.beQueue, l.cfg.BEQuota)
}

// serve transmits up to quota frames from the head of the queue, then
// drops them from it in one shift.
func (l *Layer) serve(q *[]*ether.Frame, quota int) {
	n := min(quota, len(*q))
	for i := 0; i < n; i++ {
		l.Stats.DataSent++
		l.base.PassDown((*q)[i])
	}
	*q = l.pool.ShiftFrames(*q, n)
}

// passToken hands the token to the successor and arms the ack timer.
func (l *Layer) passToken() {
	next, ok := l.successor()
	if !ok {
		// Alone in the ring: keep the token and re-serve after a gap.
		l.sched.After(l.cfg.HoldGap, "rether.solo", l.holdSoloFn)
		return
	}
	l.passSeq = l.tokenSeq + 1
	l.passTo = next
	l.passTries = 1
	l.Stats.TokensSent++
	l.sendCtl(next, packet.RetherToken, l.passSeq, nil)
	l.armAckTimer()
}

// holdSolo is the lone holder's next token visit.
func (l *Layer) holdSolo() {
	if l.holder {
		l.tokenSeq++
		l.serveQueues()
		l.passToken()
	}
}

func (l *Layer) armAckTimer() {
	l.ackTimer.Arm(l.cfg.TokenAckTimeout, l.onAckTimeoutFn)
}

func (l *Layer) onAckTimeout() {
	if !l.holder {
		return
	}
	if l.passTries < l.cfg.TokenRetries {
		l.passTries++
		l.Stats.TokensSent++
		l.Stats.TokenRetransmissions++
		l.sendCtl(l.passTo, packet.RetherToken, l.passSeq, nil)
		l.armAckTimer()
		return
	}
	// The successor is dead: reconstruct the ring without it and move
	// the token along. Real-time service must continue (Section 6.2).
	l.Stats.NodesDeclaredDead++
	l.removeFromRing(l.passTo)
	l.ringVersion++
	l.broadcastRingSync()
	l.tokenSeq = l.passSeq // consume the seq burned on the dead node
	l.passToken()
}

func (l *Layer) onTokenAck(from packet.MAC, seq uint32) {
	if !l.holder || from != l.passTo || seq != l.passSeq {
		return
	}
	l.Stats.AcksReceived++
	l.ackTimer.Disarm()
	l.holder = false
	l.tokenSeq = l.passSeq
}

// --- membership ---

func (l *Layer) successor() (packet.MAC, bool) {
	idx := l.indexOf(l.self)
	if idx < 0 || len(l.ring) <= 1 {
		return packet.MAC{}, false
	}
	return l.ring[(idx+1)%len(l.ring)], true
}

func (l *Layer) indexOf(m packet.MAC) int {
	for i, r := range l.ring {
		if r == m {
			return i
		}
	}
	return -1
}

func (l *Layer) removeFromRing(m packet.MAC) {
	idx := l.indexOf(m)
	if idx < 0 {
		return
	}
	l.ring = append(l.ring[:idx], l.ring[idx+1:]...)
	if l.OnRingChange != nil {
		l.OnRingChange(l.Ring())
	}
}

func (l *Layer) broadcastRingSync() {
	payload := make([]byte, 0, len(l.ring)*6)
	for _, m := range l.ring {
		payload = append(payload, m[:]...)
	}
	l.Stats.RingSyncsSent++
	l.sendCtl(packet.Broadcast, packet.RetherRingSync, l.ringVersion, payload)
}

func (l *Layer) onRingSync(version uint32, payload []byte) {
	if version <= l.ringVersion {
		return
	}
	l.ringVersion = version
	ring := make([]packet.MAC, 0, len(payload)/6)
	for i := 0; i+6 <= len(payload); i += 6 {
		var m packet.MAC
		copy(m[:], payload[i:i+6])
		ring = append(ring, m)
	}
	l.ring = ring
	l.Stats.RingSyncsApplied++
	if l.OnRingChange != nil {
		l.OnRingChange(l.Ring())
	}
}

// --- token regeneration ---

func (l *Layer) armIdle() {
	if !l.started {
		return
	}
	idx := l.indexOf(l.self)
	if idx < 0 {
		idx = len(l.ring) // removed from ring: regenerate last
	}
	d := l.cfg.TokenIdleTimeout * time.Duration(2+idx) / 2
	l.idleTimer.Arm(d, l.onIdleFn)
}

func (l *Layer) onIdle() {
	if l.holder {
		l.armIdle()
		return
	}
	// No token activity: regenerate. Jump the sequence space so stale
	// tokens are recognizably old.
	l.Stats.TokenRegenerations++
	newSeq := l.tokenSeq + 1000
	l.sendCtl(packet.Broadcast, packet.RetherRegen, newSeq, nil)
	l.acquireToken(newSeq)
	l.armIdle()
}

// --- frame construction ---

func (l *Layer) sendCtl(dst packet.MAC, typ uint16, seq uint32, payload []byte) {
	idx := l.indexOf(l.self)
	if idx < 0 {
		idx = 0
	}
	fr := l.pool.Get(packet.RetherFrameLen(len(payload)))
	packet.PutRetherFrame(fr.Data, l.self, dst, packet.Rether{
		Type:     typ,
		TokenSeq: seq,
		Origin:   uint16(idx),
	}, payload)
	l.base.PassDown(fr)
}
