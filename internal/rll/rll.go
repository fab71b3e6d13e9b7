// Package rll implements the paper's Reliable Link Layer (Section 3.3):
// a sliding-window protocol inserted below the VirtualWire engines that
// "guarantees reliable delivery of packets handed over to it" so that
// MAC-layer bit errors can never cause a packet loss the fault injection
// engine is unaware of. Without it, a random FCS-failed frame would look
// exactly like an injected DROP and the test environment would no longer
// be controlled.
//
// Wire format: the original frame is encapsulated in an outer Ethernet
// frame with ethertype 0x88B6. Because the RLL is host-to-host, the
// inner frame's MAC addresses equal the outer ones and are not repeated;
// only the bytes from the inner ethertype onward are carried:
//
//	offset 14: type   (1 byte: 1=data, 2=ack, 3=unreliable data)
//	offset 15: seq    (4 bytes)
//	offset 19: ack    (4 bytes, cumulative, piggybacked)
//	offset 23: crc32  (4 bytes, IEEE, over the type/seq/ack fields plus
//	                   the carried inner bytes, so header corruption is
//	                   detected too)
//	offset 27: inner frame from its ethertype onward
//
// The receiver reconstructs the inner frame from the outer addresses.
//
// Per-peer go-back-N: the receiver only accepts the next in-sequence
// frame and acknowledges cumulatively; the sender retransmits everything
// unacknowledged on timeout. Broadcast frames are sent unreliably (there
// is no per-peer stream to sequence them on), which matches their use for
// advisory Rether ring announcements.
package rll

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// EtherType is the outer ethertype of RLL frames.
const EtherType uint16 = 0x88B6

// Frame type codes.
const (
	typeData       = 1
	typeAck        = 2
	typeUnreliable = 3
	// typeReset tells the receiver the sender abandoned everything before
	// seq (give-up after MaxRetries) and the stream resumes there. Without
	// it a live-but-slow peer would discard every later frame as a gap
	// forever once the sender's base moved past its expected sequence.
	typeReset = 4
)

const headerLen = 13 // type + seq + ack + crc32, after the outer Ethernet header

// Config parametrizes an RLL instance.
type Config struct {
	// Window is the go-back-N send window in frames (default 32 — a
	// 100 Mbps LAN path holds only a few full-size frames, but queueing
	// under load inflates the link RTT well past the serialization
	// delay and a tight window would throttle throughput).
	Window int
	// RTO is the base retransmission timeout (default 5 ms — enough to
	// serialize a full default window plus the ack on a loaded 100 Mbps
	// segment). Successive timeouts back off exponentially up to 16x.
	RTO time.Duration
	// MaxRetries bounds retransmissions of the window head before the
	// peer is declared unreachable and the frame dropped (default 10).
	MaxRetries int
}

func (c *Config) fill() {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.RTO <= 0 {
		c.RTO = 5 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
	}
}

// Stats counts RLL events.
type Stats struct {
	DataSent      uint64
	DataRetrans   uint64
	AcksSent      uint64
	Delivered     uint64
	Duplicates    uint64 // received but already delivered (retransmit overlap)
	OutOfOrder    uint64 // dropped by go-back-N
	CRCDrops      uint64 // inner CRC mismatch
	GaveUp        uint64 // frames dropped after MaxRetries
	Unreliable    uint64 // broadcast/unreliable frames sent
	BlockedQueued uint64 // frames queued because the window was full
	ResetsSent    uint64 // seq-reset markers sent after a give-up
	Resyncs       uint64 // forward jumps accepted from a peer's reset
}

type peerSend struct {
	nextSeq  uint32
	base     uint32
	inflight []*ether.Frame // encapsulated frames, base..nextSeq-1
	backlog  []*ether.Frame // encapsulated frames waiting for window space
	timer    *sim.Timer
	onRTO    func() // the timer's callback, bound once: a closure allocates
	retries  int
	rto      time.Duration
	// resync is set after a give-up advanced base past undelivered
	// frames; a reset marker is (re)sent with every retransmission round
	// until the peer's cumulative ack reaches the new base.
	resync bool
}

type peerRecv struct {
	expected uint32
}

// RLL is the reliable link layer for one host. It implements
// stack.Layer.
type RLL struct {
	base  stack.Base
	cfg   Config
	sched *sim.Scheduler
	mac   packet.MAC
	pool  *ether.FramePool
	send  map[packet.MAC]*peerSend
	recv  map[packet.MAC]*peerRecv

	// Stats accumulates protocol counters.
	Stats Stats
	// Disabled short-circuits the layer (frames pass through
	// untouched). The Figure 8 experiment toggles this.
	Disabled bool
}

var _ stack.Layer = (*RLL)(nil)

// New returns an RLL layer for the host with the given MAC.
func New(sched *sim.Scheduler, mac packet.MAC, cfg Config) *RLL {
	cfg.fill()
	return &RLL{
		cfg:   cfg,
		sched: sched,
		mac:   mac,
		send:  make(map[packet.MAC]*peerSend),
		recv:  make(map[packet.MAC]*peerRecv),
	}
}

// SetPool wires the testbed's frame pool into the layer so upcall frames
// and dead encapsulations follow the same recycling protocol as the
// media (see docs/PERFORMANCE.md). Safe to leave unset (nil pool):
// every pool operation degrades to plain allocation.
func (r *RLL) SetPool(p *ether.FramePool) { r.pool = p }

// Snapshot implements the uniform metrics hook: every Stats field plus
// the instantaneous window occupancy summed over peers.
func (r *RLL) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("data_sent", r.Stats.DataSent)
	sn.Counter("data_retrans", r.Stats.DataRetrans)
	sn.Counter("acks_sent", r.Stats.AcksSent)
	sn.Counter("delivered", r.Stats.Delivered)
	sn.Counter("duplicates", r.Stats.Duplicates)
	sn.Counter("out_of_order", r.Stats.OutOfOrder)
	sn.Counter("crc_drops", r.Stats.CRCDrops)
	sn.Counter("gave_up", r.Stats.GaveUp)
	sn.Counter("unreliable", r.Stats.Unreliable)
	sn.Counter("window_stalls", r.Stats.BlockedQueued)
	sn.Counter("resets_sent", r.Stats.ResetsSent)
	sn.Counter("resyncs", r.Stats.Resyncs)
	var inflight, backlog int
	for _, ps := range r.send {
		inflight += len(ps.inflight)
		backlog += len(ps.backlog)
	}
	sn.Gauge("inflight_frames", float64(inflight))
	sn.Gauge("backlog_frames", float64(backlog))
}

// Reset rewinds every peer's window state to a fresh sequence space,
// recycling every inflight and backlogged encapsulation, and clears the
// counters. The per-peer state itself (window arrays, timer) is kept for
// the next run, as are configuration, pool wiring and the Disabled
// toggle; retransmission timers die with the scheduler reset that
// accompanies this.
func (r *RLL) Reset() {
	for _, ps := range r.send {
		ps.timer.Disarm()
		for _, fr := range ps.inflight {
			r.pool.Put(fr)
		}
		for _, fr := range ps.backlog {
			r.pool.Put(fr)
		}
		*ps = peerSend{
			inflight: r.pool.ShiftFrames(ps.inflight, len(ps.inflight)),
			backlog:  r.pool.ShiftFrames(ps.backlog, len(ps.backlog)),
			timer:    ps.timer,
			onRTO:    ps.onRTO,
			rto:      r.cfg.RTO,
		}
	}
	for _, pr := range r.recv {
		*pr = peerRecv{}
	}
	r.Stats = Stats{}
}

// SetBelow implements stack.Layer.
func (r *RLL) SetBelow(d stack.Down) { r.base.SetBelow(d) }

// SetAbove implements stack.Layer.
func (r *RLL) SetAbove(u stack.Up) { r.base.SetAbove(u) }

// SendDown implements stack.Layer: encapsulate and transmit reliably.
func (r *RLL) SendDown(fr *ether.Frame) {
	if r.Disabled || len(fr.Data) < packet.EthHeaderLen {
		r.base.PassDown(fr)
		return
	}
	dst := fr.Dst()
	if dst.IsBroadcast() {
		r.Stats.Unreliable++
		r.base.PassDown(r.encap(fr, typeUnreliable, 0, 0))
		return
	}
	ps := r.sendState(dst)
	enc := r.encap(fr, typeData, ps.nextSeq, 0)
	ps.nextSeq++
	if len(ps.inflight) >= r.cfg.Window {
		r.Stats.BlockedQueued++
		ps.backlog = append(ps.backlog, enc)
		return
	}
	ps.inflight = append(ps.inflight, enc)
	r.transmit(enc)
	r.Stats.DataSent++
	if !ps.timer.Armed() {
		r.armTimer(ps)
	}
}

// DeliverUp implements stack.Layer: decapsulate, validate, acknowledge.
func (r *RLL) DeliverUp(fr *ether.Frame) {
	if r.Disabled {
		r.base.PassUp(fr)
		return
	}
	if fr.EtherType() != EtherType {
		if fr.Corrupt {
			// A damaged frame whose bytes cannot be trusted at all
			// (possibly an RLL frame with a mangled ethertype).
			r.Stats.CRCDrops++
			r.pool.Put(fr)
			return
		}
		// Not RLL traffic (mixed testbed); deliver as-is.
		r.base.PassUp(fr)
		return
	}
	if len(fr.Data) < packet.EthHeaderLen+headerLen {
		r.pool.Put(fr)
		return
	}
	hdr := fr.Data[packet.EthHeaderLen:]
	typ := hdr[0]
	seq := binary.BigEndian.Uint32(hdr[1:])
	ack := binary.BigEndian.Uint32(hdr[5:])
	crc := binary.BigEndian.Uint32(hdr[9:])
	inner := fr.Data[packet.EthHeaderLen+headerLen:]
	src := fr.Src()
	if frameCRC(hdr[:9], inner) != crc {
		// Damaged on the wire — header or payload. Do not ack; the
		// sender's window retransmits. This is the exact loss the RLL
		// exists to mask.
		r.Stats.CRCDrops++
		r.pool.Put(fr)
		return
	}

	switch typ {
	case typeAck:
		r.handleAck(src, ack)
		r.pool.Put(fr)
	case typeUnreliable:
		r.deliverInner(fr, inner)
	case typeReset:
		// The sender gave up on everything before seq; jump forward so
		// the stream resynchronizes instead of gap-dropping forever.
		pr := r.recvState(src)
		if serialLT(pr.expected, seq) {
			pr.expected = seq
			r.Stats.Resyncs++
		}
		r.sendAck(src, pr.expected)
		r.pool.Put(fr)
	case typeData:
		pr := r.recvState(src)
		switch {
		case seq == pr.expected:
			pr.expected++
			r.Stats.Delivered++
			r.sendAck(src, pr.expected)
			r.deliverInner(fr, inner)
		case serialLT(seq, pr.expected):
			// Duplicate of something already delivered: re-ack so the
			// sender can advance.
			r.Stats.Duplicates++
			r.sendAck(src, pr.expected)
			r.pool.Put(fr)
		default:
			// Gap: go-back-N discards and re-acks the last good.
			r.Stats.OutOfOrder++
			r.sendAck(src, pr.expected)
			r.pool.Put(fr)
		}
	}
}

// serialLT reports a < b in RFC 1982 serial-number arithmetic: a precedes
// b when the forward distance from a to b is in (0, 2^31). Sequence
// numbers wrap on long high-volume runs, so plain uint32 ordering would
// stall the window (handleAck) and misclassify frames (DeliverUp) at the
// boundary.
func serialLT(a, b uint32) bool { return int32(a-b) < 0 }

// deliverInner reconstructs the inner frame (outer addresses + carried
// bytes) and passes it up. The upcall frame comes from the pool and the
// spent outer frame goes back to it: the inner bytes are copied out, so
// nothing retains the outer buffer, while the upcall frame transfers to
// the layers above, the last of which recycles it.
func (r *RLL) deliverInner(outer *ether.Frame, inner []byte) {
	up := r.pool.Get(12 + len(inner))
	copy(up.Data, outer.Data[0:12]) // dst + src are shared with the outer frame
	copy(up.Data[12:], inner)
	up.ID = outer.ID
	r.pool.Put(outer)
	r.base.PassUp(up)
}

func (r *RLL) handleAck(peer packet.MAC, ack uint32) {
	ps := r.sendState(peer)
	if ps.resync && !serialLT(ack, ps.base) {
		// The peer has caught up to (or past) the post-give-up base: the
		// stream is in sync again, stop sending reset markers.
		ps.resync = false
	}
	if !serialLT(ps.base, ack) {
		return
	}
	advanced := ack - ps.base
	if advanced > uint32(len(ps.inflight)) {
		advanced = uint32(len(ps.inflight))
	}
	for _, enc := range ps.inflight[:advanced] {
		r.pool.Put(enc) // acked: only clones ever hit the wire
	}
	ps.inflight = r.pool.ShiftFrames(ps.inflight, int(advanced))
	ps.base += advanced
	ps.retries = 0
	ps.rto = r.cfg.RTO // progress: reset the backoff
	r.fillWindow(ps)
	if len(ps.inflight) == 0 {
		ps.timer.Disarm()
		return
	}
	r.armTimer(ps)
}

func (r *RLL) armTimer(ps *peerSend) {
	if ps.rto <= 0 {
		ps.rto = r.cfg.RTO
	}
	ps.timer.Arm(ps.rto, ps.onRTO)
}

// timeout retransmits the whole window (go-back-N).
func (r *RLL) timeout(peer packet.MAC, ps *peerSend) {
	if len(ps.inflight) == 0 {
		return
	}
	ps.retries++
	if ps.retries > r.cfg.MaxRetries {
		// Peer unreachable (crashed node). Drop the window head and
		// keep trying with the rest: a FAIL-ed node must not wedge the
		// sender forever.
		r.Stats.GaveUp++
		r.pool.Put(ps.inflight[0])
		ps.inflight = r.pool.ShiftFrames(ps.inflight, 1)
		ps.base++
		ps.retries = 0
		// The abandoned frame leaves a hole a live receiver would treat
		// as a permanent gap; announce the new base until it acks past it.
		ps.resync = true
		r.fillWindow(ps)
		if len(ps.inflight) == 0 {
			r.sendReset(peer, ps.base)
			return
		}
	}
	if ps.resync {
		r.sendReset(peer, ps.base)
	}
	for _, enc := range ps.inflight {
		r.transmit(enc)
		r.Stats.DataRetrans++
	}
	// Exponential backoff: a retransmission that was itself premature
	// must not turn into a storm under load.
	ps.rto *= 2
	if max := 16 * r.cfg.RTO; ps.rto > max {
		ps.rto = max
	}
	r.armTimer(ps)
}

// fillWindow admits backlog frames into freed window slots.
func (r *RLL) fillWindow(ps *peerSend) {
	n := min(len(ps.backlog), r.cfg.Window-len(ps.inflight))
	if n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		enc := ps.backlog[i]
		ps.inflight = append(ps.inflight, enc)
		r.transmit(enc)
		r.Stats.DataSent++
	}
	ps.backlog = r.pool.ShiftFrames(ps.backlog, n)
}

func (r *RLL) sendAck(peer packet.MAC, ack uint32) {
	r.Stats.AcksSent++
	r.sendBare(peer, typeAck, 0, ack)
}

// sendReset announces the post-give-up stream base so a live receiver
// jumps forward instead of gap-dropping forever. It is repeated with
// every retransmission round until the peer acks past the base, so a
// lost reset cannot leave the stream desynchronized.
func (r *RLL) sendReset(peer packet.MAC, seq uint32) {
	r.Stats.ResetsSent++
	r.sendBare(peer, typeReset, seq, 0)
}

// sendBare emits a header-only RLL frame (ack or reset).
func (r *RLL) sendBare(peer packet.MAC, typ byte, seq, ack uint32) {
	fr := r.pool.Get(packet.EthHeaderLen + headerLen)
	b := fr.Data
	packet.PutEth(b, packet.Eth{Dst: peer, Src: r.mac, Type: EtherType})
	hdr := b[packet.EthHeaderLen:]
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], seq)
	binary.BigEndian.PutUint32(hdr[5:], ack)
	binary.BigEndian.PutUint32(hdr[9:], frameCRC(hdr[:9], nil))
	r.base.PassDown(fr)
}

// FrameTypeName names an RLL frame's type from its raw outer bytes, for
// trace summaries.
func FrameTypeName(data []byte) string {
	if len(data) <= packet.EthHeaderLen {
		return "short"
	}
	switch data[packet.EthHeaderLen] {
	case typeData:
		return "data"
	case typeAck:
		return "ack"
	case typeUnreliable:
		return "unreliable"
	case typeReset:
		return "reset"
	}
	return "unknown"
}

// frameCRC covers the RLL header fields and the carried inner bytes.
func frameCRC(hdr, inner []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, hdr)
	return crc32.Update(crc, crc32.IEEETable, inner)
}

func (r *RLL) transmit(enc *ether.Frame) {
	// Always hand the medium its own copy: a retransmission must not
	// race with a queued original.
	r.base.PassDown(r.pool.Clone(enc))
}

// encap wraps fr in a fresh RLL frame and recycles fr: the layer above
// gave it up at SendDown, and its bytes now live in the encapsulation.
func (r *RLL) encap(fr *ether.Frame, typ byte, seq, ack uint32) *ether.Frame {
	inner := fr.Data[12:] // from the inner ethertype onward
	enc := r.pool.Get(packet.EthHeaderLen + headerLen + len(inner))
	b := enc.Data
	packet.PutEth(b, packet.Eth{Dst: fr.Dst(), Src: r.mac, Type: EtherType})
	hdr := b[packet.EthHeaderLen:]
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], seq)
	binary.BigEndian.PutUint32(hdr[5:], ack)
	binary.BigEndian.PutUint32(hdr[9:], frameCRC(hdr[:9], inner))
	copy(b[packet.EthHeaderLen+headerLen:], inner)
	enc.ID = fr.ID
	r.pool.Put(fr)
	return enc
}

func (r *RLL) sendState(peer packet.MAC) *peerSend {
	ps, ok := r.send[peer]
	if !ok {
		ps = &peerSend{timer: sim.NewTimer(r.sched, "rll.rto"), rto: r.cfg.RTO}
		ps.onRTO = func() { r.timeout(peer, ps) }
		r.send[peer] = ps
	}
	return ps
}

func (r *RLL) recvState(peer packet.MAC) *peerRecv {
	pr, ok := r.recv[peer]
	if !ok {
		pr = &peerRecv{}
		r.recv[peer] = pr
	}
	return pr
}
