package tcp

import (
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// Stats counts per-connection protocol events.
type Stats struct {
	SegmentsSent    uint64
	SegmentsRcvd    uint64
	BytesSent       uint64
	BytesRcvd       uint64
	Retransmissions uint64
	FastRetransmits uint64
	Timeouts        uint64
	SynRetries      uint64
	DupAcksRcvd     uint64
}

// add folds another connection's counters into s.
func (s *Stats) add(o Stats) {
	s.SegmentsSent += o.SegmentsSent
	s.SegmentsRcvd += o.SegmentsRcvd
	s.BytesSent += o.BytesSent
	s.BytesRcvd += o.BytesRcvd
	s.Retransmissions += o.Retransmissions
	s.FastRetransmits += o.FastRetransmits
	s.Timeouts += o.Timeouts
	s.SynRetries += o.SynRetries
	s.DupAcksRcvd += o.DupAcksRcvd
}

type rtxSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

// end is the sequence number just past the segment; a FIN occupies one.
func (s rtxSeg) end() uint32 {
	end := s.seq + uint32(len(s.data))
	if s.fin {
		end++
	}
	return end
}

// dropAcked removes the entries ack fully covers from q, in place.
// Entries are appended in sequence order and never re-inserted, so the
// covered ones are always a prefix: find its end, then move the
// remainder down with one copy.
func dropAcked(q []rtxSeg, ack uint32) []rtxSeg {
	k := 0
	for k < len(q) && !seqLT(ack, q[k].end()) {
		k++
	}
	return q[:copy(q, q[k:])]
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack    *Stack
	key      connKey
	listener *Listener
	state    State

	// OnConnected fires when the handshake completes (both roles).
	OnConnected func()
	// OnData fires with each chunk of in-order application data. data
	// is a slice of the received frame (or of the reassembly store),
	// valid for the duration of the call: the frame, or the reassembly
	// buffer, is recycled once the call returns, so a handler copies what
	// it keeps.
	OnData func(data []byte)
	// OnClose fires when the peer's FIN has been consumed.
	OnClose func()
	// OnFail fires if the handshake or a retransmission gives up.
	OnFail func()

	// Stats accumulates counters.
	Stats Stats

	iss    uint32
	sndUna uint32
	sndNxt uint32
	rcvNxt uint32

	// sndBuf holds the unsent application data. It is also the
	// retransmission store: a segment's rtxSeg.data is a slice of the
	// array sndBuf pointed into when the segment was first sent. That is
	// sound because the buffer is only ever consumed from the front and
	// appended past its end — sent bytes are never overwritten, and an
	// append that reallocates leaves the old array to the slices that
	// still reference it.
	sndBuf  []byte
	rtxQ    []rtxSeg
	closing bool
	finSent bool

	cwnd     int // segments
	ssthresh int // segments
	caCount  int // ACKs accumulated toward +1 in congestion avoidance
	dupAcks  int
	rwnd     uint32

	rto      time.Duration
	srtt     time.Duration
	rttvar   time.Duration
	rttSeq   uint32 // segment being timed (Karn's rule)
	rttAt    time.Duration
	rttValid bool

	rtx        *sim.Timer
	onRTOFn    func() // c.onRTO, bound once: a method value allocates
	onSynFn    func() // c.onSynTimeout, likewise
	synRetries int

	oo       map[uint32][]byte // out-of-order segments, buffers from Stack.ooFree; made on first use
	ooFin    uint32
	ooFinSet bool

	noCC bool
}

// DisableCongestionControl removes the congestion-window limit from the
// sender, which then transmits up to the peer's advertised window
// regardless of cwnd. It emulates the kind of non-conforming TCP
// implementation the paper's Figure 5 analysis script exists to catch.
func (c *Conn) DisableCongestionControl() { c.noCC = true }

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// CWND returns the congestion window in segments.
func (c *Conn) CWND() int { return c.cwnd }

// Ssthresh returns the slow-start threshold in segments.
func (c *Conn) Ssthresh() int { return c.ssthresh }

// InSlowStart reports whether the sender is in the slow-start regime
// (cwnd <= ssthresh, the same predicate as the paper's Figure 5 script).
func (c *Conn) InSlowStart() bool { return c.cwnd <= c.ssthresh }

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// RemoteAddr returns the peer IP and port.
func (c *Conn) RemoteAddr() (packet.IP, uint16) { return c.key.remoteIP, c.key.remotePort }

// BufferedBytes reports unsent application data.
func (c *Conn) BufferedBytes() int { return len(c.sndBuf) }

// Send queues application data; it is segmented and transmitted as the
// congestion and receive windows allow. Send takes ownership of data:
// when nothing is buffered the connection sends (and retransmits)
// straight out of the caller's slice instead of copying it, so the
// caller must not modify it afterwards. The connection itself never
// writes to it — many connections may be handed the same read-only
// source.
func (c *Conn) Send(data []byte) {
	if len(c.sndBuf) == 0 {
		// Capacity is clipped so that a later Send appending to the
		// buffer reallocates instead of writing past the caller's slice.
		c.sndBuf = data[:len(data):len(data)]
	} else {
		c.sndBuf = append(c.sndBuf, data...)
	}
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// Close flushes buffered data and then sends FIN.
func (c *Conn) Close() {
	if c.closing {
		return
	}
	c.closing = true
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
}

// --- handshake ---

func (c *Conn) sendSyn(synack bool) {
	flags := byte(packet.TCPSyn)
	hdr := packet.TCP{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     c.iss,
	}
	if synack {
		flags |= packet.TCPAck
		hdr.Ack = c.rcvNxt
	}
	hdr.Flags = flags
	c.sndNxt = c.iss + 1
	c.Stats.SegmentsSent++
	c.stack.sendRaw(c.key.remoteIP, hdr, nil)
	c.armSynTimer()
}

func (c *Conn) armSynTimer() {
	backoff := c.rto << uint(c.synRetries)
	if backoff > MaxRTO {
		backoff = MaxRTO
	}
	c.rtx.Arm(backoff, c.onSynFn)
}

// onSynTimeout retransmits the SYN, or the SYN-ACK of a passive open:
// the handshake timer's handler.
func (c *Conn) onSynTimeout() {
	if c.state != StateSynSent && c.state != StateSynReceived {
		return
	}
	c.synRetries++
	c.Stats.SynRetries++
	c.Stats.Timeouts++
	if c.synRetries > 6 {
		c.fail()
		return
	}
	// A handshake retransmission is a loss event: ssthresh
	// collapses to its floor of 2 segments and cwnd to 1 — the
	// behaviour the Figure 5 scenario induces on purpose.
	c.enterLoss()
	c.Stats.SegmentsSent++
	hdr := packet.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.iss, Flags: packet.TCPSyn,
	}
	if c.state == StateSynReceived {
		hdr.Flags |= packet.TCPAck
		hdr.Ack = c.rcvNxt
	}
	c.stack.sendRaw(c.key.remoteIP, hdr, nil)
	c.armSynTimer()
}

// release returns a discarded connection to its zero state, keeping only
// what the next connection made from it reuses: the timer and its bound
// handlers, the retransmission queue's array and the emptied reorder-store
// map. Every queue entry is cleared first, so no segment of an old send
// buffer stays reachable from the free list.
func (c *Conn) release() {
	c.rtx.Disarm()
	q := c.rtxQ[:cap(c.rtxQ)]
	clear(q)
	*c = Conn{
		stack:   c.stack,
		rtxQ:    q[:0],
		rtx:     c.rtx,
		onRTOFn: c.onRTOFn,
		onSynFn: c.onSynFn,
		oo:      c.oo,
	}
}

// enterLoss applies the RTO congestion response.
func (c *Conn) enterLoss() {
	flightSegs := int(c.sndNxt-c.sndUna+MSS-1) / MSS
	half := flightSegs / 2
	if half < 2 {
		half = 2
	}
	c.ssthresh = half
	c.cwnd = 1
	c.caCount = 0
	c.dupAcks = 0
}

func (c *Conn) fail() {
	c.state = StateClosed
	c.rtx.Disarm()
	c.stack.retire(c)
	if c.OnFail != nil {
		c.OnFail()
	}
}

// --- segment processing ---

func (c *Conn) segment(hdr packet.TCP, data []byte) {
	c.Stats.SegmentsRcvd++
	if hdr.Flags&packet.TCPRst != 0 {
		c.fail()
		return
	}
	switch c.state {
	case StateSynSent:
		if hdr.Flags&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck &&
			hdr.Ack == c.iss+1 {
			c.rcvNxt = hdr.Seq + 1
			c.sndUna = hdr.Ack
			c.rwnd = uint32(hdr.Window)
			c.state = StateEstablished
			c.synRetries = 0
			c.rto = InitialRTO
			c.rtx.Disarm()
			c.sendAck()
			if c.OnConnected != nil {
				c.OnConnected()
			}
			c.trySend()
		}
	case StateSynReceived:
		if hdr.Flags&packet.TCPAck != 0 && hdr.Ack == c.iss+1 {
			c.sndUna = hdr.Ack
			c.rwnd = uint32(hdr.Window)
			c.state = StateEstablished
			c.synRetries = 0
			c.rto = InitialRTO
			c.rtx.Disarm()
			if c.listener != nil && c.listener.OnAccept != nil {
				c.listener.OnAccept(c)
			}
			if c.OnConnected != nil {
				c.OnConnected()
			}
			// The completing ACK may carry data.
			if len(data) > 0 || hdr.Flags&packet.TCPFin != 0 {
				c.processData(hdr, data)
			}
		} else if hdr.Flags&packet.TCPSyn != 0 {
			// Duplicate SYN (our SYNACK was lost): resend SYNACK now.
			c.Stats.SegmentsSent++
			c.stack.sendRaw(c.key.remoteIP, packet.TCP{
				SrcPort: c.key.localPort, DstPort: c.key.remotePort,
				Seq: c.iss, Ack: c.rcvNxt,
				Flags: packet.TCPSyn | packet.TCPAck,
			}, nil)
		}
	case StateEstablished, StateFinWait, StateCloseWait, StateClosing:
		if hdr.Flags&packet.TCPAck != 0 {
			c.processAck(hdr, len(data) > 0)
		}
		c.processData(hdr, data)
	}
}

func (c *Conn) processAck(hdr packet.TCP, hasData bool) {
	ack := hdr.Ack
	c.rwnd = uint32(hdr.Window)
	if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndNxt) {
		// New data acknowledged.
		c.sndUna = ack
		c.dupAcks = 0
		// RTT sample (Karn: only if the timed segment was not
		// retransmitted and is now fully acked).
		if c.rttValid && seqLT(c.rttSeq, ack) {
			c.rttSample(c.stack.host.Sched.Now() - c.rttAt)
			c.rttValid = false
		}
		c.rtxQ = dropAcked(c.rtxQ, ack)
		c.growCwnd()
		if len(c.rtxQ) == 0 {
			c.rtx.Disarm()
		} else {
			c.armRTO()
		}
		c.trySend()
		if c.finSent && c.sndUna == c.sndNxt {
			c.finAcked()
		}
		return
	}
	if ack == c.sndUna && len(c.rtxQ) > 0 && !hasData {
		c.dupAcks++
		c.Stats.DupAcksRcvd++
		if c.dupAcks == 3 {
			c.fastRetransmit()
		}
	}
}

// growCwnd applies slow start or congestion avoidance, one ACK at a time,
// mirroring the paper's script: slow start while cwnd <= ssthresh.
func (c *Conn) growCwnd() {
	if c.cwnd <= c.ssthresh {
		c.cwnd++
		return
	}
	c.caCount++
	if c.caCount >= c.cwnd {
		c.caCount = 0
		c.cwnd++
	}
}

func (c *Conn) processData(hdr packet.TCP, data []byte) {
	fin := hdr.Flags&packet.TCPFin != 0
	if len(data) == 0 && !fin {
		return
	}
	seq := hdr.Seq
	switch {
	case seq == c.rcvNxt:
		if len(data) > 0 {
			c.rcvNxt += uint32(len(data))
			c.Stats.BytesRcvd += uint64(len(data))
			if c.OnData != nil {
				c.OnData(data)
			}
		}
		if fin {
			c.rcvNxt++
			c.consumeFin()
		}
		c.drainOutOfOrder()
		c.sendAck()
	case seqLT(c.rcvNxt, seq):
		// Future segment: hold for reassembly, emit a duplicate ACK.
		if len(data) > 0 {
			c.stashOutOfOrder(seq, data, fin)
		}
		c.sendAck()
	default:
		// Old retransmission: re-ack so the sender advances.
		c.sendAck()
	}
}

func (c *Conn) consumeFin() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait:
		c.state = StateClosed
		c.stack.retire(c)
	}
	if c.OnClose != nil {
		c.OnClose()
	}
}

func (c *Conn) finAcked() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait
	case StateCloseWait, StateClosing:
		c.state = StateClosed
		c.rtx.Disarm()
		c.stack.retire(c)
	}
}

// --- out-of-order reassembly ---

func (c *Conn) stashOutOfOrder(seq uint32, data []byte, fin bool) {
	if c.oo == nil {
		c.oo = make(map[uint32][]byte)
	}
	if old, ok := c.oo[seq]; ok {
		c.stack.releaseSegment(old)
	}
	c.oo[seq] = append(c.stack.segmentBuffer(), data...)
	if fin {
		c.ooFin = seq + uint32(len(data))
		c.ooFinSet = true
	}
}

func (c *Conn) drainOutOfOrder() {
	for {
		data, ok := c.oo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.oo, c.rcvNxt)
		c.rcvNxt += uint32(len(data))
		c.Stats.BytesRcvd += uint64(len(data))
		if c.OnData != nil {
			c.OnData(data)
		}
		c.stack.releaseSegment(data)
	}
	if c.ooFinSet && c.rcvNxt == c.ooFin {
		c.ooFinSet = false
		c.rcvNxt++
		c.consumeFin()
	}
}

// --- transmission ---

func (c *Conn) sendAck() {
	c.Stats.SegmentsSent++
	c.stack.sendRaw(c.key.remoteIP, packet.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: packet.TCPAck,
	}, nil)
}

// inflight returns unacknowledged bytes.
func (c *Conn) inflight() uint32 { return c.sndNxt - c.sndUna }

// trySend emits as many segments as both windows allow, then a FIN when
// closing with an empty buffer.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	wnd := uint32(c.cwnd) * MSS
	if c.noCC {
		wnd = c.rwnd
	}
	if c.rwnd < wnd {
		wnd = c.rwnd
	}
	for len(c.sndBuf) > 0 && c.inflight() < wnd {
		n := len(c.sndBuf)
		if n > MSS {
			n = MSS
		}
		if rem := wnd - c.inflight(); uint32(n) > rem {
			// Send a short segment only if nothing is in flight
			// (avoid silly window).
			if c.inflight() > 0 {
				break
			}
			if rem == 0 {
				break
			}
			n = int(rem)
		}
		data := c.sndBuf[:n:n]
		c.sndBuf = c.sndBuf[n:]
		seq := c.sndNxt
		c.sndNxt += uint32(n)
		c.rtxQ = append(c.rtxQ, rtxSeg{seq: seq, data: data})
		c.emit(seq, data, false)
		if !c.rttValid {
			c.rttValid = true
			c.rttSeq = seq
			c.rttAt = c.stack.host.Sched.Now()
		}
		if !c.rtx.Armed() {
			c.armRTO()
		}
	}
	if c.closing && !c.finSent && len(c.sndBuf) == 0 {
		c.finSent = true
		seq := c.sndNxt
		c.sndNxt++
		c.rtxQ = append(c.rtxQ, rtxSeg{seq: seq, fin: true})
		c.Stats.SegmentsSent++
		c.stack.sendRaw(c.key.remoteIP, packet.TCP{
			SrcPort: c.key.localPort, DstPort: c.key.remotePort,
			Seq: seq, Ack: c.rcvNxt, Flags: packet.TCPFin | packet.TCPAck,
		}, nil)
		if !c.rtx.Armed() {
			c.armRTO()
		}
	}
}

func (c *Conn) emit(seq uint32, data []byte, isRtx bool) {
	flags := byte(packet.TCPAck | packet.TCPPsh)
	c.Stats.SegmentsSent++
	c.Stats.BytesSent += uint64(len(data))
	if isRtx {
		c.Stats.Retransmissions++
	}
	c.stack.sendRaw(c.key.remoteIP, packet.TCP{
		SrcPort: c.key.localPort, DstPort: c.key.remotePort,
		Seq: seq, Ack: c.rcvNxt, Flags: flags,
	}, data)
}

func (c *Conn) armRTO() {
	c.rtx.Arm(c.rto, c.onRTOFn)
}

func (c *Conn) onRTO() {
	if len(c.rtxQ) == 0 {
		return
	}
	c.Stats.Timeouts++
	c.enterLoss()
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
	}
	c.rttValid = false // Karn: retransmitted segments are not timed
	c.retransmitHead()
	c.armRTO()
}

func (c *Conn) retransmitHead() {
	s := c.rtxQ[0]
	if s.fin {
		c.Stats.SegmentsSent++
		c.Stats.Retransmissions++
		c.stack.sendRaw(c.key.remoteIP, packet.TCP{
			SrcPort: c.key.localPort, DstPort: c.key.remotePort,
			Seq: s.seq, Ack: c.rcvNxt, Flags: packet.TCPFin | packet.TCPAck,
		}, nil)
		return
	}
	c.emit(s.seq, s.data, true)
}

func (c *Conn) fastRetransmit() {
	c.Stats.FastRetransmits++
	flightSegs := int(c.inflight()+MSS-1) / MSS
	half := flightSegs / 2
	if half < 2 {
		half = 2
	}
	c.ssthresh = half
	c.cwnd = half // Reno: resume at ssthresh after the fast retransmit
	c.caCount = 0
	c.rttValid = false
	c.retransmitHead()
	c.armRTO()
}

// rttSample folds a measurement into srtt/rttvar per RFC 6298.
func (c *Conn) rttSample(m time.Duration) {
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	c.rto = rto
}
