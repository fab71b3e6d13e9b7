// Package tcp is a from-scratch TCP implementation for the simulated
// testbed — the protocol under test in the paper's Section 6.1 case study
// and Section 7 throughput experiment.
//
// It implements what the paper's experiments exercise, following RFC 793
// and the congestion-control behaviour of RFC 2001 (the paper's reference
// [19]): three-way handshake with SYN retransmission and exponential
// backoff, cumulative acknowledgements, retransmission timeout with RTT
// estimation, slow start and congestion avoidance driven by ssthresh,
// fast retransmit on three duplicate ACKs, out-of-order reassembly, and
// graceful FIN close.
//
// The congestion window is maintained in segments (not bytes), which is
// also how the paper's Figure 5 analysis script models it: cwnd starts at
// 1, grows by one per ACK in slow start while cwnd <= ssthresh, and by
// one per cwnd ACKs in congestion avoidance. On a retransmission timeout
// ssthresh drops to max(flight/2, 2) and cwnd returns to 1 — so the
// script's "drop one SYNACK → ssthresh becomes 2" manipulation works
// against this implementation exactly as it did against Linux 2.4.17.
package tcp

import (
	"fmt"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// MSS is the fixed maximum segment size. The testbed MTU comfortably
// accommodates it plus all encapsulation.
const MSS = 1400

// State is a TCP connection state.
type State int

// Connection states (subset of RFC 793 sufficient for the testbed).
const (
	StateClosed State = iota + 1
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait
	StateCloseWait
	StateClosing
)

// String names the state for traces and tests.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateListen:
		return "LISTEN"
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateClosing:
		return "CLOSING"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Timing constants. InitialRTO matches the conservative handshake timer
// of the era's kernels (scaled down to keep simulations brisk); MinRTO
// mirrors the Linux 200 ms floor.
const (
	InitialRTO = 1 * time.Second
	MinRTO     = 200 * time.Millisecond
	MaxRTO     = 60 * time.Second
)

// DefaultWindow is the fixed advertised receive window in bytes (the
// maximum encodable without window scaling, which the testbed omits).
const DefaultWindow = 65535

type connKey struct {
	localPort  uint16
	remoteIP   packet.IP
	remotePort uint16
}

// Stack is the per-host TCP endpoint: it demultiplexes inbound segments
// to connections and listeners.
type Stack struct {
	host      *stack.Host
	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	isn       uint32
	// retired accumulates the counters of connections that have been
	// torn down, so stack-level totals stay monotone across closes.
	retired Stats
	// ooFree holds released reorder-store buffers (see segmentBuffer).
	// It survives Reset.
	ooFree [][]byte
	// used lists every connection this run handed out, live or retired,
	// in creation order. A retired one stays here until Reset: it may
	// still be on the call stack, and handles still read it. Reset moves
	// them all to free, where newConn takes them from.
	used []*Conn
	free []*Conn
	// lstUsed and lstFree are the same for listeners, closed or not:
	// Reset moves lstUsed to lstFree, where Listen takes them from.
	lstUsed []*Listener
	lstFree []*Listener
}

// maxOOFree bounds ooFree at a receive window's worth of full segments:
// no more than that can be legitimately out of order at once.
const maxOOFree = DefaultWindow / MSS

// segmentBuffer returns an empty buffer for one out-of-order segment,
// recycled when one is free.
func (s *Stack) segmentBuffer() []byte {
	if n := len(s.ooFree); n > 0 {
		b := s.ooFree[n-1]
		s.ooFree[n-1] = nil
		s.ooFree = s.ooFree[:n-1]
		return b
	}
	return make([]byte, 0, MSS)
}

// releaseSegment takes back a reorder-store buffer nothing reads any
// more.
func (s *Stack) releaseSegment(b []byte) {
	s.host.NIC.Pool().Scrub(b)
	if len(s.ooFree) < maxOOFree {
		s.ooFree = append(s.ooFree, b[:0])
	}
}

// releaseReorderStore returns every buffer c still holds out of order.
func (s *Stack) releaseReorderStore(c *Conn) {
	for seq, b := range c.oo {
		s.releaseSegment(b)
		delete(c.oo, seq)
	}
}

// NewStack attaches a TCP endpoint to the host and registers it for IP
// protocol 6.
func NewStack(h *stack.Host) *Stack {
	s := &Stack{
		host:      h,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]*Listener),
	}
	h.IPv4.Register(packet.ProtoTCP, s.deliver)
	return s
}

// Listener accepts inbound connections on a port. It is valid until the
// stack's Reset, which recycles it.
type Listener struct {
	stack *Stack
	Port  uint16
	// OnAccept is invoked with each connection that completes the
	// handshake.
	OnAccept func(c *Conn)
}

// Listen binds a passive socket: a listener recycled by Reset when the
// stack has one, else a fresh one.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, taken := s.listeners[port]; taken {
		return nil, fmt.Errorf("tcp: port %d already listening on %s", port, s.host.Name)
	}
	var l *Listener
	if n := len(s.lstFree); n > 0 {
		l = s.lstFree[n-1]
		s.lstFree[n-1] = nil
		s.lstFree = s.lstFree[:n-1]
	} else {
		l = new(Listener)
	}
	*l = Listener{stack: s, Port: port}
	s.listeners[port] = l
	s.lstUsed = append(s.lstUsed, l)
	return l, nil
}

// Close stops accepting new connections.
func (l *Listener) Close() { delete(l.stack.listeners, l.Port) }

// Connect opens an active connection from localPort to dst:dstPort and
// begins the handshake. The returned connection reports readiness via
// OnConnected.
func (s *Stack) Connect(localPort uint16, dst packet.IP, dstPort uint16) (*Conn, error) {
	key := connKey{localPort, dst, dstPort}
	if _, exists := s.conns[key]; exists {
		return nil, fmt.Errorf("tcp: connection %v exists", key)
	}
	if _, err := s.host.LookupMAC(dst); err != nil {
		return nil, err
	}
	c := s.newConn(key)
	c.state = StateSynSent
	c.sendSyn(false)
	return c, nil
}

// newConn hands out a connection in its initial state: one recycled by
// Reset when the stack has one, which keeps its timer, bound handlers and
// buffers' capacity, else a fresh one.
func (s *Stack) newConn(key connKey) *Conn {
	var c *Conn
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		c = &Conn{stack: s, rtx: sim.NewTimer(s.host.Sched, "tcp.rto")}
		c.onRTOFn = c.onRTO
		c.onSynFn = c.onSynTimeout
	}
	s.isn += 64000
	c.key = key
	c.state = StateClosed
	c.iss = s.isn
	c.sndUna = s.isn
	c.sndNxt = s.isn
	c.cwnd = 1
	c.ssthresh = 64 // segments; effectively "64 KB", per the paper
	c.rto = InitialRTO
	c.rwnd = DefaultWindow
	s.conns[key] = c
	s.used = append(s.used, c)
	return c
}

func (s *Stack) deliver(src, dst packet.IP, payload []byte) {
	hdr, err := packet.DecodeTCP(payload)
	if err != nil {
		return
	}
	data := payload[packet.TCPHeaderLen:]
	key := connKey{hdr.DstPort, src, hdr.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.segment(hdr, data)
		return
	}
	// No connection: a listener may take the SYN.
	if hdr.Flags&packet.TCPSyn != 0 && hdr.Flags&packet.TCPAck == 0 {
		if l, ok := s.listeners[hdr.DstPort]; ok {
			c := s.newConn(key)
			c.listener = l
			c.state = StateSynReceived
			c.rcvNxt = hdr.Seq + 1
			c.sendSyn(true)
			return
		}
	}
	// Otherwise: send RST for non-RST segments (keeps peers from
	// retrying into the void).
	if hdr.Flags&packet.TCPRst == 0 {
		s.sendRaw(src, packet.TCP{
			SrcPort: hdr.DstPort, DstPort: hdr.SrcPort,
			Seq: hdr.Ack, Flags: packet.TCPRst,
		}, nil)
	}
}

// Reset discards every connection and listener and rewinds the ISN
// generator and retired-counter totals, returning the stack to its
// just-constructed state. Retransmission timers die with the scheduler
// reset that precedes this; the IP protocol registration survives. The
// discarded connections go to the free list in creation order, so the
// next run's n-th connection reuses this run's n-th; the listeners go
// to theirs the same way, zeroed.
func (s *Stack) Reset() {
	for i := len(s.used) - 1; i >= 0; i-- {
		c := s.used[i]
		s.releaseReorderStore(c)
		c.release()
		s.free = append(s.free, c)
	}
	clear(s.used)
	s.used = s.used[:0]
	for i := len(s.lstUsed) - 1; i >= 0; i-- {
		l := s.lstUsed[i]
		*l = Listener{}
		s.lstFree = append(s.lstFree, l)
	}
	clear(s.lstUsed)
	s.lstUsed = s.lstUsed[:0]
	clear(s.conns)
	clear(s.listeners)
	s.isn = 0
	s.retired = Stats{}
}

// retire removes a torn-down connection, folding its counters into the
// stack totals first. The connection stays on used until Reset.
func (s *Stack) retire(c *Conn) {
	if _, ok := s.conns[c.key]; !ok {
		return
	}
	s.retired.add(c.Stats)
	s.releaseReorderStore(c)
	delete(s.conns, c.key)
}

// TotalStats aggregates protocol counters over live and retired
// connections.
func (s *Stack) TotalStats() Stats {
	total := s.retired
	for _, c := range s.conns {
		total.add(c.Stats)
	}
	return total
}

// Snapshot implements the uniform metrics hook: aggregate protocol
// counters plus instantaneous congestion state summed over live
// connections.
func (s *Stack) Snapshot(sn *metrics.Snapshot) {
	st := s.TotalStats()
	sn.Counter("segments_sent", st.SegmentsSent)
	sn.Counter("segments_rcvd", st.SegmentsRcvd)
	sn.Counter("bytes_sent", st.BytesSent)
	sn.Counter("bytes_rcvd", st.BytesRcvd)
	sn.Counter("retransmissions", st.Retransmissions)
	sn.Counter("fast_retransmits", st.FastRetransmits)
	sn.Counter("timeouts", st.Timeouts)
	sn.Counter("syn_retries", st.SynRetries)
	sn.Counter("dup_acks_rcvd", st.DupAcksRcvd)
	var cwnd, ssthresh, buffered int
	for _, c := range s.conns {
		cwnd += c.cwnd
		ssthresh += c.ssthresh
		buffered += len(c.sndBuf)
	}
	sn.Gauge("conns", float64(len(s.conns)))
	sn.Gauge("cwnd_segments", float64(cwnd))
	sn.Gauge("ssthresh_segments", float64(ssthresh))
	sn.Gauge("send_buffered_bytes", float64(buffered))
}

func (s *Stack) sendRaw(dst packet.IP, hdr packet.TCP, data []byte) {
	mac, err := s.host.LookupMAC(dst)
	if err != nil {
		return
	}
	hdr.Window = DefaultWindow
	fr := s.host.NIC.Pool().Get(packet.TCPFrameLen(len(data)))
	packet.PutTCPFrame(fr.Data, s.host.MAC, mac, s.host.IP, dst, hdr, data)
	s.host.SendFrame(fr)
}
