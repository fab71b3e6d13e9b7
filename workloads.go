package virtualwire

import (
	"encoding/binary"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/tcp"
)

// TCPBulkConfig describes a bulk TCP transfer workload, the traffic
// source for the Figure 5 scenario and the Figure 7 throughput sweep.
type TCPBulkConfig struct {
	// From and To name the client and server hosts.
	From, To string
	// SrcPort and DstPort are the connection's ports (the paper uses
	// 0x6000 -> 0x4000).
	SrcPort, DstPort uint16
	// Bytes, when positive, sends exactly this much data then
	// (optionally) closes.
	Bytes int
	// RateBitsPerSecond, when positive, paces application writes at
	// this offered rate instead (Figure 7's "offered data pumping
	// rate").
	RateBitsPerSecond float64
	// Duration bounds the paced transmission (0 = until the run ends).
	Duration time.Duration
	// CloseWhenDone sends FIN after Bytes are written.
	CloseWhenDone bool
	// DisableCongestionControl makes the sender ignore cwnd (a broken
	// TCP, for demonstrating that the analysis scripts catch it).
	DisableCongestionControl bool
}

// TCPBulk is a running bulk-transfer workload handle.
type TCPBulk struct {
	cfg  TCPBulkConfig
	conn *tcp.Conn
	// kept is what the handle reports of its sender once conn is gone:
	// Reset recycles the connection, so detach copies its final state
	// here first. Zero when no connection was made.
	kept senderState
	// payload is what the sender writes: all of Bytes at once, or one
	// pacing tick's worth again and again. Cut from the testbed's zero
	// source while the workload is being started.
	payload []byte

	connected   bool
	delivered   int
	firstByteAt time.Duration
	lastByteAt  time.Duration
	failed      bool

	// clientClosed is the client-side "transfer finished" marker the pace
	// loop watches. The server's OnClose runs on another shard, so what
	// the client observed of a flag set there would depend on the
	// partition rather than on virtual time.
	clientClosed bool
}

// knownHosts rejects a point-to-point workload whose client (from) or
// server (to) is not a declared host.
func (tb *Testbed) knownHosts(from, to string) error {
	if _, ok := tb.byName[from]; !ok {
		return rejectf("from", "unknown host %q", from)
	}
	if _, ok := tb.byName[to]; !ok {
		return rejectf("to", "unknown host %q", to)
	}
	return nil
}

// AddTCPBulk stages a bulk TCP workload; it starts when the scenario
// starts (or immediately when no script is loaded).
func (tb *Testbed) AddTCPBulk(cfg TCPBulkConfig) (*TCPBulk, error) {
	if err := tb.knownHosts(cfg.From, cfg.To); err != nil {
		return nil, err
	}
	if cfg.Bytes <= 0 && cfg.RateBitsPerSecond <= 0 {
		return nil, rejectf("bytes", "TCPBulk needs Bytes or RateBitsPerSecond")
	}
	w := &TCPBulk{cfg: cfg}
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

// paceTick is the pacing loop's period and paceMaxBuffered its bound on
// unsent data: an overloaded connection exerts backpressure instead of
// growing the send buffer without limit.
const (
	paceTick        = time.Millisecond
	paceMaxBuffered = 512 * 1024
)

// stagePayload cuts the sender's payload from the testbed's zero source.
func (w *TCPBulk) stagePayload(tb *Testbed) {
	n := w.cfg.Bytes
	if n <= 0 {
		n = int(w.cfg.RateBitsPerSecond * paceTick.Seconds() / 8)
		if n <= 0 {
			n = 1
		}
	}
	w.payload = tb.zeroPayload(n)
}

// start installs the listener here at the barrier (every shard parked)
// and schedules the connect-and-send loop on the client's shard.
// Server-side callbacks touch only server-written fields and read the
// server shard's clock; the client side owns everything else.
func (w *TCPBulk) start(tb *Testbed, at time.Duration) error {
	from := tb.byName[w.cfg.From]
	to := tb.byName[w.cfg.To]
	lst, err := to.tcp.Listen(w.cfg.DstPort)
	if err != nil {
		return err
	}
	srvSched := to.host.Sched
	lst.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(d []byte) {
			if w.delivered == 0 {
				w.firstByteAt = srvSched.Now()
			}
			w.delivered += len(d)
			w.lastByteAt = srvSched.Now()
		}
		c.OnClose = func() { c.Close() }
	}
	cliSched := from.host.Sched
	w.stagePayload(tb)
	run := func() {
		conn, err := from.tcp.Connect(w.cfg.SrcPort, to.host.IP, w.cfg.DstPort)
		if err != nil {
			w.failed = true
			return
		}
		w.conn = conn
		if w.cfg.DisableCongestionControl {
			conn.DisableCongestionControl()
		}
		conn.OnFail = func() { w.failed = true }
		conn.OnConnected = func() {
			w.connected = true
			if w.cfg.Bytes > 0 {
				conn.Send(w.payload)
				if w.cfg.CloseWhenDone {
					conn.Close()
				}
				return
			}
			w.pace(cliSched, cliSched.Now())
		}
	}
	cliSched.At(at, "vw.workload", run)
	return nil
}

// pace writes at the offered rate, one payload per tick, on the client
// shard's scheduler. It stops on the client-local clientClosed flag, set
// when this loop itself closes the connection.
func (w *TCPBulk) pace(sched *sim.Scheduler, started time.Duration) {
	var step func()
	step = func() {
		if w.failed || w.clientClosed {
			return
		}
		if w.cfg.Duration > 0 && sched.Now()-started >= w.cfg.Duration {
			if w.cfg.CloseWhenDone {
				w.clientClosed = true
				w.conn.Close()
			}
			return
		}
		if w.conn.BufferedBytes() < paceMaxBuffered {
			w.conn.Send(w.payload)
		}
		sched.After(paceTick, "tcpbulk.pace", step)
	}
	step()
}

// Connected reports whether the handshake completed.
func (w *TCPBulk) Connected() bool { return w.connected }

// Failed reports a handshake or connection failure.
func (w *TCPBulk) Failed() bool { return w.failed }

// DeliveredBytes reports application bytes received in order at the
// server.
func (w *TCPBulk) DeliveredBytes() int { return w.delivered }

// GoodputBitsPerSecond reports delivered payload bits divided by the
// first-to-last-byte interval (0 until two deliveries happen).
func (w *TCPBulk) GoodputBitsPerSecond() float64 {
	dt := w.lastByteAt - w.firstByteAt
	if dt <= 0 || w.delivered == 0 {
		return 0
	}
	return float64(w.delivered*8) / dt.Seconds()
}

// senderState is the part of the client connection a TCPBulk reports.
type senderState struct {
	cwnd, ssthresh int
	slowStart      bool
	stats          tcp.Stats
}

// sender reads the client connection, or what detach kept of it.
func (w *TCPBulk) sender() senderState {
	if w.conn == nil {
		return w.kept
	}
	return senderState{w.conn.CWND(), w.conn.Ssthresh(), w.conn.InSlowStart(), w.conn.Stats}
}

// detach keeps the sender's final state and lets go of the connection,
// which the testbed's Reset recycles for its next run.
func (w *TCPBulk) detach() {
	w.kept = w.sender()
	w.conn = nil
}

// CWND returns the sender's congestion window in segments (zero if no
// connection was made).
func (w *TCPBulk) CWND() int { return w.sender().cwnd }

// Ssthresh returns the sender's slow-start threshold in segments (zero
// if no connection was made).
func (w *TCPBulk) Ssthresh() int { return w.sender().ssthresh }

// InSlowStart reports the sender's congestion regime (false if no
// connection was made).
func (w *TCPBulk) InSlowStart() bool { return w.sender().slowStart }

// SenderStats returns the client connection's protocol counters (zero
// if no connection was made: before Run, on a failed connect, or when
// the run was interrupted before the workload started).
func (w *TCPBulk) SenderStats() tcp.Stats { return w.sender().stats }

// UDPEchoConfig describes the UDP ping/echo workload behind Figure 8's
// round-trip-latency measurement.
type UDPEchoConfig struct {
	// Client and Server name the two hosts.
	Client, Server string
	// ServerPort is the echo port (client port is ServerPort+1 unless
	// ClientPort is set).
	ServerPort uint16
	ClientPort uint16
	// Size is the payload size in bytes (minimum 8 for the sequence
	// number; default 64).
	Size int
	// Interval paces the pings (default 1 ms).
	Interval time.Duration
	// Count bounds the pings (0 = until the run ends).
	Count int
}

// UDPEcho is a running echo workload handle.
type UDPEcho struct {
	cfg     UDPEchoConfig
	sent    int
	recvd   int
	rttSum  time.Duration
	pending map[uint64]time.Duration
}

// AddUDPEcho stages a UDP echo workload.
func (tb *Testbed) AddUDPEcho(cfg UDPEchoConfig) (*UDPEcho, error) {
	if err := tb.knownHosts(cfg.Client, cfg.Server); err != nil {
		return nil, err
	}
	if cfg.Size < 8 {
		cfg.Size = 64
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Millisecond
	}
	if cfg.ClientPort == 0 {
		cfg.ClientPort = cfg.ServerPort + 1
	}
	w := &UDPEcho{cfg: cfg, pending: make(map[uint64]time.Duration)}
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

// echoRTTBuckets are the histogram bucket bounds for the echo RTT
// distribution, in seconds (100 µs .. 100 ms).
var echoRTTBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
}

// echoRTTHistogram is the client's RTT histogram, which every echo from
// that client observes into. The first call creates it and registers it
// as the client's "workload" source; it then lives as long as the
// testbed, and Reset zeroes it in place.
func (tb *Testbed) echoRTTHistogram(client string) *metrics.Histogram {
	h, ok := tb.echoRTT[client]
	if !ok {
		h = metrics.NewHistogram(echoRTTBuckets)
		if tb.echoRTT == nil {
			tb.echoRTT = make(map[string]*metrics.Histogram)
		}
		tb.echoRTT[client] = h
		tb.reg.RegisterSource(client, "workload", func(sn *metrics.Snapshot) {
			sn.Histogram("udp_echo_rtt_seconds", h)
		})
	}
	return h
}

// start binds both sockets here at the barrier and schedules the ping
// loop on the client's shard. The server handler only reflects
// datagrams; every workload field is client-written, with RTTs stamped
// from the client shard's clock.
func (w *UDPEcho) start(tb *Testbed, at time.Duration) error {
	client := tb.byName[w.cfg.Client]
	server := tb.byName[w.cfg.Server]
	rttHist := tb.echoRTTHistogram(w.cfg.Client)
	srv, err := server.host.UDP.Bind(w.cfg.ServerPort)
	if err != nil {
		return err
	}
	srv.OnDatagram = func(src packet.IP, srcPort uint16, payload []byte) {
		_ = srv.SendTo(src, srcPort, payload)
	}
	cli, err := client.host.UDP.Bind(w.cfg.ClientPort)
	if err != nil {
		return err
	}
	sched := client.host.Sched
	cli.OnDatagram = func(_ packet.IP, _ uint16, payload []byte) {
		if len(payload) < 8 {
			return
		}
		seq := binary.BigEndian.Uint64(payload)
		sentAt, ok := w.pending[seq]
		if !ok {
			return
		}
		delete(w.pending, seq)
		w.recvd++
		rtt := sched.Now() - sentAt
		w.rttSum += rtt
		rttHist.Observe(rtt.Seconds())
	}
	run := func() {
		// One payload for every ping: SendTo copies it into the frame.
		payload := make([]byte, w.cfg.Size)
		var ping func()
		ping = func() {
			if w.cfg.Count > 0 && w.sent >= w.cfg.Count {
				return
			}
			w.sent++
			seq := uint64(w.sent)
			binary.BigEndian.PutUint64(payload, seq)
			w.pending[seq] = sched.Now()
			_ = cli.SendTo(server.host.IP, w.cfg.ServerPort, payload)
			sched.After(w.cfg.Interval, "udpecho.ping", ping)
		}
		ping()
	}
	sched.At(at, "vw.workload", run)
	return nil
}

// Sent reports pings transmitted.
func (w *UDPEcho) Sent() int { return w.sent }

// Received reports echoes received.
func (w *UDPEcho) Received() int { return w.recvd }

// MeanRTT returns the average round-trip time (0 with no samples).
func (w *UDPEcho) MeanRTT() time.Duration {
	if w.recvd == 0 {
		return 0
	}
	return w.rttSum / time.Duration(w.recvd)
}

// UDPStreamConfig describes a constant-bit-rate datagram stream (no
// echo): the kind of traffic Rether's real-time mode exists to protect.
type UDPStreamConfig struct {
	// From and To name the hosts.
	From, To string
	// Port is the destination port (source is Port+1 unless SrcPort is
	// set).
	Port    uint16
	SrcPort uint16
	// Size is the datagram payload size (default 512).
	Size int
	// Interval paces the stream (default 1 ms).
	Interval time.Duration
	// Count bounds the datagrams (0 = until the run ends).
	Count int
}

// UDPStream is a running CBR workload handle.
type UDPStream struct {
	cfg   UDPStreamConfig
	sent  int
	recvd int
	// inter-arrival tracking for jitter analysis
	lastAt   time.Duration
	maxGap   time.Duration
	firstSet bool
}

// AddUDPStream stages a one-way constant-bit-rate datagram stream.
func (tb *Testbed) AddUDPStream(cfg UDPStreamConfig) (*UDPStream, error) {
	if err := tb.knownHosts(cfg.From, cfg.To); err != nil {
		return nil, err
	}
	if cfg.Size <= 0 {
		cfg.Size = 512
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Millisecond
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = cfg.Port + 1
	}
	w := &UDPStream{cfg: cfg}
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

// start binds the sink here at the barrier, where it owns the
// receive-side fields (recvd, gap tracking) on its own shard and clock,
// and schedules the tick loop on the sender's shard, which owns sent.
func (w *UDPStream) start(tb *Testbed, at time.Duration) error {
	from := tb.byName[w.cfg.From]
	to := tb.byName[w.cfg.To]
	sink, err := to.host.UDP.Bind(w.cfg.Port)
	if err != nil {
		return err
	}
	sinkSched := to.host.Sched
	sink.OnDatagram = func(packet.IP, uint16, []byte) {
		now := sinkSched.Now()
		if w.firstSet {
			if gap := now - w.lastAt; gap > w.maxGap {
				w.maxGap = gap
			}
		}
		w.firstSet = true
		w.lastAt = now
		w.recvd++
	}
	src, err := from.host.UDP.Bind(w.cfg.SrcPort)
	if err != nil {
		return err
	}
	sched := from.host.Sched
	run := func() {
		payload := make([]byte, w.cfg.Size)
		var tick func()
		tick = func() {
			if w.cfg.Count > 0 && w.sent >= w.cfg.Count {
				return
			}
			w.sent++
			_ = src.SendTo(to.host.IP, w.cfg.Port, payload)
			sched.After(w.cfg.Interval, "udpstream.tick", tick)
		}
		tick()
	}
	sched.At(at, "vw.workload", run)
	return nil
}

// Sent reports datagrams transmitted.
func (w *UDPStream) Sent() int { return w.sent }

// Received reports datagrams delivered.
func (w *UDPStream) Received() int { return w.recvd }

// MaxInterArrival reports the largest gap between consecutive deliveries
// — the real-time metric a Rether reservation is supposed to bound.
func (w *UDPStream) MaxInterArrival() time.Duration { return w.maxGap }
