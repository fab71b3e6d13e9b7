package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// dropLayer drops frames matching a predicate; a crude stand-in for the
// fault injection engine so TCP can be tested below the core package.
type dropLayer struct {
	base stack.Base
	// dropUp decides whether an inbound frame is consumed.
	dropUp func(fr *ether.Frame) bool
	// dropDown decides whether an outbound frame is consumed.
	dropDown func(fr *ether.Frame) bool
}

func (d *dropLayer) SendDown(fr *ether.Frame) {
	if d.dropDown != nil && d.dropDown(fr) {
		return
	}
	d.base.PassDown(fr)
}

func (d *dropLayer) DeliverUp(fr *ether.Frame) {
	if d.dropUp != nil && d.dropUp(fr) {
		return
	}
	d.base.PassUp(fr)
}

func (d *dropLayer) SetBelow(dn stack.Down) { d.base.SetBelow(dn) }
func (d *dropLayer) SetAbove(u stack.Up)    { d.base.SetAbove(u) }

// tcpFlagsOf extracts the TCP flags byte of an IPv4/TCP frame, or 0.
func tcpFlagsOf(fr *ether.Frame) byte {
	if fr.EtherType() != packet.EtherTypeIPv4 || len(fr.Data) <= packet.OffTCPFlags {
		return 0
	}
	if fr.Data[packet.OffIPProto] != packet.ProtoTCP {
		return 0
	}
	return fr.Data[packet.OffTCPFlags]
}

type pair struct {
	sched  *sim.Scheduler
	sw     *ether.Switch
	h1, h2 *stack.Host
	t1, t2 *Stack
}

// newPair builds two hosts over a clean switch; layers1/layers2 sit
// between NIC and IP on the respective hosts.
func newPair(t testing.TB, seed int64, layers1, layers2 []stack.Layer) *pair {
	t.Helper()
	s := sim.NewScheduler(seed)
	sw := ether.NewSwitch(s, ether.SwitchConfig{})
	h1 := stack.NewHost(s, "node1", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{192, 168, 1, 1})
	h2 := stack.NewHost(s, "node2", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{192, 168, 1, 2})
	for _, h := range []*stack.Host{h1, h2} {
		h.Neighbors[h1.IP] = h1.MAC
		h.Neighbors[h2.IP] = h2.MAC
	}
	sw.AttachHost(h1.NIC)
	sw.AttachHost(h2.NIC)
	h1.Build(layers1...)
	h2.Build(layers2...)
	return &pair{sched: s, sw: sw, h1: h1, h2: h2, t1: NewStack(h1), t2: NewStack(h2)}
}

// transfer sends n bytes from p.h1 to p.h2 and returns the received
// bytes plus the client connection.
func transfer(t testing.TB, p *pair, n int, horizon time.Duration) ([]byte, *Conn) {
	t.Helper()
	lst, err := p.t2.Listen(0x4000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var rcvd bytes.Buffer
	closed := false
	lst.OnAccept = func(c *Conn) {
		c.OnData = func(d []byte) { rcvd.Write(d) }
		c.OnClose = func() { closed = true; c.Close() }
	}
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	cli, err := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	cli.OnConnected = func() {
		cli.Send(payload)
		cli.Close()
	}
	if err := p.sched.RunUntil(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	_ = closed
	return rcvd.Bytes(), cli
}

func TestHandshakeAndBulkTransfer(t *testing.T) {
	p := newPair(t, 1, nil, nil)
	const n = 100 * 1024
	got, cli := transfer(t, p, n, 30*time.Second)
	if len(got) != n {
		t.Fatalf("received %d bytes, want %d", len(got), n)
	}
	for i, b := range got {
		if b != byte(i%251) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	if cli.Stats.Retransmissions != 0 {
		t.Errorf("retransmissions on a clean wire: %d", cli.Stats.Retransmissions)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	p := newPair(t, 2, nil, nil)
	_, cli := transfer(t, p, 50*1024, 30*time.Second)
	// 50 KB = 37 segments; with default ssthresh 64 everything happens
	// in slow start, so cwnd should have grown well past 1.
	if cli.CWND() < 10 {
		t.Errorf("cwnd = %d after slow-start bulk transfer, want >= 10", cli.CWND())
	}
	if !cli.InSlowStart() {
		t.Errorf("left slow start (cwnd=%d ssthresh=%d) without losses", cli.CWND(), cli.Ssthresh())
	}
}

// TestSynAckDropSetsSsthreshTwo reproduces the Figure 5 precondition:
// dropping the first SYNACK at the client forces a handshake timeout, and
// the retransmission must leave ssthresh at 2 and cwnd at 1.
func TestSynAckDropSetsSsthreshTwo(t *testing.T) {
	synacks := 0
	dl := &dropLayer{dropUp: func(fr *ether.Frame) bool {
		fl := tcpFlagsOf(fr)
		if fl&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck {
			synacks++
			return synacks == 1 // drop only the first
		}
		return false
	}}
	p := newPair(t, 3, []stack.Layer{dl}, nil)
	lst, _ := p.t2.Listen(0x4000)
	lst.OnAccept = func(c *Conn) {}
	cli, err := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	connected := false
	var atConnect struct{ cwnd, ssthresh int }
	cli.OnConnected = func() {
		connected = true
		atConnect.cwnd = cli.CWND()
		atConnect.ssthresh = cli.Ssthresh()
	}
	if err := p.sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !connected {
		t.Fatal("handshake never completed after SYNACK drop")
	}
	if cli.Stats.SynRetries == 0 {
		t.Error("no SYN retransmission despite SYNACK drop")
	}
	if atConnect.ssthresh != 2 {
		t.Errorf("ssthresh = %d at connect, want 2 (paper's Figure 5 setup)", atConnect.ssthresh)
	}
	if atConnect.cwnd != 1 {
		t.Errorf("cwnd = %d at connect, want 1", atConnect.cwnd)
	}
}

// TestCongestionAvoidanceCrossover verifies the Figure 5 behaviour end to
// end: with ssthresh forced to 2, the sender must leave slow start after
// roughly two ACKs and grow cwnd linearly afterwards.
func TestCongestionAvoidanceCrossover(t *testing.T) {
	synacks := 0
	dl := &dropLayer{dropUp: func(fr *ether.Frame) bool {
		fl := tcpFlagsOf(fr)
		if fl&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck {
			synacks++
			return synacks == 1
		}
		return false
	}}
	p := newPair(t, 4, []stack.Layer{dl}, nil)
	got, cli := transfer(t, p, 60*1024, 60*time.Second)
	if len(got) != 60*1024 {
		t.Fatalf("received %d bytes", len(got))
	}
	if cli.Ssthresh() != 2 {
		t.Fatalf("ssthresh = %d, want 2", cli.Ssthresh())
	}
	if cli.InSlowStart() {
		t.Error("sender never switched to congestion avoidance")
	}
	// 60 KB = 44 segments => 44 ACKs. Slow start spends ~2 of them;
	// congestion avoidance then grows cwnd by ~1 per cwnd ACKs starting
	// at 3: 3+4+5+6+7+8 = 33 ACKs reaches cwnd 9. cwnd must be well
	// below the ~44 slow start would have reached.
	if cli.CWND() > 12 {
		t.Errorf("cwnd = %d; congestion avoidance should grow linearly (expected <= ~10)", cli.CWND())
	}
}

func TestDataLossRecoveredByRetransmission(t *testing.T) {
	drops := 0
	dl := &dropLayer{dropDown: func(fr *ether.Frame) bool {
		fl := tcpFlagsOf(fr)
		// Drop the 5th outbound data-bearing segment once.
		if fl&packet.TCPPsh != 0 {
			drops++
			return drops == 5
		}
		return false
	}}
	p := newPair(t, 5, []stack.Layer{dl}, nil)
	const n = 64 * 1024
	got, cli := transfer(t, p, n, 60*time.Second)
	if len(got) != n {
		t.Fatalf("received %d bytes, want %d", len(got), n)
	}
	for i, b := range got {
		if b != byte(i%251) {
			t.Fatalf("byte %d corrupted after recovery", i)
		}
	}
	if cli.Stats.Retransmissions == 0 {
		t.Error("drop never triggered a retransmission")
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	drops := 0
	dl := &dropLayer{dropDown: func(fr *ether.Frame) bool {
		fl := tcpFlagsOf(fr)
		if fl&packet.TCPPsh != 0 {
			drops++
			return drops == 8 // drop one mid-stream segment
		}
		return false
	}}
	p := newPair(t, 6, []stack.Layer{dl}, nil)
	const n = 128 * 1024
	got, cli := transfer(t, p, n, 60*time.Second)
	if len(got) != n {
		t.Fatalf("received %d bytes, want %d", len(got), n)
	}
	if cli.Stats.FastRetransmits == 0 {
		t.Errorf("expected fast retransmit (dupacks=%d timeouts=%d)",
			cli.Stats.DupAcksRcvd, cli.Stats.Timeouts)
	}
}

func TestConnectRefusedByRST(t *testing.T) {
	p := newPair(t, 7, nil, nil)
	cli, err := p.t1.Connect(1000, p.h2.IP, 9) // nobody listens on 9
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	failed := false
	cli.OnFail = func() { failed = true }
	if err := p.sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !failed {
		t.Error("connection to a closed port did not fail")
	}
	if cli.State() != StateClosed {
		t.Errorf("state = %v, want CLOSED", cli.State())
	}
}

func TestGracefulClose(t *testing.T) {
	p := newPair(t, 8, nil, nil)
	lst, _ := p.t2.Listen(0x4000)
	srvClosed := false
	lst.OnAccept = func(c *Conn) {
		c.OnClose = func() {
			srvClosed = true
			c.Close() // close our direction too
		}
	}
	cli, _ := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	cliClosed := false
	cli.OnClose = func() { cliClosed = true }
	cli.OnConnected = func() {
		cli.Send([]byte("bye"))
		cli.Close()
	}
	if err := p.sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !srvClosed || !cliClosed {
		t.Errorf("close signals: server=%v client=%v", srvClosed, cliClosed)
	}
	if len(p.t1.conns) != 0 || len(p.t2.conns) != 0 {
		t.Errorf("connections leaked: %d/%d", len(p.t1.conns), len(p.t2.conns))
	}
}

func TestListenerConflict(t *testing.T) {
	p := newPair(t, 9, nil, nil)
	if _, err := p.t2.Listen(80); err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := p.t2.Listen(80); err == nil {
		t.Error("duplicate listen succeeded")
	}
}

func TestThroughputSanity(t *testing.T) {
	// Bulk transfer over a clean 100 Mbps switch should reach tens of
	// Mbps of goodput once the window opens.
	p := newPair(t, 10, nil, nil)
	const n = 4 << 20 // 4 MB
	lst, _ := p.t2.Listen(0x4000)
	var rcvd int
	var doneAt time.Duration
	lst.OnAccept = func(c *Conn) {
		c.OnData = func(d []byte) {
			rcvd += len(d)
			if rcvd >= n {
				doneAt = p.sched.Now()
			}
		}
	}
	cli, _ := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	cli.OnConnected = func() { cli.Send(make([]byte, n)) }
	if err := p.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rcvd < n {
		t.Fatalf("received %d of %d bytes", rcvd, n)
	}
	mbps := float64(n*8) / doneAt.Seconds() / 1e6
	if mbps < 20 {
		t.Errorf("goodput %.1f Mbps; window never opened?", mbps)
	}
	t.Logf("goodput %.1f Mbps in %v", mbps, doneAt)
}

// Property: under arbitrary single-direction loss patterns, the receiver
// always obtains exactly the sent byte stream.
func TestLossRecoveryProperty(t *testing.T) {
	prop := func(seed int64, dropSet []uint8) bool {
		drop := make(map[int]bool, len(dropSet))
		for _, d := range dropSet {
			drop[int(d%64)] = true
		}
		cnt := 0
		dl := &dropLayer{dropDown: func(fr *ether.Frame) bool {
			if tcpFlagsOf(fr)&packet.TCPPsh != 0 {
				cnt++
				return drop[cnt]
			}
			return false
		}}
		p := newPair(t, seed, []stack.Layer{dl}, nil)
		const n = 48 * 1024
		// Generous horizon: dense drop patterns can eat several
		// retransmissions in a row, and exponential RTO backoff then
		// dominates (virtual time is free).
		got, _ := transfer(t, p, n, time.Hour)
		if len(got) != n {
			return false
		}
		for i, b := range got {
			if b != byte(i%251) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
