package tcp

import (
	"testing"
	"time"
)

func TestSeqCompare(t *testing.T) {
	tests := []struct {
		a, b    uint32
		lt, leq bool
	}{
		{1, 2, true, true},
		{2, 1, false, false},
		{5, 5, false, true},
		// Wraparound: 0xFFFFFFF0 is "before" 0x10.
		{0xFFFFFFF0, 0x10, true, true},
		{0x10, 0xFFFFFFF0, false, false},
	}
	for _, tt := range tests {
		if got := seqLT(tt.a, tt.b); got != tt.lt {
			t.Errorf("seqLT(%#x,%#x) = %v, want %v", tt.a, tt.b, got, tt.lt)
		}
		if got := seqLEQ(tt.a, tt.b); got != tt.leq {
			t.Errorf("seqLEQ(%#x,%#x) = %v, want %v", tt.a, tt.b, got, tt.leq)
		}
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateClosed:      "CLOSED",
		StateListen:      "LISTEN",
		StateSynSent:     "SYN_SENT",
		StateSynReceived: "SYN_RCVD",
		StateEstablished: "ESTABLISHED",
		StateFinWait:     "FIN_WAIT",
		StateCloseWait:   "CLOSE_WAIT",
		StateClosing:     "CLOSING",
		State(99):        "State(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestRTTSampleConvergence(t *testing.T) {
	c := &Conn{}
	for i := 0; i < 50; i++ {
		c.rttSample(10 * time.Millisecond)
	}
	if c.srtt < 9*time.Millisecond || c.srtt > 11*time.Millisecond {
		t.Errorf("srtt = %v after steady samples of 10ms", c.srtt)
	}
	// RTO respects the floor.
	if c.rto < MinRTO {
		t.Errorf("rto = %v below MinRTO", c.rto)
	}
	// A spike inflates rttvar and so the RTO.
	before := c.rto
	c.rttSample(500 * time.Millisecond)
	if c.rto <= before {
		t.Errorf("rto did not react to an RTT spike: %v -> %v", before, c.rto)
	}
}

func TestReceiverWindowLimitsSender(t *testing.T) {
	// With a tiny advertised window the sender must not exceed it even
	// though cwnd allows more.
	p := newPair(t, 40, nil, nil)
	lst, _ := p.t2.Listen(0x4000)
	var rcvd int
	lst.OnAccept = func(c *Conn) {
		c.OnData = func(d []byte) { rcvd += len(d) }
	}
	cli, _ := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	cli.OnConnected = func() {
		cli.cwnd = 1000 // force the limit onto rwnd
		cli.rwnd = 2 * MSS
		cli.Send(make([]byte, 10*MSS))
	}
	if err := p.sched.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The peer keeps advertising its real (big) window in ACKs, so the
	// transfer proceeds; the point is the sender never had more than
	// rwnd in flight at once. Inspect the stats indirectly: no loss, no
	// retransmissions, everything delivered.
	if err := p.sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rcvd != 10*MSS {
		t.Errorf("delivered %d, want %d", rcvd, 10*MSS)
	}
	if cli.Stats.Retransmissions != 0 {
		t.Errorf("retransmissions = %d", cli.Stats.Retransmissions)
	}
}

func TestDisableCongestionControlSendsBeyondCwnd(t *testing.T) {
	p := newPair(t, 41, nil, nil)
	lst, _ := p.t2.Listen(0x4000)
	lst.OnAccept = func(c *Conn) {}
	cli, _ := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	cli.DisableCongestionControl()
	sentAtOnce := 0
	cli.OnConnected = func() {
		cli.Send(make([]byte, 20*MSS))
		// With cwnd=1 a conforming sender would emit 1 segment; the
		// broken one blasts up to rwnd immediately.
		sentAtOnce = int(cli.inflight()) / MSS
	}
	if err := p.sched.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if sentAtOnce < 10 {
		t.Errorf("broken sender emitted only %d segments at connect", sentAtOnce)
	}
}

func TestBufferedBytesAndPortAccessors(t *testing.T) {
	p := newPair(t, 42, nil, nil)
	lst, _ := p.t2.Listen(0x4000)
	lst.OnAccept = func(c *Conn) {}
	cli, _ := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	if cli.LocalPort() != 0x6000 {
		t.Errorf("LocalPort = %#x", cli.LocalPort())
	}
	ip, port := cli.RemoteAddr()
	if ip != p.h2.IP || port != 0x4000 {
		t.Errorf("RemoteAddr = %v:%#x", ip, port)
	}
	cli.Send(make([]byte, 100))
	if cli.BufferedBytes() != 100 {
		// Not yet established: everything stays buffered.
		t.Errorf("BufferedBytes = %d before connect", cli.BufferedBytes())
	}
	if err := p.sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if cli.BufferedBytes() != 0 {
		t.Errorf("BufferedBytes = %d after transfer", cli.BufferedBytes())
	}
}

func TestSimultaneousTransfersIndependent(t *testing.T) {
	// Two connections share the wire without corrupting each other.
	p := newPair(t, 43, nil, nil)
	mkServer := func(port uint16) *int {
		lst, err := p.t2.Listen(port)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		n := new(int)
		lst.OnAccept = func(c *Conn) {
			c.OnData = func(d []byte) { *n += len(d) }
		}
		return n
	}
	nA := mkServer(1000)
	nB := mkServer(2000)
	cA, _ := p.t1.Connect(5001, p.h2.IP, 1000)
	cB, _ := p.t1.Connect(5002, p.h2.IP, 2000)
	cA.OnConnected = func() { cA.Send(make([]byte, 64*1024)) }
	cB.OnConnected = func() { cB.Send(make([]byte, 32*1024)) }
	if err := p.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if *nA != 64*1024 || *nB != 32*1024 {
		t.Errorf("deliveries: A=%d B=%d", *nA, *nB)
	}
}

// TestDropAckedLeavesUnackedSuffix: every cumulative ACK, partial ones
// included, leaves exactly the entries whose end lies past it, in order;
// the FIN counts for one sequence number. The queue starts just below
// the sequence wrap so the comparisons cross it.
func TestDropAckedLeavesUnackedSuffix(t *testing.T) {
	iss := uint32(0xFFFFF000)
	var all []rtxSeg
	seq := iss
	for _, n := range []int{1460, 1460, 512, 1460, 1} {
		all = append(all, rtxSeg{seq: seq, data: make([]byte, n)})
		seq += uint32(n)
	}
	all = append(all, rtxSeg{seq: seq, fin: true})
	finEnd := seq + 1

	q := append([]rtxSeg(nil), all...)
	for _, ack := range []uint32{iss, iss + 1, iss + 1460, iss + 1460, iss + 2000,
		iss + 3432, iss + 4892, iss + 4893, finEnd - 1, finEnd} {
		q = dropAcked(q, ack)
		var want []rtxSeg
		for _, s := range all {
			if seqLT(ack, s.end()) {
				want = append(want, s)
			}
		}
		if len(q) != len(want) {
			t.Fatalf("ack %#x: %d entries left, want %d", ack, len(q), len(want))
		}
		for i := range q {
			if q[i].seq != want[i].seq || len(q[i].data) != len(want[i].data) || q[i].fin != want[i].fin {
				t.Fatalf("ack %#x: entry %d = %+v, want %+v", ack, i, q[i], want[i])
			}
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d entries left after the FIN's ACK", len(q))
	}
}
