package rether

import (
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// killLayer silently consumes all traffic in both directions once armed —
// the same crash emulation the core engine's FAIL action performs.
type killLayer struct {
	base stack.Base
	dead bool
}

func (k *killLayer) SendDown(fr *ether.Frame) {
	if k.dead {
		return
	}
	k.base.PassDown(fr)
}

func (k *killLayer) DeliverUp(fr *ether.Frame) {
	if k.dead {
		return
	}
	k.base.PassUp(fr)
}

func (k *killLayer) SetBelow(d stack.Down) { k.base.SetBelow(d) }
func (k *killLayer) SetAbove(u stack.Up)   { k.base.SetAbove(u) }

type ringNode struct {
	host   *stack.Host
	rether *Layer
	kill   *killLayer
}

// buildRing creates n Rether nodes on a shared bus. Each stack is
// NIC <- kill <- rether <- IP.
func buildRing(t testing.TB, seed int64, n int, cfg Config) (*sim.Scheduler, []*ringNode) {
	t.Helper()
	s := sim.NewScheduler(seed)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	macs := make([]packet.MAC, n)
	for i := range macs {
		macs[i] = packet.MAC{0, 0, 0, 0, 0, byte(i + 1)}
	}
	cfg.Ring = macs
	nodes := make([]*ringNode, n)
	for i := 0; i < n; i++ {
		ip := packet.IP{192, 168, 1, byte(i + 1)}
		h := stack.NewHost(s, names[i], macs[i], ip)
		bus.Attach(h.NIC)
		rt := New(s, macs[i], cfg)
		kl := &killLayer{}
		h.Build(kl, rt)
		nodes[i] = &ringNode{host: h, rether: rt, kill: kl}
	}
	// Everyone knows everyone (static Node Table).
	for _, a := range nodes {
		for _, b := range nodes {
			a.host.Neighbors[b.host.IP] = b.host.MAC
		}
	}
	for _, nd := range nodes {
		nd.rether.Start()
	}
	return s, nodes
}

var names = []string{"node1", "node2", "node3", "node4", "node5", "node6", "node7", "node8"}

func TestTokenCirculatesRoundRobin(t *testing.T) {
	s, nodes := buildRing(t, 1, 4, Config{})
	visits := make([]int, 4)
	var order []int
	for i, nd := range nodes {
		i := i
		nd.rether.OnTokenVisit = func(uint32) {
			visits[i]++
			if len(order) < 12 {
				order = append(order, i)
			}
		}
	}
	if err := s.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range visits {
		if v < 10 {
			t.Errorf("node%d visited only %d times", i+1, v)
		}
	}
	// Round-robin order: consecutive visits cycle 1,2,3,0,1,2,3...
	for k := 1; k < len(order); k++ {
		if order[k] != (order[k-1]+1)%4 {
			t.Fatalf("token order violated round robin: %v", order)
		}
	}
	// No spurious failure detection on a healthy ring.
	for i, nd := range nodes {
		if nd.rether.Stats.NodesDeclaredDead != 0 {
			t.Errorf("node%d declared deaths on a healthy ring", i+1)
		}
		if nd.rether.Stats.TokenRegenerations != 0 {
			t.Errorf("node%d regenerated on a healthy ring", i+1)
		}
	}
}

func TestDataGatedByToken(t *testing.T) {
	s, nodes := buildRing(t, 2, 4, Config{})
	srv, err := nodes[3].host.UDP.Bind(9000)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	var got int
	srv.OnDatagram = func(packet.IP, uint16, []byte) { got++ }
	cli, err := nodes[0].host.UDP.Bind(9001)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := cli.SendTo(nodes[3].host.IP, 9000, []byte("rt-data")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	// Datagrams are queued, not sent, until the token visits node1.
	if nodes[0].rether.Stats.DataQueuedBE != 20 {
		t.Fatalf("queued %d, want 20", nodes[0].rether.Stats.DataQueuedBE)
	}
	if err := s.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 20 {
		t.Errorf("delivered %d datagrams, want 20", got)
	}
	if nodes[0].rether.Stats.DataSent != 20 {
		t.Errorf("DataSent = %d", nodes[0].rether.Stats.DataSent)
	}
}

func TestSingleNodeFailureRecovery(t *testing.T) {
	// The Figure 6 scenario without VirtualWire: crash node3 and verify
	// detection after exactly TokenRetries token transmissions, ring
	// reconstruction, and continued circulation among survivors.
	s, nodes := buildRing(t, 3, 4, Config{})
	// Crash node3 the first time it receives the token.
	nodes[2].rether.OnTokenVisit = func(uint32) {}
	s.After(30*time.Millisecond, "fail-node3", func() { nodes[2].kill.dead = true })

	ringChanges := make([]int, 4)
	for i, nd := range nodes {
		i := i
		nd.rether.OnRingChange = func(r []packet.MAC) { ringChanges[i]++ }
	}
	if err := s.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	n2 := nodes[1].rether
	if n2.Stats.NodesDeclaredDead != 1 {
		t.Fatalf("node2 declared %d deaths, want 1", n2.Stats.NodesDeclaredDead)
	}
	// Exactly TokenRetries(3) transmissions toward the dead node: one
	// initial plus two retransmissions.
	if n2.Stats.TokenRetransmissions != 2 {
		t.Errorf("token retransmissions = %d, want 2 (3 sends total, per the paper)",
			n2.Stats.TokenRetransmissions)
	}
	if len(n2.Ring()) != 3 {
		t.Errorf("node2 ring size = %d, want 3", len(n2.Ring()))
	}
	// Survivors adopted the new ring.
	for _, i := range []int{0, 1, 3} {
		if ringChanges[i] == 0 {
			t.Errorf("node%d never observed the ring change", i+1)
		}
		if got := len(nodes[i].rether.Ring()); got != 3 {
			t.Errorf("node%d ring size = %d, want 3", i+1, got)
		}
	}
	// Token still circulates among the three survivors.
	var visits [4]int
	for i, nd := range nodes {
		i := i
		nd.rether.OnTokenVisit = func(uint32) { visits[i]++ }
	}
	if err := s.RunUntil(700 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if visits[0] == 0 || visits[1] == 0 || visits[3] == 0 {
		t.Errorf("circulation after recovery: %v", visits)
	}
	if visits[2] != 0 {
		t.Errorf("dead node still visited %d times", visits[2])
	}
}

func TestRecoveryPreservesRealTimeTraffic(t *testing.T) {
	// The paper's claim: "the real time data transport remains
	// unaffected" across a node failure.
	s, nodes := buildRing(t, 4, 4, Config{})
	srv, _ := nodes[3].host.UDP.Bind(9000)
	var got int
	srv.OnDatagram = func(packet.IP, uint16, []byte) { got++ }
	cli, _ := nodes[0].host.UDP.Bind(9001)
	// node1 -> node4 is the real-time stream.
	nodes[0].rether.ClassifyRT = func(fr *ether.Frame) bool { return true }
	sent := 0
	var feed func()
	feed = func() {
		if sent >= 100 {
			return
		}
		sent++
		if err := cli.SendTo(nodes[3].host.IP, 9000, []byte("rt")); err != nil {
			t.Errorf("send: %v", err)
		}
		s.After(2*time.Millisecond, "feed", feed)
	}
	s.After(0, "feed", feed)
	s.After(50*time.Millisecond, "fail-node3", func() { nodes[2].kill.dead = true })
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 100 {
		t.Errorf("real-time stream delivered %d/100 datagrams across the failure", got)
	}
	if nodes[0].rether.Stats.DataQueuedRT != 100 {
		t.Errorf("RT classification missed: %d", nodes[0].rether.Stats.DataQueuedRT)
	}
}

func TestTokenRegenerationAfterHolderCrash(t *testing.T) {
	s, nodes := buildRing(t, 5, 2, Config{})
	// Crash node1 while it holds the token (it bootstraps holding).
	nodes[0].rether.OnTokenVisit = func(uint32) { nodes[0].kill.dead = true }
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	n2 := nodes[1].rether
	if n2.Stats.TokenRegenerations == 0 {
		t.Fatal("node2 never regenerated the lost token")
	}
	if len(n2.Ring()) != 1 {
		t.Errorf("node2 ring = %d nodes, want 1 (node1 declared dead)", len(n2.Ring()))
	}
	if !n2.Holding() && n2.Stats.TokensReceived == 0 && n2.Stats.TokenRegenerations == 0 {
		t.Error("node2 has no token after regeneration")
	}
}

func TestStaleRingSyncIgnored(t *testing.T) {
	s, nodes := buildRing(t, 6, 3, Config{})
	if err := s.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	n1 := nodes[0].rether
	before := len(n1.Ring())
	// Deliver a stale sync (version 0) claiming a one-node ring.
	var payload []byte
	payload = append(payload, nodes[2].host.MAC[:]...)
	n1.onRingSync(0, payload)
	if len(n1.Ring()) != before {
		t.Error("stale ring sync applied")
	}
	// A newer version must apply.
	n1.onRingSync(5, payload)
	if len(n1.Ring()) != 1 {
		t.Error("fresh ring sync not applied")
	}
}

func TestRTServedBeforeBestEffort(t *testing.T) {
	// White-box: serve queues directly and observe ordering.
	s := sim.NewScheduler(7)
	self := packet.MAC{0, 0, 0, 0, 0, 1}
	l := New(s, self, Config{Ring: []packet.MAC{self}, RTQuota: 2, BEQuota: 2})
	var sentOrder []byte
	l.SetBelow(downFunc(func(fr *ether.Frame) {
		if fr.EtherType() == packet.EtherTypeIPv4 {
			sentOrder = append(sentOrder, fr.Data[len(fr.Data)-1])
		}
	}))
	l.started = true
	l.ClassifyRT = func(fr *ether.Frame) bool { return fr.Data[len(fr.Data)-1] >= 100 }
	mk := func(tag byte) *ether.Frame {
		d := make([]byte, packet.EthHeaderLen+1)
		packet.PutEth(d, packet.Eth{Dst: self, Src: self, Type: packet.EtherTypeIPv4})
		d[len(d)-1] = tag
		return &ether.Frame{Data: d}
	}
	l.SendDown(mk(1))   // BE
	l.SendDown(mk(100)) // RT
	l.SendDown(mk(2))   // BE
	l.SendDown(mk(101)) // RT
	l.serveQueues()
	want := []byte{100, 101, 1, 2}
	if len(sentOrder) != len(want) {
		t.Fatalf("sent %v", sentOrder)
	}
	for i := range want {
		if sentOrder[i] != want[i] {
			t.Fatalf("order %v, want RT first: %v", sentOrder, want)
		}
	}
}

// downFunc adapts a function to stack.Down.
type downFunc func(fr *ether.Frame)

func (f downFunc) SendDown(fr *ether.Frame) { f(fr) }

func TestQueueOverflowDrops(t *testing.T) {
	s := sim.NewScheduler(8)
	self := packet.MAC{0, 0, 0, 0, 0, 1}
	l := New(s, self, Config{Ring: []packet.MAC{self}, QueueFrames: 4})
	l.SetBelow(downFunc(func(*ether.Frame) {}))
	l.started = true
	mk := func() *ether.Frame {
		d := make([]byte, packet.EthHeaderLen)
		packet.PutEth(d, packet.Eth{Dst: self, Src: self, Type: packet.EtherTypeIPv4})
		return &ether.Frame{Data: d}
	}
	for i := 0; i < 10; i++ {
		l.SendDown(mk())
	}
	if l.Stats.DataQueuedBE != 4 {
		t.Errorf("queued %d, want 4", l.Stats.DataQueuedBE)
	}
	if l.Stats.DataDropped != 6 {
		t.Errorf("dropped %d, want 6", l.Stats.DataDropped)
	}
}

func TestTokenSeqMonotonicPerNode(t *testing.T) {
	s, nodes := buildRing(t, 9, 3, Config{})
	bad := false
	for _, nd := range nodes {
		var last uint32
		nd.rether.OnTokenVisit = func(seq uint32) {
			if seq <= last {
				bad = true
			}
			last = seq
		}
	}
	if err := s.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if bad {
		t.Error("token sequence numbers not strictly increasing at some node")
	}
}

func TestTwoSimultaneousFailures(t *testing.T) {
	// Crash two of five nodes; the surviving three must reconstruct and
	// keep circulating.
	s, nodes := buildRing(t, 27, 5, Config{})
	s.After(30*time.Millisecond, "fail", func() {
		nodes[1].kill.dead = true
		nodes[3].kill.dead = true
	})
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, i := range []int{0, 2, 4} {
		if got := len(nodes[i].rether.Ring()); got != 3 {
			t.Errorf("node%d ring = %d, want 3", i+1, got)
		}
	}
	var visits [5]int
	for i, nd := range nodes {
		i := i
		nd.rether.OnTokenVisit = func(uint32) { visits[i]++ }
	}
	if err := s.RunUntil(2200 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if visits[0] == 0 || visits[2] == 0 || visits[4] == 0 {
		t.Errorf("survivors not visited: %v", visits)
	}
	if visits[1] != 0 || visits[3] != 0 {
		t.Errorf("dead nodes visited: %v", visits)
	}
}

func TestMonitorFailureStillRecovers(t *testing.T) {
	// Killing ring[0] (the bootstrap/monitor node) while it holds the
	// token forces both regeneration and reconstruction by survivors.
	s, nodes := buildRing(t, 28, 3, Config{})
	nodes[0].rether.OnTokenVisit = func(uint32) { nodes[0].kill.dead = true }
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	regens := nodes[1].rether.Stats.TokenRegenerations + nodes[2].rether.Stats.TokenRegenerations
	if regens == 0 {
		t.Error("no survivor regenerated the token")
	}
	var visits [3]int
	for i, nd := range nodes {
		i := i
		nd.rether.OnTokenVisit = func(uint32) { visits[i]++ }
	}
	if err := s.RunUntil(3200 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if visits[1] == 0 || visits[2] == 0 {
		t.Errorf("survivors not circulating after monitor death: %v", visits)
	}
}
