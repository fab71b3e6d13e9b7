package ether

import (
	"testing"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

func mac(last byte) packet.MAC { return packet.MAC{0, 0, 0, 0, 0, last} }

// testFrame builds a frame from src to dst with n payload bytes after a
// valid Ethernet header.
func testFrame(src, dst packet.MAC, n int) *Frame {
	b := make([]byte, packet.EthHeaderLen+n)
	packet.PutEth(b, packet.Eth{Dst: dst, Src: src, Type: 0x0800})
	for i := packet.EthHeaderLen; i < len(b); i++ {
		b[i] = byte(i)
	}
	return &Frame{Data: b}
}

func TestFrameAccessors(t *testing.T) {
	fr := testFrame(mac(1), mac(2), 10)
	if fr.Src() != mac(1) {
		t.Errorf("Src() = %v", fr.Src())
	}
	if fr.Dst() != mac(2) {
		t.Errorf("Dst() = %v", fr.Dst())
	}
	if fr.EtherType() != 0x0800 {
		t.Errorf("EtherType() = %#x", fr.EtherType())
	}
}

func TestBusDeliversToDestination(t *testing.T) {
	s := sim.NewScheduler(1)
	bus := NewSharedBus(s, BusConfig{})
	a, b, c := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0), NewNIC(s, mac(3), 0)
	bus.Attach(a)
	bus.Attach(b)
	bus.Attach(c)
	var gotB, gotC int
	b.SetRecv(func(*Frame) { gotB++ })
	c.SetRecv(func(*Frame) { gotC++ })
	a.Send(testFrame(mac(1), mac(2), 100))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotB != 1 {
		t.Errorf("destination received %d frames, want 1", gotB)
	}
	if gotC != 0 {
		t.Errorf("bystander received %d frames, want 0 (unicast filter)", gotC)
	}
	if a.Stats.TxFrames != 1 || b.Stats.RxFrames != 1 {
		t.Errorf("stats: tx=%d rx=%d", a.Stats.TxFrames, b.Stats.RxFrames)
	}
}

func TestBusBroadcast(t *testing.T) {
	s := sim.NewScheduler(1)
	bus := NewSharedBus(s, BusConfig{})
	nics := make([]*NIC, 4)
	got := make([]int, 4)
	for i := range nics {
		nics[i] = NewNIC(s, mac(byte(i+1)), 0)
		bus.Attach(nics[i])
		i := i
		nics[i].SetRecv(func(*Frame) { got[i]++ })
	}
	nics[0].Send(testFrame(mac(1), packet.Broadcast, 50))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got[0] != 0 {
		t.Error("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if got[i] != 1 {
			t.Errorf("nic %d got %d broadcast copies, want 1", i, got[i])
		}
	}
}

func TestBusSerializationTiming(t *testing.T) {
	s := sim.NewScheduler(1)
	bus := NewSharedBus(s, BusConfig{BitsPerSecond: 100e6, Propagation: 500 * time.Nanosecond})
	a, b := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0)
	bus.Attach(a)
	bus.Attach(b)
	var at time.Duration
	b.SetRecv(func(*Frame) { at = s.Now() })
	a.Send(testFrame(mac(1), mac(2), 1000)) // 1014-byte frame
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Wire bytes = 1014+12 = 1026 → 8208 bits at 100 Mbps = 82.08 µs,
	// plus 500 ns propagation.
	want := time.Duration(float64(wireBytes(1014)*8)/100e6*float64(time.Second)) + 500*time.Nanosecond
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

// TestBusSequentialSendersShareFairly drives two stations hard and checks
// that both make progress and that collisions occur and resolve.
func TestBusContention(t *testing.T) {
	s := sim.NewScheduler(7)
	bus := NewSharedBus(s, BusConfig{})
	a, b := NewNIC(s, mac(1), 256), NewNIC(s, mac(2), 256)
	c := NewNIC(s, mac(3), 0)
	bus.Attach(a)
	bus.Attach(b)
	bus.Attach(c)
	got := 0
	c.SetRecv(func(*Frame) { got++ })
	const n = 50
	for i := 0; i < n; i++ {
		a.Send(testFrame(mac(1), mac(3), 500))
		b.Send(testFrame(mac(2), mac(3), 500))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	lost := int(a.Stats.TxExpired + b.Stats.TxExpired)
	if got+lost != 2*n {
		t.Errorf("delivered %d + expired %d, want %d total", got, lost, 2*n)
	}
	if bus.TotalCollisions == 0 {
		t.Error("simultaneous senders never collided; CSMA/CD model inert")
	}
	if a.Stats.TxFrames == 0 || b.Stats.TxFrames == 0 {
		t.Errorf("starvation: a=%d b=%d", a.Stats.TxFrames, b.Stats.TxFrames)
	}
}

func TestBusBitErrorsDropAtNIC(t *testing.T) {
	s := sim.NewScheduler(3)
	bus := NewSharedBus(s, BusConfig{BitErrorRate: 1e-4}) // ~0.5 loss for 600-byte frames
	a, b := NewNIC(s, mac(1), 1024), NewNIC(s, mac(2), 0)
	bus.Attach(a)
	bus.Attach(b)
	got := 0
	b.SetRecv(func(fr *Frame) {
		if fr.Corrupt {
			t.Error("corrupt frame passed FCS filter")
		}
		got++
	})
	const n = 200
	send := func() {}
	i := 0
	send = func() {
		if i >= n {
			return
		}
		i++
		a.Send(testFrame(mac(1), mac(2), 600))
		s.After(100*time.Microsecond, "next", send)
	}
	s.After(0, "start", send)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if b.Stats.CRCErrors == 0 {
		t.Error("no CRC errors at BER 1e-4; corruption model inert")
	}
	if got == 0 {
		t.Error("all frames corrupted; corruption model too aggressive")
	}
	if got+int(b.Stats.CRCErrors) != n {
		t.Errorf("delivered %d + crc %d != %d", got, b.Stats.CRCErrors, n)
	}
}

func TestNICDeliverCorrupt(t *testing.T) {
	s := sim.NewScheduler(3)
	bus := NewSharedBus(s, BusConfig{BitErrorRate: 1}) // everything corrupts
	a, b := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0)
	b.DeliverCorrupt = true
	bus.Attach(a)
	bus.Attach(b)
	var sawCorrupt bool
	b.SetRecv(func(fr *Frame) { sawCorrupt = fr.Corrupt })
	a.Send(testFrame(mac(1), mac(2), 100))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sawCorrupt {
		t.Error("DeliverCorrupt NIC did not see the corrupt frame")
	}
}

func TestNICQueueOverflow(t *testing.T) {
	s := sim.NewScheduler(1)
	bus := NewSharedBus(s, BusConfig{})
	a := NewNIC(s, mac(1), 4)
	bus.Attach(a)
	ok := 0
	for i := 0; i < 10; i++ {
		if a.Send(testFrame(mac(1), mac(2), 1000)) {
			ok++
		}
	}
	if ok != 4 {
		t.Errorf("accepted %d frames into a 4-deep queue", ok)
	}
	if a.Stats.QueueDrops != 6 {
		t.Errorf("QueueDrops = %d, want 6", a.Stats.QueueDrops)
	}
}

func TestSwitchUnicastAfterLearning(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s, SwitchConfig{})
	var nics [3]*NIC
	var got [3]int
	for i := range nics {
		nics[i] = NewNIC(s, mac(byte(i+1)), 0)
		sw.AttachHost(nics[i])
		i := i
		nics[i].SetRecv(func(*Frame) { got[i]++ })
	}
	// The bystander observes its wire promiscuously so flooding (which a
	// normal NIC would address-filter) is visible to the test.
	nics[2].Promiscuous = true
	// First frame to an unknown MAC floods; reply then unicasts.
	nics[0].Send(testFrame(mac(1), mac(2), 100))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got[1] != 1 {
		t.Fatalf("dst got %d", got[1])
	}
	flooded := got[2]
	if flooded != 1 {
		t.Fatalf("unknown dst should flood; bystander got %d", flooded)
	}
	nics[1].Send(testFrame(mac(2), mac(1), 100)) // teaches the switch mac(2)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	nics[0].Send(testFrame(mac(1), mac(2), 100)) // now unicast
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got[2] != flooded {
		t.Errorf("bystander saw unicast traffic after learning: %d", got[2])
	}
	if got[1] != 2 || got[0] != 1 {
		t.Errorf("delivery counts: %v", got)
	}
}

func TestSwitchHalfDuplexContention(t *testing.T) {
	// Bidirectional load must share each half-duplex port segment:
	// the transfer takes roughly twice as long as over full duplex.
	runOne := func(full bool) time.Duration {
		s := sim.NewScheduler(9)
		sw := NewSwitch(s, SwitchConfig{FullDuplex: full})
		a, b := NewNIC(s, mac(1), 512), NewNIC(s, mac(2), 512)
		sw.AttachHost(a)
		sw.AttachHost(b)
		gotA, gotB := 0, 0
		a.SetRecv(func(*Frame) { gotA++ })
		b.SetRecv(func(*Frame) { gotB++ })
		for i := 0; i < 100; i++ {
			a.Send(testFrame(mac(1), mac(2), 800))
			b.Send(testFrame(mac(2), mac(1), 800))
		}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if gotA != 100 || gotB != 100 {
			t.Fatalf("deliveries: a=%d b=%d (full=%v)", gotA, gotB, full)
		}
		return s.Now()
	}
	half := runOne(false)
	full := runOne(true)
	if half < full*17/10 {
		t.Errorf("half-duplex finished in %v vs full-duplex %v; want ~2x sharing", half, full)
	}
}

func TestSwitchFullDuplexNoCollisions(t *testing.T) {
	s := sim.NewScheduler(9)
	sw := NewSwitch(s, SwitchConfig{FullDuplex: true})
	a, b := NewNIC(s, mac(1), 512), NewNIC(s, mac(2), 512)
	sw.AttachHost(a)
	sw.AttachHost(b)
	gotA, gotB := 0, 0
	a.SetRecv(func(*Frame) { gotA++ })
	b.SetRecv(func(*Frame) { gotB++ })
	for i := 0; i < 100; i++ {
		a.Send(testFrame(mac(1), mac(2), 800))
		b.Send(testFrame(mac(2), mac(1), 800))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.Stats.Collisions+b.Stats.Collisions != 0 {
		t.Error("full-duplex links collided")
	}
	if gotA != 100 || gotB != 100 {
		t.Errorf("deliveries: a=%d b=%d, want 100/100", gotA, gotB)
	}
}

func TestLinkOrderingPreserved(t *testing.T) {
	s := sim.NewScheduler(2)
	l := NewLink(s, LinkConfig{})
	a, b := NewNIC(s, mac(1), 64), NewNIC(s, mac(2), 0)
	l.Attach(a)
	l.Attach(b)
	var order []byte
	b.SetRecv(func(fr *Frame) { order = append(order, fr.Data[packet.EthHeaderLen]) })
	for i := 0; i < 10; i++ {
		fr := testFrame(mac(1), mac(2), 100)
		fr.Data[packet.EthHeaderLen] = byte(i)
		a.Send(fr)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 10 {
		t.Fatalf("delivered %d frames", len(order))
	}
	for i, v := range order {
		if v != byte(i) {
			t.Fatalf("frames reordered on a point-to-point link: %v", order)
		}
	}
}

func TestBusUtilization(t *testing.T) {
	// A single saturating sender on a clean 100 Mbps bus must achieve
	// close to line rate (>90% goodput for 1400-byte frames).
	s := sim.NewScheduler(4)
	bus := NewSharedBus(s, BusConfig{})
	a, b := NewNIC(s, mac(1), 16), NewNIC(s, mac(2), 0)
	bus.Attach(a)
	bus.Attach(b)
	var rxBytes int
	b.SetRecv(func(fr *Frame) { rxBytes += len(fr.Data) })
	var refill func()
	deadline := 10 * time.Millisecond
	refill = func() {
		if s.Now() >= deadline {
			return
		}
		for a.QueueLen() < 8 {
			a.Send(testFrame(mac(1), mac(2), 1400))
		}
		s.After(100*time.Microsecond, "refill", refill)
	}
	s.After(0, "start", refill)
	if err := s.RunUntil(deadline); err != nil {
		t.Fatalf("run: %v", err)
	}
	goodput := float64(rxBytes*8) / deadline.Seconds()
	if goodput < 90e6 {
		t.Errorf("goodput %.1f Mbps, want > 90 Mbps", goodput/1e6)
	}
	if goodput > 100e6 {
		t.Errorf("goodput %.1f Mbps exceeds line rate", goodput/1e6)
	}
}

func TestLinkBitErrors(t *testing.T) {
	s := sim.NewScheduler(11)
	l := NewLink(s, LinkConfig{BitErrorRate: 1}) // corrupt everything
	a, b := NewNIC(s, mac(1), 16), NewNIC(s, mac(2), 0)
	b.DeliverCorrupt = true
	l.Attach(a)
	l.Attach(b)
	var sawCorrupt bool
	b.SetRecv(func(fr *Frame) { sawCorrupt = sawCorrupt || fr.Corrupt })
	a.Send(testFrame(mac(1), mac(2), 200))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !sawCorrupt {
		t.Error("link at BER=1 delivered a clean frame")
	}
}

// A third attachment would silently eat the NIC's traffic (it could
// neither transmit nor be delivered to): it is a wiring bug and panics.
func TestLinkThirdAttachPanics(t *testing.T) {
	s := sim.NewScheduler(11)
	l := NewLink(s, LinkConfig{})
	l.Attach(NewNIC(s, mac(1), 0))
	l.Attach(NewNIC(s, mac(2), 0))
	defer func() {
		if recover() == nil {
			t.Error("link accepted a third endpoint")
		}
	}()
	l.Attach(NewNIC(s, mac(3), 0))
}

func TestNICFrameIDAssignment(t *testing.T) {
	s := sim.NewScheduler(12)
	bus := NewSharedBus(s, BusConfig{})
	a, b := NewNIC(s, mac(1), 16), NewNIC(s, mac(2), 0)
	bus.Attach(a)
	bus.Attach(b)
	f1, f2 := testFrame(mac(1), mac(2), 10), testFrame(mac(1), mac(2), 10)
	a.Send(f1)
	a.Send(f2)
	if f1.ID == 0 || f2.ID == 0 || f1.ID == f2.ID {
		t.Errorf("frame IDs %d, %d", f1.ID, f2.ID)
	}
	pre := &Frame{Data: f1.Data, ID: 777}
	a.Send(pre)
	if pre.ID != 777 {
		t.Error("pre-assigned frame ID overwritten")
	}
}

func TestSwitchTrunkLearningAcrossFabric(t *testing.T) {
	// Two switches joined by a trunk: unicast reaches a host behind the
	// remote switch, and after learning, traffic stops flooding.
	s := sim.NewScheduler(1)
	swA := NewSwitch(s, SwitchConfig{ID: 0})
	swB := NewSwitch(s, SwitchConfig{ID: 1})
	tr := newTrunkRig(s)
	tr.connect(swA, swB, LinkConfig{})
	a, b := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0)
	bystander := NewNIC(s, mac(3), 0)
	bystander.Promiscuous = true
	swA.AttachHost(a)
	swB.AttachHost(b)
	swB.AttachHost(bystander)
	gotA, gotB, gotBy := 0, 0, 0
	a.SetRecv(func(*Frame) { gotA++ })
	b.SetRecv(func(*Frame) { gotB++ })
	bystander.SetRecv(func(*Frame) { gotBy++ })

	a.Send(testFrame(mac(1), mac(2), 200)) // unknown: floods across the trunk
	if err := tr.run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotB != 1 || gotBy != 1 {
		t.Fatalf("flood across trunk: b=%d bystander=%d", gotB, gotBy)
	}
	b.Send(testFrame(mac(2), mac(1), 200)) // teaches both switches mac(2)
	if err := tr.run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotA != 1 {
		t.Fatalf("reply not delivered: a=%d", gotA)
	}
	a.Send(testFrame(mac(1), mac(2), 200)) // unicast end to end now
	if err := tr.run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotB != 2 {
		t.Fatalf("unicast across trunk: b=%d", gotB)
	}
	if gotBy != 1 {
		t.Errorf("bystander saw post-learning unicast: %d", gotBy)
	}
}

func TestSwitchBlockedTrunkBreaksLoop(t *testing.T) {
	// Three switches wired in a ring. With one trunk blocked on both
	// ends, a broadcast visits every host exactly once instead of
	// storming forever.
	s := sim.NewScheduler(1)
	sws := make([]*Switch, 3)
	for i := range sws {
		sws[i] = NewSwitch(s, SwitchConfig{ID: i})
	}
	tr := newTrunkRig(s)
	tr.connect(sws[0], sws[1], LinkConfig{})
	tr.connect(sws[1], sws[2], LinkConfig{})
	p2, p0 := tr.connect(sws[2], sws[0], LinkConfig{})
	sws[2].SetPortBlocked(p2, true)
	sws[0].SetPortBlocked(p0, true)

	got := make([]int, 3)
	for i := range sws {
		n := NewNIC(s, mac(byte(10+i)), 0)
		sws[i].AttachHost(n)
		i := i
		n.Promiscuous = true
		n.SetRecv(func(*Frame) { got[i]++ })
		if i == 0 {
			n.Send(testFrame(mac(10), packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 100))
		}
	}
	if err := tr.run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("broadcast deliveries: %v, want exactly one each", got)
	}
}
