package stack

import (
	"testing"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

func newPair(t *testing.T, seed int64) (*sim.Scheduler, *Host, *Host) {
	t.Helper()
	s := sim.NewScheduler(seed)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	h1 := NewHost(s, "node1", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{192, 168, 1, 1})
	h2 := NewHost(s, "node2", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{192, 168, 1, 2})
	for _, h := range []*Host{h1, h2} {
		h.Neighbors[h1.IP] = h1.MAC
		h.Neighbors[h2.IP] = h2.MAC
	}
	bus.Attach(h1.NIC)
	bus.Attach(h2.NIC)
	h1.Build()
	h2.Build()
	return s, h1, h2
}

func TestUDPSendReceive(t *testing.T) {
	s, h1, h2 := newPair(t, 1)
	srv, err := h2.UDP.Bind(9000)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	var got []byte
	var gotSrc packet.IP
	var gotPort uint16
	srv.OnDatagram = func(src packet.IP, srcPort uint16, payload []byte) {
		gotSrc, gotPort = src, srcPort
		got = append([]byte(nil), payload...)
	}
	cli, err := h1.UDP.Bind(5000)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := cli.SendTo(h2.IP, 9000, []byte("hello rether")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if string(got) != "hello rether" {
		t.Errorf("payload = %q", got)
	}
	if gotSrc != h1.IP || gotPort != 5000 {
		t.Errorf("src = %v:%d", gotSrc, gotPort)
	}
}

func TestUDPEchoRoundTrip(t *testing.T) {
	s, h1, h2 := newPair(t, 2)
	srv, _ := h2.UDP.Bind(7)
	srv.OnDatagram = func(src packet.IP, srcPort uint16, payload []byte) {
		if err := srv.SendTo(src, srcPort, payload); err != nil {
			t.Errorf("echo send: %v", err)
		}
	}
	cli, _ := h1.UDP.Bind(1234)
	var rtt int
	cli.OnDatagram = func(src packet.IP, srcPort uint16, payload []byte) { rtt++ }
	for i := 0; i < 5; i++ {
		if err := cli.SendTo(h2.IP, 7, make([]byte, 64)); err != nil {
			t.Fatalf("send: %v", err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	if rtt != 5 {
		t.Errorf("echoed %d datagrams, want 5", rtt)
	}
}

func TestUDPBindConflict(t *testing.T) {
	_, h1, _ := newPair(t, 3)
	if _, err := h1.UDP.Bind(80); err != nil {
		t.Fatalf("first bind: %v", err)
	}
	if _, err := h1.UDP.Bind(80); err == nil {
		t.Error("second bind on same port succeeded")
	}
	// Close then rebind.
	s2, _ := h1.UDP.Bind(81)
	s2.Close()
	if _, err := h1.UDP.Bind(81); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}

func TestIPStackIgnoresForeignDst(t *testing.T) {
	s, h1, h2 := newPair(t, 4)
	srv, _ := h2.UDP.Bind(9000)
	got := 0
	srv.OnDatagram = func(packet.IP, uint16, []byte) { got++ }
	// Craft a datagram whose MAC addresses h2 but whose IP is foreign.
	fr := packet.BuildUDPFrame(h1.MAC, h2.MAC, h1.IP, packet.IP{10, 0, 0, 99},
		packet.UDP{SrcPort: 1, DstPort: 9000}, []byte("x"))
	h1.SendFrame(&ether.Frame{Data: fr})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 0 {
		t.Error("datagram for a foreign IP was delivered")
	}
}

func TestIPStackHeaderErrorCounted(t *testing.T) {
	s, h1, h2 := newPair(t, 5)
	fr := packet.BuildUDPFrame(h1.MAC, h2.MAC, h1.IP, h2.IP,
		packet.UDP{SrcPort: 1, DstPort: 2}, []byte("y"))
	fr[packet.OffIPHeader+8] ^= 0xff // corrupt TTL -> checksum fails
	h1.SendFrame(&ether.Frame{Data: fr})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h2.IPv4.RxHeaderErrors != 1 {
		t.Errorf("RxHeaderErrors = %d, want 1", h2.IPv4.RxHeaderErrors)
	}
}

// countingLayer counts frames both ways; used to verify chain wiring.
type countingLayer struct {
	base     Base
	down, up int
}

func (c *countingLayer) SendDown(fr *ether.Frame)  { c.down++; c.base.PassDown(fr) }
func (c *countingLayer) DeliverUp(fr *ether.Frame) { c.up++; c.base.PassUp(fr) }
func (c *countingLayer) SetBelow(d Down)           { c.base.SetBelow(d) }
func (c *countingLayer) SetAbove(u Up)             { c.base.SetAbove(u) }

func TestChainTraversesAllLayers(t *testing.T) {
	s := sim.NewScheduler(6)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	h1 := NewHost(s, "a", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1})
	h2 := NewHost(s, "b", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2})
	for _, h := range []*Host{h1, h2} {
		h.Neighbors[h1.IP] = h1.MAC
		h.Neighbors[h2.IP] = h2.MAC
	}
	bus.Attach(h1.NIC)
	bus.Attach(h2.NIC)
	l1a, l1b := &countingLayer{}, &countingLayer{}
	l2a, l2b := &countingLayer{}, &countingLayer{}
	h1.Build(l1a, l1b) // NIC <- l1a <- l1b <- IP
	h2.Build(l2a, l2b)

	srv, _ := h2.UDP.Bind(9)
	echoed := 0
	srv.OnDatagram = func(src packet.IP, sp uint16, p []byte) { echoed++ }
	cli, _ := h1.UDP.Bind(10)
	if err := cli.SendTo(h2.IP, 9, []byte("z")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if echoed != 1 {
		t.Fatal("datagram not delivered through 2-layer chains")
	}
	if l1a.down != 1 || l1b.down != 1 {
		t.Errorf("outbound traversal: l1a=%d l1b=%d, want 1/1", l1a.down, l1b.down)
	}
	if l2a.up != 1 || l2b.up != 1 {
		t.Errorf("inbound traversal: l2a=%d l2b=%d, want 1/1", l2a.up, l2b.up)
	}
	if l1a.up != 0 || l2a.down != 0 {
		t.Errorf("unexpected reverse traffic: l1a.up=%d l2a.down=%d", l1a.up, l2a.down)
	}
}

func TestLookupMACUnknown(t *testing.T) {
	_, h1, _ := newPair(t, 7)
	if _, err := h1.LookupMAC(packet.IP{1, 2, 3, 4}); err == nil {
		t.Error("unknown IP resolved")
	}
}

func TestRegisterRaw(t *testing.T) {
	s, h1, h2 := newPair(t, 8)
	got := 0
	h2.IPv4.RegisterRaw(packet.EtherTypeRether, func(fr *ether.Frame) { got++ })
	fr := make([]byte, packet.RetherFrameLen(0))
	packet.PutRetherFrame(fr, h1.MAC, h2.MAC, packet.Rether{Type: packet.RetherToken}, nil)
	h1.SendFrame(&ether.Frame{Data: fr})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 1 {
		t.Errorf("raw handler called %d times, want 1", got)
	}
}
