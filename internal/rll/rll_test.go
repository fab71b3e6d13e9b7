package rll

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// sink collects frames delivered above an RLL.
type sink struct {
	frames []*ether.Frame
}

func (s *sink) DeliverUp(fr *ether.Frame) { s.frames = append(s.frames, fr) }

// pairOverBus builds two hosts whose stacks are NIC <- RLL <- sink, on a
// shared bus with the given bit error rate.
func pairOverBus(seed int64, ber float64, cfg Config) (*sim.Scheduler, *RLL, *RLL, *sink, *sink, stack.Down, stack.Down) {
	s := sim.NewScheduler(seed)
	bus := ether.NewSharedBus(s, ether.BusConfig{BitErrorRate: ber})
	macA := packet.MAC{0, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{0, 0, 0, 0, 0, 0xb}
	nicA := ether.NewNIC(s, macA, 512)
	nicB := ether.NewNIC(s, macB, 512)
	nicA.DeliverCorrupt = true // RLL validates the CRC itself
	nicB.DeliverCorrupt = true
	bus.Attach(nicA)
	bus.Attach(nicB)
	ra := New(s, macA, cfg)
	rb := New(s, macB, cfg)
	sa, sb := &sink{}, &sink{}
	downA := stack.Chain(nicA, sa, ra)
	downB := stack.Chain(nicB, sb, rb)
	return s, ra, rb, sa, sb, downA, downB
}

// frameTo builds an inner frame from a to b whose payload starts with tag.
func frameTo(a, b packet.MAC, tag byte, n int) *ether.Frame {
	d := make([]byte, packet.EthHeaderLen+n)
	packet.PutEth(d, packet.Eth{Dst: b, Src: a, Type: 0x0800})
	if n > 0 {
		d[packet.EthHeaderLen] = tag
	}
	return &ether.Frame{Data: d}
}

var (
	macA = packet.MAC{0, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{0, 0, 0, 0, 0, 0xb}
)

func TestRLLDeliversInOrderOnCleanWire(t *testing.T) {
	s, _, _, _, sb, downA, _ := pairOverBus(1, 0, Config{})
	const n = 50
	for i := 0; i < n; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 100))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(sb.frames), n)
	}
	for i, fr := range sb.frames {
		if fr.Data[packet.EthHeaderLen] != byte(i) {
			t.Fatalf("frame %d out of order (tag %d)", i, fr.Data[packet.EthHeaderLen])
		}
		if fr.EtherType() != 0x0800 {
			t.Fatalf("inner ethertype not restored: %#x", fr.EtherType())
		}
	}
}

func TestRLLInnerFrameBitExact(t *testing.T) {
	s, _, _, _, sb, downA, _ := pairOverBus(2, 0, Config{})
	orig := frameTo(macA, macB, 0x5a, 333)
	for i := range orig.Data[packet.EthHeaderLen:] {
		orig.Data[packet.EthHeaderLen+i] = byte(i * 7)
	}
	want := append([]byte(nil), orig.Data...)
	downA.SendDown(orig)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != 1 {
		t.Fatalf("delivered %d", len(sb.frames))
	}
	got := sb.frames[0].Data
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestRLLMasksBitErrors(t *testing.T) {
	// The paper's motivation for the RLL: at a loss-inducing BER, every
	// frame must still be delivered, exactly once, in order.
	s, ra, _, _, sb, downA, _ := pairOverBus(3, 2e-5, Config{})
	const n = 200
	i := 0
	var feed func()
	feed = func() {
		if i >= n {
			return
		}
		i++
		downA.SendDown(frameTo(macA, macB, byte(i%251), 600))
		s.After(150*time.Microsecond, "feed", feed)
	}
	s.After(0, "feed", feed)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := len(sb.frames); got != n {
		t.Fatalf("delivered %d frames, want %d (RLL must mask all losses)", got, n)
	}
	for k, fr := range sb.frames {
		if fr.Data[packet.EthHeaderLen] != byte((k+1)%251) {
			t.Fatalf("frame %d out of order", k)
		}
	}
	if ra.Stats.DataRetrans == 0 {
		t.Error("no retransmissions at BER 2e-5; loss model inert")
	}
}

func TestRLLAcksFlowBothDirections(t *testing.T) {
	s, ra, rb, sa, sb, downA, downB := pairOverBus(4, 0, Config{})
	for i := 0; i < 10; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 64))
		downB.SendDown(frameTo(macB, macA, byte(i), 64))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sa.frames) != 10 || len(sb.frames) != 10 {
		t.Fatalf("deliveries a=%d b=%d", len(sa.frames), len(sb.frames))
	}
	// The paper: "This generates ACKs at the RLL level in both
	// directions, increasing the chances of collisions".
	if ra.Stats.AcksSent == 0 || rb.Stats.AcksSent == 0 {
		t.Errorf("acks a=%d b=%d, want >0 both", ra.Stats.AcksSent, rb.Stats.AcksSent)
	}
}

func TestRLLWindowBackpressure(t *testing.T) {
	cfg := Config{Window: 4}
	s, ra, _, _, sb, downA, _ := pairOverBus(5, 0, cfg)
	for i := 0; i < 32; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 1000))
	}
	if ra.Stats.BlockedQueued == 0 {
		t.Error("32 sends into a 4-frame window never queued")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != 32 {
		t.Fatalf("delivered %d, want 32", len(sb.frames))
	}
}

func TestRLLBroadcastUnreliable(t *testing.T) {
	s, ra, _, _, sb, downA, _ := pairOverBus(6, 0, Config{})
	downA.SendDown(frameTo(macA, packet.Broadcast, 1, 64))
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ra.Stats.Unreliable != 1 {
		t.Errorf("Unreliable = %d", ra.Stats.Unreliable)
	}
	if len(sb.frames) != 1 {
		t.Errorf("broadcast not delivered")
	}
	if ra.Stats.DataSent != 0 {
		t.Errorf("broadcast entered the reliable window")
	}
}

func TestRLLGivesUpOnDeadPeer(t *testing.T) {
	// Build a lone host whose wire eats everything: retries must be
	// bounded and the sender must not wedge.
	s := sim.NewScheduler(7)
	nicA := ether.NewNIC(s, macA, 64)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	bus.Attach(nicA) // no receiver attached
	ra := New(s, macA, Config{Window: 2, RTO: 500 * time.Microsecond, MaxRetries: 3})
	sa := &sink{}
	downA := stack.Chain(nicA, sa, ra)
	for i := 0; i < 4; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 64))
	}
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ra.Stats.GaveUp != 4 {
		t.Errorf("GaveUp = %d, want 4", ra.Stats.GaveUp)
	}
	if s.Pending() > 0 {
		// Any still-armed timers would keep a dead peer's state alive
		// forever.
		if err := s.Run(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

func TestRLLDuplicateSuppression(t *testing.T) {
	// Deliver a duplicate data frame directly into an RLL and verify a
	// re-ack plus exactly one delivery.
	s := sim.NewScheduler(9)
	nicB := ether.NewNIC(s, macB, 64)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	nicA := ether.NewNIC(s, macA, 64)
	bus.Attach(nicA)
	bus.Attach(nicB)
	rb := New(s, macB, Config{})
	sb := &sink{}
	stack.Chain(nicB, sb, rb)
	ra := New(s, macA, Config{})
	sa := &sink{}
	downA := stack.Chain(nicA, sa, ra)

	fr := frameTo(macA, macB, 1, 64)
	downA.SendDown(fr)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Force a retransmission by replaying the encapsulated frame: build
	// it again with the same seq through a fresh RLL instance that has
	// identical state.
	raReplay := New(s, macA, Config{})
	enc := raReplay.encap(frameTo(macA, macB, 1, 64), typeData, 0, 0)
	nicA.Send(enc)
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != 1 {
		t.Fatalf("duplicate delivered: %d frames", len(sb.frames))
	}
	if rb.Stats.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", rb.Stats.Duplicates)
	}
}

// Property: for any loss pattern induced by BER and any frame sizes, the
// receiver sees exactly the sent sequence, in order, no duplicates.
func TestRLLReliabilityProperty(t *testing.T) {
	prop := func(seed int64, sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 40 {
			return true
		}
		s, _, _, _, sb, downA, _ := pairOverBus(seed, 1e-5, Config{Window: 4, RTO: 400 * time.Microsecond})
		for i, sz := range sizesRaw {
			downA.SendDown(frameTo(macA, macB, byte(i), 40+int(sz)))
		}
		if err := s.RunUntil(5 * time.Second); err != nil {
			return false
		}
		if len(sb.frames) != len(sizesRaw) {
			return false
		}
		for i, fr := range sb.frames {
			if fr.Data[packet.EthHeaderLen] != byte(i) {
				return false
			}
			if len(fr.Data) != packet.EthHeaderLen+40+int(sizesRaw[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
