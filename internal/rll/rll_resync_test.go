package rll

import (
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// gate is a stack layer that can be closed to blackhole a host in both
// directions, simulating a peer that is alive but unreachable for a
// while (partition / overload).
type gate struct {
	base   stack.Base
	closed bool
}

func (g *gate) SetBelow(d stack.Down) { g.base.SetBelow(d) }
func (g *gate) SetAbove(u stack.Up)   { g.base.SetAbove(u) }
func (g *gate) SendDown(fr *ether.Frame) {
	if !g.closed {
		g.base.PassDown(fr)
	}
}
func (g *gate) DeliverUp(fr *ether.Frame) {
	if !g.closed {
		g.base.PassUp(fr)
	}
}

// TestRLLResyncAfterGiveUp is the stream-desync regression: after the
// sender exhausts MaxRetries and drops window heads (base advances), a
// receiver that comes back must not discard every later frame as a gap
// forever — the reset marker lets it jump forward and delivery resumes.
func TestRLLResyncAfterGiveUp(t *testing.T) {
	s := sim.NewScheduler(11)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	nicA := ether.NewNIC(s, macA, 512)
	nicB := ether.NewNIC(s, macB, 512)
	nicA.DeliverCorrupt = true
	nicB.DeliverCorrupt = true
	bus.Attach(nicA)
	bus.Attach(nicB)
	cfg := Config{RTO: 500 * time.Microsecond, MaxRetries: 2}
	ra := New(s, macA, cfg)
	rb := New(s, macB, cfg)
	sa, sb := &sink{}, &sink{}
	g := &gate{}
	downA := stack.Chain(nicA, sa, ra)
	_ = stack.Chain(nicB, sb, g, rb)

	// Frame 0 crosses normally.
	downA.SendDown(frameTo(macA, macB, 0, 64))
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != 1 {
		t.Fatalf("warmup: delivered %d frames, want 1", len(sb.frames))
	}

	// The peer goes deaf; the sender gives up on several frames.
	g.closed = true
	for i := 1; i <= 3; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 64))
	}
	if err := s.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ra.Stats.GaveUp != 3 {
		t.Fatalf("GaveUp = %d, want 3", ra.Stats.GaveUp)
	}

	// The peer revives. A fresh frame must still be deliverable.
	g.closed = false
	downA.SendDown(frameTo(macA, macB, 9, 64))
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != 2 {
		t.Fatalf("delivered %d frames after revival, want 2 (stream desynchronized?)", len(sb.frames))
	}
	if tag := sb.frames[1].Data[packet.EthHeaderLen]; tag != 9 {
		t.Errorf("revived delivery tag = %d, want 9", tag)
	}
	if rb.Stats.Resyncs == 0 {
		t.Error("receiver accepted no resync")
	}
	if ra.Stats.ResetsSent == 0 {
		t.Error("sender sent no reset markers")
	}
	// The sender's window must be clean again: no retransmission storm
	// left behind.
	ps := ra.sendState(macB)
	if len(ps.inflight) != 0 || ps.resync {
		t.Errorf("sender not resynchronized: inflight=%d resync=%v", len(ps.inflight), ps.resync)
	}
}

// TestRLLSeqWraparound drives a stream across the uint32 sequence
// boundary and asserts in-order delivery with no spurious retransmits or
// give-ups (RFC 1982 serial comparison regression).
func TestRLLSeqWraparound(t *testing.T) {
	s, ra, rb, _, sb, downA, _ := pairOverBus(21, 0, Config{})
	var start uint32 = ^uint32(0) - 2
	ps := ra.sendState(macB)
	ps.nextSeq = start
	ps.base = start
	pr := rb.recvState(macA)
	pr.expected = start

	const n = 8
	for i := 0; i < n; i++ {
		downA.SendDown(frameTo(macA, macB, byte(i), 64))
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != n {
		t.Fatalf("delivered %d frames, want %d", len(sb.frames), n)
	}
	for i, fr := range sb.frames {
		if tag := fr.Data[packet.EthHeaderLen]; tag != byte(i) {
			t.Fatalf("frame %d out of order across wrap (tag %d)", i, tag)
		}
	}
	if ra.Stats.DataRetrans != 0 || ra.Stats.GaveUp != 0 {
		t.Errorf("window stalled at wrap: retrans=%d gaveUp=%d",
			ra.Stats.DataRetrans, ra.Stats.GaveUp)
	}
	if want := start + n; ps.base != want { // wraps to a small value
		t.Errorf("base = %#x, want %#x", ps.base, want)
	}
	if pr.expected != start+n {
		t.Errorf("expected = %#x, want %#x", pr.expected, start+n)
	}
}

// TestRLLHandleAckAtWrapBoundary exercises the cumulative-ack arithmetic
// directly across the wrap.
func TestRLLHandleAckAtWrapBoundary(t *testing.T) {
	r := New(sim.NewScheduler(1), macA, Config{})
	ps := r.sendState(macB)
	ps.base = ^uint32(0) // two frames in flight: seq 0xFFFFFFFF and 0
	ps.nextSeq = 1
	ps.inflight = []*ether.Frame{
		{Data: make([]byte, 64)},
		{Data: make([]byte, 64)},
	}
	r.handleAck(macB, 1) // cumulative ack past the wrap
	if ps.base != 1 || len(ps.inflight) != 0 {
		t.Errorf("after wrap ack: base=%#x inflight=%d, want base=1 inflight=0",
			ps.base, len(ps.inflight))
	}
	// A stale pre-wrap ack must not rewind the window.
	r.handleAck(macB, ^uint32(0))
	if ps.base != 1 {
		t.Errorf("stale ack moved base to %#x", ps.base)
	}
}

// downSink captures frames an RLL pushes toward the wire.
type downSink struct {
	frames []*ether.Frame
}

func (d *downSink) SendDown(fr *ether.Frame) { d.frames = append(d.frames, fr) }

// TestRLLDupVsGapAtWrapBoundary: a pre-wrap duplicate arriving after the
// receiver's expectation wrapped must be classified as a duplicate, not a
// gap.
func TestRLLDupVsGapAtWrapBoundary(t *testing.T) {
	s := sim.NewScheduler(2)
	ra := New(s, macA, Config{})
	rb := New(s, macB, Config{})
	up := &sink{}
	down := &downSink{}
	rb.SetAbove(up)
	rb.SetBelow(down)
	pr := rb.recvState(macA)
	pr.expected = 2 // post-wrap

	old := ra.encap(frameTo(macA, macB, 5, 32), typeData, ^uint32(0), 0)
	rb.DeliverUp(old)
	if rb.Stats.Duplicates != 1 || rb.Stats.OutOfOrder != 0 {
		t.Errorf("pre-wrap retransmit: dup=%d gap=%d, want dup=1 gap=0",
			rb.Stats.Duplicates, rb.Stats.OutOfOrder)
	}
	if len(up.frames) != 0 {
		t.Error("duplicate was delivered")
	}
	// And a genuinely future frame is still a gap.
	fut := ra.encap(frameTo(macA, macB, 6, 32), typeData, 7, 0)
	rb.DeliverUp(fut)
	if rb.Stats.OutOfOrder != 1 {
		t.Errorf("future frame not classified as gap (gap=%d)", rb.Stats.OutOfOrder)
	}
}

// TestRLLDeliverInnerUsesPool pins the FramePool ownership protocol on
// the upcall path: the reconstructed inner frame is drawn from the pool
// and the spent outer encapsulation is recycled into it.
func TestRLLDeliverInnerUsesPool(t *testing.T) {
	s := sim.NewScheduler(3)
	ra := New(s, macA, Config{})
	rb := New(s, macB, Config{})
	pool := ether.NewFramePool()
	ra.SetPool(pool) // the pool only keeps buffers it cut itself
	rb.SetPool(pool)
	up := &sink{}
	down := &downSink{}
	rb.SetAbove(up)
	rb.SetBelow(down)

	outer := ra.encap(frameTo(macA, macB, 7, 40), typeData, 0, 0)
	rb.DeliverUp(outer)
	if len(up.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(up.frames))
	}
	fr := up.frames[0]
	if fr.EtherType() != 0x0800 || fr.Data[packet.EthHeaderLen] != 7 {
		t.Errorf("inner frame corrupted: type=%#x tag=%d", fr.EtherType(), fr.Data[packet.EthHeaderLen])
	}
	// Gets: upcall frame + outgoing ack. Puts: the spent outer frame.
	if pool.Gets < 2 {
		t.Errorf("pool.Gets = %d, want >= 2 (upcall + ack)", pool.Gets)
	}
	if pool.Puts < 1 {
		t.Errorf("pool.Puts = %d, want >= 1 (outer recycled)", pool.Puts)
	}
	// The recycled outer buffer is reused by a later Get.
	before := pool.Hits
	outer2 := ra.encap(frameTo(macA, macB, 8, 40), typeData, 1, 0)
	rb.DeliverUp(outer2)
	if pool.Hits <= before {
		t.Errorf("pool.Hits did not grow (%d): upcall not recycled through pool", pool.Hits)
	}
	if len(up.frames) != 2 {
		t.Fatalf("second delivery missing")
	}
}
