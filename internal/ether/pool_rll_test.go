package ether_test

// External-package test: the in-package pool tests cannot import the rll
// package (rll imports ether), so the pool/RLL interaction lives here.

import (
	"testing"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

type upcallSink struct {
	frames []*ether.Frame
}

func (s *upcallSink) DeliverUp(fr *ether.Frame) { s.frames = append(s.frames, fr) }

// TestFramePoolRLLUpcall runs the full NIC ← RLL ← sink stack over a
// pooled bus and checks that the RLL's decapsulation upcall participates
// in the recycling protocol: spent outer encapsulations and ack frames
// flow back into the shared pool while the frames handed to the sink —
// which keeps them, as the top of a chain may — stay intact.
func TestFramePoolRLLUpcall(t *testing.T) {
	s := sim.NewScheduler(31)
	pool := ether.NewFramePool()
	bus := ether.NewSharedBus(s, ether.BusConfig{Pool: pool})
	macA := packet.MAC{0, 0, 0, 0, 0, 0xa}
	macB := packet.MAC{0, 0, 0, 0, 0, 0xb}
	nicA := ether.NewNIC(s, macA, 64)
	nicB := ether.NewNIC(s, macB, 64)
	nicA.DeliverCorrupt = true
	nicB.DeliverCorrupt = true
	bus.Attach(nicA)
	bus.Attach(nicB)
	ra := rll.New(s, macA, rll.Config{})
	rb := rll.New(s, macB, rll.Config{})
	ra.SetPool(pool)
	rb.SetPool(pool)
	sa, sb := &upcallSink{}, &upcallSink{}
	downA := stack.Chain(nicA, sa, ra)
	_ = stack.Chain(nicB, sb, rb)

	const frames = 10
	for i := 0; i < frames; i++ {
		d := make([]byte, packet.EthHeaderLen+50)
		packet.PutEth(d, packet.Eth{Dst: macB, Src: macA, Type: 0x0800})
		for j := packet.EthHeaderLen; j < len(d); j++ {
			d[j] = byte(i)
		}
		downA.SendDown(&ether.Frame{Data: d})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sb.frames) != frames {
		t.Fatalf("delivered %d frames, want %d", len(sb.frames), frames)
	}
	for i, fr := range sb.frames {
		if fr.EtherType() != 0x0800 {
			t.Fatalf("frame %d: inner ethertype not restored (%#x)", i, fr.EtherType())
		}
		for j := packet.EthHeaderLen; j < len(fr.Data); j++ {
			if fr.Data[j] != byte(i) {
				t.Fatalf("frame %d payload corrupted at byte %d after recycling", i, j)
			}
		}
	}
	// The RLL consumed every outer data frame and every ack it received;
	// all of those must have been recycled rather than leaked.
	if pool.Puts == 0 {
		t.Error("RLL recycled no frames")
	}
	if pool.Hits == 0 {
		t.Error("pool served no recycled buffers through the RLL path")
	}
}
