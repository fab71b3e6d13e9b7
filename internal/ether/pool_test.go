package ether

import (
	"bytes"
	"testing"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

func TestFramePoolReuse(t *testing.T) {
	p := NewFramePool()
	fr := p.Get(64)
	if len(fr.Data) != 64 {
		t.Fatalf("Get(64) Data len = %d", len(fr.Data))
	}
	fr.Corrupt = true
	fr.ID = 99
	p.Put(fr)
	got := p.Get(32)
	if got != fr {
		t.Error("Get did not reuse the returned frame")
	}
	if got.Corrupt || got.ID != 0 {
		t.Errorf("recycled frame not reset: Corrupt=%v ID=%d", got.Corrupt, got.ID)
	}
	if len(got.Data) != 32 {
		t.Errorf("recycled Data len = %d, want 32", len(got.Data))
	}
	if p.Hits != 1 {
		t.Errorf("Hits = %d, want 1", p.Hits)
	}
}

// TestFramePoolAnyFrameServesAnyGet: every pooled buffer has full-frame
// capacity, so the buffer of a recycled acknowledgement serves a
// full-size data frame — a pool of exact-size buffers would miss here.
func TestFramePoolAnyFrameServesAnyGet(t *testing.T) {
	p := NewFramePool()
	small := p.Get(54)
	p.Put(small)
	big := p.Get(1514)
	if len(big.Data) != 1514 {
		t.Fatalf("Get(1514) Data len = %d", len(big.Data))
	}
	if big != small || p.Hits != 1 {
		t.Errorf("recycled 54-byte frame did not serve Get(1514): hits=%d", p.Hits)
	}
}

func TestFramePoolClone(t *testing.T) {
	p := NewFramePool()
	orig := p.Get(100)
	for i := range orig.Data {
		orig.Data[i] = byte(i)
	}
	orig.Corrupt = true
	orig.ID = 7
	cp := p.Clone(orig)
	if cp == orig {
		t.Fatal("Clone returned the original")
	}
	if !bytes.Equal(cp.Data, orig.Data) {
		t.Error("Clone data differs")
	}
	if !cp.Corrupt || cp.ID != 7 {
		t.Errorf("Clone lost metadata: Corrupt=%v ID=%d", cp.Corrupt, cp.ID)
	}
	// Mutating the clone must not touch the original.
	cp.Data[0] ^= 0xFF
	if orig.Data[0] == cp.Data[0] {
		t.Error("Clone shares its buffer with the original")
	}
}

// TestFramePoolSkipsOversizedBuffers: only buffers of the pool's own
// capacity are kept. A frame larger than anything the media carry is
// allocated outside the pool and dropped on return, as is a hand-built
// frame of any other size.
func TestFramePoolSkipsOversizedBuffers(t *testing.T) {
	p := NewFramePool()
	huge := p.Get(frameCap + 1)
	if len(huge.Data) != frameCap+1 {
		t.Fatalf("Get(%d) Data len = %d", frameCap+1, len(huge.Data))
	}
	p.Put(huge)
	p.Put(&Frame{Data: make([]byte, 64)})
	if len(p.free) != 0 {
		t.Error("foreign-sized buffer was pooled")
	}
	if p.Puts != 2 {
		t.Errorf("Puts = %d, want 2: returns are counted whether kept or not", p.Puts)
	}
}

// TestFramePoolPoison: the lifetime oracle's hook overwrites a returned
// frame's whole buffer, so a reader that held on to it sees the poison.
func TestFramePoolPoison(t *testing.T) {
	PoisonNewPools(true)
	p := NewFramePool()
	PoisonNewPools(false)
	fr := p.Get(64)
	held := fr.Data
	for i := range held {
		held[i] = byte(i)
	}
	p.Put(fr)
	for i, b := range held {
		if b != poisonByte {
			t.Fatalf("byte %d = %#x after Put, want poison %#x", i, b, poisonByte)
		}
	}
	if q := NewFramePool(); q.poison {
		t.Error("pool created after the switch went off is poisoned")
	}
}

func TestFramePoolNilSafe(t *testing.T) {
	var p *FramePool
	fr := p.Get(10)
	if fr == nil || len(fr.Data) != 10 {
		t.Fatal("nil pool Get failed")
	}
	cp := p.Clone(fr)
	if cp == nil || len(cp.Data) != 10 {
		t.Fatal("nil pool Clone failed")
	}
	p.Put(fr) // must not panic
}

// TestFramePoolBusDeliveryIntegrity: a segment hands the transmitted
// frame itself to its last listener and pooled copies to the others. On
// a two-station segment (one switch port) that is a plain hand-over — no
// copy, no pool traffic; with three stations the first listener's copy
// comes from, and on recycling returns to, the pool. Either way every
// listener sees every payload intact while buffers are recycled under it.
func TestFramePoolBusDeliveryIntegrity(t *testing.T) {
	for _, stations := range []int{2, 3} {
		s := sim.NewScheduler(1)
		pool := NewFramePool()
		bus := NewSharedBus(s, BusConfig{Pool: pool})
		nics := make([]*NIC, stations)
		for i := range nics {
			nics[i] = NewNIC(s, packet.MAC{0, 0, 0, 0, 0, byte(i + 1)}, 16)
			nics[i].Promiscuous = true
			bus.Attach(nics[i])
		}
		const frames = 20
		sent := make([]*Frame, frames)
		handedOver := 0
		seen := make([]int, stations)
		for i := 1; i < stations; i++ {
			i := i
			nics[i].SetRecv(func(fr *Frame) {
				n := seen[i]
				seen[i]++
				for j := 14; j < 64; j++ {
					if fr.Data[j] != byte(n) {
						t.Fatalf("%d stations: listener %d, frame %d corrupted at byte %d: got %d",
							stations, i, n, j, fr.Data[j])
					}
				}
				if fr == sent[n] {
					handedOver++
					if i != stations-1 {
						t.Errorf("%d stations: listener %d got the original, want the last listener", stations, i)
					}
				}
				pool.Put(fr) // the receiver ends the frame's life
			})
		}
		for i := 0; i < frames; i++ {
			fr := pool.Get(64)
			copy(fr.Data[0:6], nics[1].MAC[:])
			copy(fr.Data[6:12], nics[0].MAC[:])
			for j := 14; j < 64; j++ {
				fr.Data[j] = byte(i)
			}
			sent[i] = fr
			s.After(time.Duration(i)*time.Millisecond, "send", func() { nics[0].Send(fr) })
		}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		for i := 1; i < stations; i++ {
			if seen[i] != frames {
				t.Fatalf("%d stations: listener %d saw %d frames, want %d", stations, i, seen[i], frames)
			}
		}
		if handedOver != frames {
			t.Errorf("%d stations: %d of %d originals handed over", stations, handedOver, frames)
		}
		// The senders' Gets, plus one copy per frame per extra listener.
		if want := uint64(frames * (stations - 1)); pool.Gets != want {
			t.Errorf("%d stations: pool.Gets = %d, want %d", stations, pool.Gets, want)
		}
	}
}
