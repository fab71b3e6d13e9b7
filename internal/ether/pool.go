package ether

import (
	"virtualwire/internal/metrics"
)

// FramePool recycles Frame structs together with their Data buffers, so
// the per-hop clone-on-delivery the media perform does not hit the
// garbage collector on every frame. One pool serves one testbed: all
// media of a testbed share it, and — like the Scheduler — it is
// single-goroutine by construction, so it needs no locking. Independent
// testbeds (parallel sweep points) each own a private pool.
//
// Ownership protocol (see docs/PERFORMANCE.md for the full statement):
//
//   - A frame passed to NIC.Send is owned by the medium. The sender must
//     not retain it (the RLL clones before transmitting for exactly this
//     reason). The medium recycles it once it has been serialized and
//     cloned for delivery.
//   - A frame handed to a NIC's receive upcall is owned by the receiver
//     forever: protocol stacks keep sub-slices of Data (IP payloads, TCP
//     segments), so delivered frames are never recycled.
//   - Frames the NIC drops before the upcall (destination filter, FCS
//     check, transmit-queue overflow, collision expiry) are recycled.
//
// The zero value of the containing media's pool pointer (nil) disables
// recycling entirely: Get falls back to plain allocation and Put is a
// no-op, which is what bare media constructed outside a Testbed get.
type FramePool struct {
	free []*Frame

	// maxFree bounds the free list so a transient burst cannot pin an
	// arbitrary amount of buffer memory.
	maxFree int

	// Gets counts frames handed out (pool hits and misses).
	Gets uint64
	// Hits counts Gets served from the free list.
	Hits uint64
	// Puts counts frames returned.
	Puts uint64
}

// maxPooledCap bounds the Data capacity of buffers kept in the pool;
// anything larger (never produced by the simulated Ethernet, which is
// MTU-bounded) is left to the garbage collector.
const maxPooledCap = 4096

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool {
	return &FramePool{maxFree: 4096}
}

// Get returns a frame with Data of length n (zeroed ID and Corrupt; Data
// contents are unspecified — callers overwrite it). Safe on a nil pool.
func (p *FramePool) Get(n int) *Frame {
	if p == nil {
		return &Frame{Data: make([]byte, n)}
	}
	p.Gets++
	if m := len(p.free); m > 0 {
		fr := p.free[m-1]
		p.free[m-1] = nil
		p.free = p.free[:m-1]
		if cap(fr.Data) >= n {
			p.Hits++
			fr.Data = fr.Data[:n]
			return fr
		}
		// Undersized buffer: keep the struct, replace the backing array.
		fr.Data = make([]byte, n)
		return fr
	}
	return &Frame{Data: make([]byte, n)}
}

// Clone returns a copy of fr backed by a recycled buffer when one is
// available — the allocation-free replacement for Frame.Clone on the
// media's delivery paths. Safe on a nil pool (plain deep copy).
func (p *FramePool) Clone(fr *Frame) *Frame {
	cp := p.Get(len(fr.Data))
	copy(cp.Data, fr.Data)
	cp.Corrupt = fr.Corrupt
	cp.ID = fr.ID
	return cp
}

// Put returns a dead frame to the pool. The caller asserts nothing
// retains fr or any slice of fr.Data. Safe on a nil pool and on a nil
// frame (both no-ops).
func (p *FramePool) Put(fr *Frame) {
	if p == nil || fr == nil {
		return
	}
	if cap(fr.Data) > maxPooledCap || len(p.free) >= p.maxFree {
		return
	}
	p.Puts++
	fr.Corrupt = false
	fr.ID = 0
	fr.Data = fr.Data[:0]
	p.free = append(p.free, fr)
}

// Reset zeroes the pool's counters for a fresh run while keeping the
// free list warm: a reset pool serves the next run's frames without
// allocating, which is the whole point of testbed reuse. (The "hits"
// counter therefore diverges between a fresh and a reused testbed; the
// run-report totals exclude it for exactly that reason.) Safe on a nil
// pool.
func (p *FramePool) Reset() {
	if p == nil {
		return
	}
	p.Gets = 0
	p.Hits = 0
	p.Puts = 0
}

// FreeFrames reports how many recycled frames the pool holds.
func (p *FramePool) FreeFrames() int { return len(p.free) }

// Snapshot implements the uniform metrics hook: recycling effectiveness
// for the observability layer (surfaced as node="testbed", layer="pool").
func (p *FramePool) Snapshot() metrics.Snapshot {
	var sn metrics.Snapshot
	sn.Counter("gets", p.Gets)
	sn.Counter("hits", p.Hits)
	sn.Counter("puts", p.Puts)
	sn.Gauge("free_frames", float64(len(p.free)))
	return sn
}
