package ether

import "bytes"

// FramePool recycles Frame structs together with their Data buffers, so
// that a frame's journey from the stack that builds it to the stack that
// consumes it touches the allocator at neither end. One pool serves one
// testbed (one shard of a sharded testbed): like the Scheduler it is
// single-goroutine by construction and needs no locking. A frame that
// crosses a shard boundary is cut from the sender's pool and recycled
// into the receiver's; each pool only ever sees its own goroutine.
//
// Ownership protocol (see docs/PERFORMANCE.md for the full statement).
// A frame has one owner at a time, and whoever ends its life recycles it:
//
//   - Transmit: a frame passed to NIC.Send — or to SendDown of any layer
//     — belongs to the callee. The sender must not touch it again (the
//     RLL keeps its retransmission store and sends clones for exactly
//     this reason).
//   - Hops: a medium with one receiver (Link, trunk, a two-station bus
//     segment, the switch's unicast path) hands the transmitted frame
//     itself to that receiver. Copies are made only where the model fans
//     out: a flood, a bus with several listeners, an engine DUP.
//   - Receive: a frame handed to a receive upcall belongs to the
//     receiver, and the layer where its journey ends recycles it — the
//     NIC for frames it filters, the RLL for acks and spent
//     encapsulations, the engine for drops and control frames, Rether
//     for its control frames, IPStack.DeliverUp once the transport
//     handler has returned. Handlers must copy what they keep: payload
//     slices are valid for the duration of the call only.
//
// Forgetting to recycle costs a garbage-collected buffer; recycling too
// early corrupts a frame still in flight (the poison hook in
// export_test.go exists to catch that).
//
// The zero value of the containing media's pool pointer (nil) disables
// recycling entirely: Get falls back to plain allocation and Put is a
// no-op, which is what bare media constructed outside a Testbed get.
type FramePool struct {
	free []*Frame

	// maxFree bounds the free list so a transient burst cannot pin an
	// arbitrary amount of buffer memory.
	maxFree int

	// poison, when set (tests only), overwrites a returned frame's bytes
	// so that anything still reading them diverges visibly.
	poison bool

	// Gets counts frames handed out (pool hits and misses).
	Gets uint64
	// Hits counts Gets served from the free list.
	Hits uint64
	// Puts counts frames returned, kept or not: like Gets it depends on
	// the traffic alone, not on how warm the free list is.
	Puts uint64
}

// frameCap is the Data capacity of every pooled buffer: room for a
// full-size frame under every encapsulation the testbed uses, so any
// free frame serves any Get. (A pool of exact-size buffers fills with
// 54-byte acknowledgements that no data frame can use.)
const frameCap = 1536

// poisonNewPools is written by tests only (export_test.go): pools
// created while it is set poison what is returned to them.
var poisonNewPools bool

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool {
	return &FramePool{maxFree: 4096, poison: poisonNewPools}
}

// Get returns a frame with Data of length n (zeroed ID and Corrupt; Data
// contents are unspecified — callers overwrite every byte). Safe on a
// nil pool.
func (p *FramePool) Get(n int) *Frame {
	if p == nil {
		return &Frame{Data: make([]byte, n)}
	}
	p.Gets++
	if n > frameCap {
		// Larger than anything the MTU-bounded media carry: not pooled.
		return &Frame{Data: make([]byte, n)}
	}
	if m := len(p.free); m > 0 {
		fr := p.free[m-1]
		p.free[m-1] = nil
		p.free = p.free[:m-1]
		p.Hits++
		fr.Data = fr.Data[:n]
		return fr
	}
	return &Frame{Data: make([]byte, n, frameCap)}
}

// Clone returns a deep copy of fr, backed by a recycled buffer when one
// is available: what the media and the engine use where the model fans a
// frame out. Safe on a nil pool (plain allocation).
func (p *FramePool) Clone(fr *Frame) *Frame {
	cp := p.Get(len(fr.Data))
	copy(cp.Data, fr.Data)
	cp.Corrupt = fr.Corrupt
	cp.ID = fr.ID
	return cp
}

// Put returns a dead frame to the pool. The caller asserts nothing
// retains fr or any slice of fr.Data. Frames the pool did not cut (a
// test's hand-built frame, an oversized Get) are left to the garbage
// collector. Safe on a nil pool and on a nil frame (both no-ops).
func (p *FramePool) Put(fr *Frame) {
	if p == nil || fr == nil {
		return
	}
	p.Puts++
	p.Scrub(fr.Data[:cap(fr.Data)])
	if cap(fr.Data) != frameCap || len(p.free) >= p.maxFree {
		return
	}
	fr.Corrupt = false
	fr.ID = 0
	fr.Data = fr.Data[:0]
	p.free = append(p.free, fr)
}

// poisonByte is what a poisoned pool fills returned buffers with.
const poisonByte = 0xA5

// poisonedFrame is what a poisoning pool leaves in a vacated FIFO slot.
var poisonedFrame = &Frame{Data: bytes.Repeat([]byte{poisonByte}, 64)}

// Scrub is for layers that keep reusable byte buffers of their own (INIT
// reassembly, TCP's reorder store): they call it on a buffer they
// release, and a poisoning pool (tests only) overwrites it, so the
// lifetime oracle sees a read after release there as it does for frames.
// A no-op otherwise, and on a nil pool.
func (p *FramePool) Scrub(b []byte) {
	if p == nil || !p.poison {
		return
	}
	for i := range b {
		b[i] = poisonByte
	}
}

// ShiftFrames removes the first n frames of the FIFO q in place and
// returns it: the rest move down and the vacated tail is cleared, so
// appends keep reusing q's backing array instead of abandoning it a slot
// at a time. The removed frames are the caller's to dispose of. A
// poisoning pool (tests only) fills the tail with a poisoned frame
// instead of nil. Safe on a nil pool.
func (p *FramePool) ShiftFrames(q []*Frame, n int) []*Frame {
	m := copy(q, q[n:])
	tail := q[m:]
	if p != nil && p.poison {
		for i := range tail {
			tail[i] = poisonedFrame
		}
	} else {
		clear(tail)
	}
	return q[:m]
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
