package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/stack"
)

// The send buffer doubles as the retransmission store: Send takes the
// caller's slice when nothing is buffered and appends otherwise, and
// trySend slices segments out of whatever array the buffer points into
// at the time. These tests cover the three ways that could go wrong.

// pattern fills n bytes that differ at every offset a segment boundary
// could fall on, starting the sequence at off.
func pattern(off, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((off + i) % 251)
	}
	return b
}

// chunkedTransfer connects p.h1 to p.h2 and hands chunks to Send in the
// given order: first[...] all at once on connect, then one of later[...]
// every gap. It returns what the server received.
func chunkedTransfer(t *testing.T, p *pair, first, later [][]byte, gap time.Duration) []byte {
	t.Helper()
	lst, err := p.t2.Listen(0x4000)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var rcvd bytes.Buffer
	lst.OnAccept = func(c *Conn) {
		c.OnData = func(d []byte) { rcvd.Write(d) }
	}
	cli, err := p.t1.Connect(0x6000, p.h2.IP, 0x4000)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	cli.OnConnected = func() {
		for _, c := range first {
			cli.Send(c)
		}
		for i, c := range later {
			c := c
			p.sched.After(time.Duration(i+1)*gap, "test.send", func() { cli.Send(c) })
		}
	}
	if err := p.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return rcvd.Bytes()
}

// TestRetransmitAfterSendBufferReallocated: a segment sent out of the
// first Send's array is lost; before it is retransmitted a second Send
// appends to the (clipped, hence reallocating) buffer. The retransmission
// must still carry the original bytes, and the appended ones must follow.
func TestRetransmitAfterSendBufferReallocated(t *testing.T) {
	data := 0
	dl := &dropLayer{dropDown: func(fr *ether.Frame) bool {
		if tcpFlagsOf(fr)&packet.TCPPsh == 0 {
			return false
		}
		data++
		return data == 1 // the first data segment, once
	}}
	p := newPair(t, 11, []stack.Layer{dl}, nil)
	a, b := pattern(0, 5000), pattern(5000, 3000)
	// a alone on connect: its first segment (all cwnd allows) is sent
	// and lost, the rest stays buffered. b arrives 1 ms later, long
	// before the retransmission timer, and forces the reallocation.
	got := chunkedTransfer(t, p, [][]byte{a}, [][]byte{b}, time.Millisecond)
	if want := append(append([]byte(nil), a...), b...); !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if cli := p.t1.TotalStats(); cli.Retransmissions == 0 {
		t.Error("the dropped segment was never retransmitted")
	}
}

// TestSendNeverWritesCallersSlice: the slice handed to Send may have
// spare capacity that belongs to the caller (here: a sentinel), and may
// be handed to many connections. Later Sends must not append into it,
// and nothing may write to its bytes.
func TestSendNeverWritesCallersSlice(t *testing.T) {
	p := newPair(t, 12, nil, nil)
	backing := pattern(0, 4096)
	first := backing[:2000] // cap 4096: bytes 2000.. are the caller's
	snapshot := append([]byte(nil), backing...)
	second := pattern(2000, 1500)
	got := chunkedTransfer(t, p, [][]byte{first, second}, nil, 0)
	if want := append(append([]byte(nil), first...), second...); !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d; first difference at %d",
			len(got), len(want), firstDiff(got, want))
	}
	if !bytes.Equal(backing, snapshot) {
		t.Errorf("Send wrote to the caller's array at offset %d", firstDiff(backing, snapshot))
	}
}

// TestPacedChunksSegmentAsBefore: a sender writing 1000-byte chunks,
// three at once and then one every 20 µs — faster than acknowledgements
// return — produces segments that straddle chunk boundaries, from a
// buffer that is by turns the caller's slice and a reallocated append.
// The (stream offset, length) list of data segments on the wire is the
// one the copying send buffer produced at the parent commit: whose array
// the bytes live in must not change segmentation.
func TestPacedChunksSegmentAsBefore(t *testing.T) {
	type seg struct{ off, n int }
	const hdrs = packet.EthHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
	var segs []seg
	var iss uint32
	tap := &dropLayer{dropDown: func(fr *ether.Frame) bool {
		fl := tcpFlagsOf(fr)
		seq := binary.BigEndian.Uint32(fr.Data[packet.OffTCPSeq:])
		if fl&packet.TCPSyn != 0 {
			iss = seq
		}
		if fl&packet.TCPPsh != 0 {
			segs = append(segs, seg{int(seq - iss - 1), len(fr.Data) - hdrs})
		}
		return false
	}}
	p := newPair(t, 13, []stack.Layer{tap}, nil)
	var first, later [][]byte
	for i := 0; i < 12; i++ {
		c := pattern(i*1000, 1000)
		if i < 3 {
			first = append(first, c)
		} else {
			later = append(later, c)
		}
	}
	got := chunkedTransfer(t, p, first, later, 20*time.Microsecond)
	if want := pattern(0, 12000); !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want 12000; first difference at %d", len(got), firstDiff(got, want))
	}
	want := []seg{{0, 1000}, {1000, 1400}, {2400, 1400}, {3800, 1400}, {5200, 1400},
		{6600, 1400}, {8000, 1400}, {9400, 1400}, {10800, 1200}}
	if len(segs) != len(want) {
		t.Fatalf("segments %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments %v, want %v", segs, want)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}
