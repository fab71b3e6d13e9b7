package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

func TestPcapWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	frame := packet.BuildUDPFrame(packet.MAC{1}, packet.MAC{2},
		packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2},
		packet.UDP{SrcPort: 1, DstPort: 2}, []byte("hi"))
	at := 3*time.Second + 250*time.Microsecond
	if err := pw.WriteFrame(at, frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	if pw.Frames() != 1 {
		t.Errorf("Frames = %d", pw.Frames())
	}
	b := buf.Bytes()
	if len(b) != 24+16+len(frame) {
		t.Fatalf("file length %d", len(b))
	}
	if got := binary.LittleEndian.Uint32(b[0:]); got != pcapMagicMicros {
		t.Errorf("magic %#x", got)
	}
	if got := binary.LittleEndian.Uint32(b[20:]); got != linktypeEthernet {
		t.Errorf("linktype %d", got)
	}
	rec := b[24:]
	if got := binary.LittleEndian.Uint32(rec[0:]); got != 3 {
		t.Errorf("ts_sec %d", got)
	}
	if got := binary.LittleEndian.Uint32(rec[4:]); got != 250 {
		t.Errorf("ts_usec %d", got)
	}
	if got := binary.LittleEndian.Uint32(rec[8:]); got != uint32(len(frame)) {
		t.Errorf("incl_len %d", got)
	}
	if !bytes.Equal(rec[16:], frame) {
		t.Error("payload mismatch")
	}
}

// failAfter is a writer that takes n writes, then fails every one.
type failAfter struct{ n int }

func (w *failAfter) Write(b []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(b), nil
}

// TestTapWritesPcapAndTrace: one tap on h1 both traces and captures its
// send and the echo's receive, and a capture write that fails is kept —
// the first failure — while frames still pass and the trace goes on.
func TestTapWritesPcapAndTrace(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      io.Writer
		frames int
	}{
		{"ok", &bytes.Buffer{}, 2},
		// Header, then one record's header and data: the echo fails.
		{"fails-after-one-record", &failAfter{n: 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler(1)
			bus := ether.NewSharedBus(s, ether.BusConfig{})
			h1 := stack.NewHost(s, "a", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1})
			h2 := stack.NewHost(s, "b", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2})
			for _, h := range []*stack.Host{h1, h2} {
				h.Neighbors[h1.IP] = h1.MAC
				h.Neighbors[h2.IP] = h2.MAC
			}
			bus.Attach(h1.NIC)
			bus.Attach(h2.NIC)
			pw, err := NewPcapWriter(tc.w)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			buf := NewBuffer(16)
			tap := NewTap(s, "a", buf.Stage(0), pw)
			h1.Build(tap)
			h2.Build()
			sock, _ := h2.UDP.Bind(9)
			sock.OnDatagram = func(src packet.IP, sp uint16, p []byte) {
				_ = sock.SendTo(src, sp, p)
			}
			echoed := false
			cli, _ := h1.UDP.Bind(10)
			cli.OnDatagram = func(packet.IP, uint16, []byte) { echoed = true }
			if err := cli.SendTo(h2.IP, 9, []byte("ping")); err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			buf.Flush()
			if !echoed || len(buf.Entries()) != 2 {
				t.Errorf("echoed %v, traced %d frames; want the echo and 2", echoed, len(buf.Entries()))
			}
			if pw.Frames() != tc.frames {
				t.Errorf("captured %d frames, want %d", pw.Frames(), tc.frames)
			}
			if failed := tc.frames < 2; (tap.Err() != nil) != failed {
				t.Errorf("Err = %v, want an error %v", tap.Err(), failed)
			}
		})
	}
}
