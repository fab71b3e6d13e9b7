package trace

import (
	"fmt"
	"strings"
	"testing"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

func TestTapCapturesBothDirections(t *testing.T) {
	s := sim.NewScheduler(1)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	h1 := stack.NewHost(s, "node1", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1})
	h2 := stack.NewHost(s, "node2", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2})
	for _, h := range []*stack.Host{h1, h2} {
		h.Neighbors[h1.IP] = h1.MAC
		h.Neighbors[h2.IP] = h2.MAC
	}
	bus.Attach(h1.NIC)
	bus.Attach(h2.NIC)
	buf := NewBuffer(16)
	stage := buf.Stage(0)
	h1.Build(NewTap(s, "node1", stage, nil))
	h2.Build(NewTap(s, "node2", stage, nil))

	srv, _ := h2.UDP.Bind(7)
	srv.OnDatagram = func(src packet.IP, sp uint16, p []byte) {
		if err := srv.SendTo(src, sp, p); err != nil {
			t.Errorf("echo: %v", err)
		}
	}
	cli, _ := h1.UDP.Bind(1234)
	if err := cli.SendTo(h2.IP, 7, []byte("ping")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(buf.Entries()); n != 0 {
		t.Fatalf("%d entries reached the ring before Flush", n)
	}
	buf.Flush()
	entries := buf.Entries()
	if len(entries) != 4 { // send@1, recv@2, send@2, recv@1
		t.Fatalf("captured %d entries: %v", len(entries), entries)
	}
	if entries[0].Node != "node1" || entries[0].Dir != "send" {
		t.Errorf("first entry %+v", entries[0])
	}
	if !strings.Contains(entries[0].Summary, "udp 10.0.0.1:1234 > 10.0.0.2:7") {
		t.Errorf("summary %q", entries[0].Summary)
	}
	if got := buf.Filter("recv"); len(got) != 2 {
		t.Errorf("Filter(recv) = %d entries", len(got))
	}
	if got := buf.Filter("node2", "udp"); len(got) != 2 {
		t.Errorf("Filter(node2,udp) = %d entries", len(got))
	}
}

func TestBufferEviction(t *testing.T) {
	const capacity = 3
	buf := NewBuffer(capacity)
	for i := 0; i < 3*capacity; i++ {
		buf.add(Entry{FrameID: uint64(i), Summary: fmt.Sprint("frame ", i)})
		kept := min(i+1, capacity)
		if got, want := buf.Dropped(), uint64(i+1-kept); got != want {
			t.Fatalf("after %d adds: dropped = %d, want %d", i+1, got, want)
		}
		es := buf.Entries()
		if len(es) != kept {
			t.Fatalf("after %d adds: %d entries, want %d", i+1, len(es), kept)
		}
		for j, e := range es {
			if want := uint64(i + 1 - kept + j); e.FrameID != want {
				t.Fatalf("after %d adds: entry %d is frame %d, want %d (oldest first)", i+1, j, e.FrameID, want)
			}
		}
		if f := buf.Filter("frame"); len(f) != kept || f[0].FrameID != es[0].FrameID {
			t.Fatalf("after %d adds: Filter gave %+v, want the entries in order", i+1, f)
		}
	}
	if first := buf.Entries()[0].String(); !strings.HasSuffix(first, "frame 6") {
		t.Errorf("the oldest entry prints %q, want frame 6", first)
	}
	// An add into a full ring overwrites in place.
	e := Entry{FrameID: 99, Summary: "s"}
	if n := testing.AllocsPerRun(100, func() { buf.add(e) }); n != 0 {
		t.Errorf("an add into a full buffer allocates %.0f times, want 0", n)
	}
}

// TestFlushOrder: Flush merges the stages by time, then node name, then
// capture order, so how nodes are spread over stages changes nothing,
// and it empties the stages; Reset drops what is staged.
func TestFlushOrder(t *testing.T) {
	captures := []Entry{
		{At: 2, Node: "b", FrameID: 1}, {At: 1, Node: "c", FrameID: 2},
		{At: 2, Node: "a", FrameID: 3}, {At: 2, Node: "b", FrameID: 4},
		{At: 3, Node: "a", FrameID: 5},
	}
	want := []uint64{2, 3, 1, 4, 5}
	for _, stageOf := range []map[string]int{{"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 0, "c": 1}, {"a": 2, "b": 1, "c": 0}} {
		buf := NewBuffer(16)
		stages := []*Stage{buf.Stage(0), buf.Stage(1), buf.Stage(2)}
		for _, e := range captures {
			st := stages[stageOf[e.Node]]
			st.entries = append(st.entries, e)
		}
		buf.Flush()
		var got []uint64
		for _, e := range buf.Entries() {
			got = append(got, e.FrameID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("stages %v: flushed frames %v, want %v", stageOf, got, want)
		}
		for i, st := range stages {
			if len(st.entries) != 0 {
				t.Errorf("stage %d holds %d entries after Flush", i, len(st.entries))
			}
		}
		stages[0].entries = append(stages[0].entries, captures[0])
		buf.Reset()
		buf.Flush()
		if n := len(buf.Entries()); n != 0 {
			t.Errorf("stages %v: %d entries after Reset and Flush, want 0", stageOf, n)
		}
	}
}

func TestSummarizeProtocols(t *testing.T) {
	mac1, mac2 := packet.MAC{1}, packet.MAC{2}
	tcpFrame := make([]byte, packet.TCPFrameLen(0))
	packet.PutTCPFrame(tcpFrame, mac1, mac2, packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2},
		packet.TCP{SrcPort: 0x6000, DstPort: 0x4000, Seq: 7, Flags: packet.TCPSyn}, nil)
	got := Summarize(&ether.Frame{Data: tcpFrame})
	if !strings.Contains(got, "tcp") || !strings.Contains(got, "[S]") {
		t.Errorf("tcp summary %q", got)
	}
	rtFrame := make([]byte, packet.RetherFrameLen(0))
	packet.PutRetherFrame(rtFrame, mac1, mac2, packet.Rether{Type: packet.RetherToken, TokenSeq: 3}, nil)
	got = Summarize(&ether.Frame{Data: rtFrame})
	if !strings.Contains(got, "rether token seq=3") {
		t.Errorf("rether summary %q", got)
	}
	if got := Summarize(&ether.Frame{Data: []byte{1, 2}}); got != "short frame" {
		t.Errorf("short frame summary %q", got)
	}
}
