// Package trace provides tcpdump-style packet capture for the simulated
// testbed. The paper's motivation section describes collecting tcpdump
// traces and inspecting them manually as the tedious baseline VirtualWire
// replaces; this package exists both for debugging the testbed and for
// demonstrating that contrast in the examples.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// Entry is one captured frame with its capture point and timestamp.
type Entry struct {
	At   time.Duration
	Node string
	// Dir is "send" or "recv" relative to the capture point.
	Dir     string
	FrameID uint64
	Len     int
	Summary string
}

// String renders the entry in a tcpdump-like single line.
func (e Entry) String() string {
	return fmt.Sprintf("%12v %-8s %-4s %4dB %s", e.At, e.Node, e.Dir, e.Len, e.Summary)
}

// Buffer is a bounded capture ring. Taps do not write to it: each
// captures into the Stage of the shard it runs on, and Flush — called
// with every shard parked — moves the staged entries into the ring in
// (time, node, capture order), an order no partition of the nodes over
// shards can change.
type Buffer struct {
	cap     int
	entries []Entry // the ring: filled in order, then overwritten from head
	head    int     // the oldest entry once the ring is full
	dropped uint64
	stages  []*Stage
	merge   []Entry // Flush's scratch
}

// Stage holds one shard's captures, in capture order, until the next
// Flush.
type Stage struct{ entries []Entry }

// NewBuffer returns a capture buffer holding up to capEntries (> 0)
// entries. When full, the oldest entries are discarded.
func NewBuffer(capEntries int) *Buffer { return &Buffer{cap: capEntries} }

// Stage returns shard i's staging slice, which every tap on that shard
// captures into; nil on a nil buffer, so a tap with no trace gets none.
func (b *Buffer) Stage(i int) *Stage {
	if b == nil {
		return nil
	}
	for len(b.stages) <= i {
		b.stages = append(b.stages, &Stage{})
	}
	return b.stages[i]
}

// Flush moves every staged entry into the ring, ordered by time, then
// node name, then capture order (a node's taps all stage on one shard).
func (b *Buffer) Flush() {
	m := b.merge[:0]
	for _, st := range b.stages {
		m = append(m, st.entries...)
		st.entries = st.entries[:0]
	}
	slices.SortStableFunc(m, func(x, y Entry) int {
		return cmp.Or(cmp.Compare(x.At, y.At), strings.Compare(x.Node, y.Node))
	})
	for _, e := range m {
		b.add(e)
	}
	b.merge = m[:0]
}

// add stores e, overwriting the oldest entry when the ring is full.
func (b *Buffer) add(e Entry) {
	if len(b.entries) < b.cap {
		b.entries = append(b.entries, e)
		return
	}
	b.entries[b.head] = e
	if b.head++; b.head == b.cap {
		b.head = 0
	}
	b.dropped++
}

// Reset discards all captured and staged entries and the eviction
// count, keeping the buffer's capacity and stages for reuse.
func (b *Buffer) Reset() {
	for _, st := range b.stages {
		st.entries = st.entries[:0]
	}
	b.entries = b.entries[:0]
	b.head = 0
	b.dropped = 0
}

// Entries returns a copy of the captured entries, oldest first.
func (b *Buffer) Entries() []Entry {
	out := make([]Entry, 0, len(b.entries))
	return append(append(out, b.entries[b.head:]...), b.entries[:b.head]...)
}

// Dropped reports how many entries were evicted.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Filter returns the entries whose summary contains all the given
// substrings.
func (b *Buffer) Filter(substrings ...string) []Entry {
	var out []Entry
	for _, e := range b.Entries() {
		ok := true
		for _, s := range substrings {
			if !strings.Contains(e.Summary, s) && !strings.Contains(e.Node, s) && e.Dir != s {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// Tap is a stack.Layer that captures every frame passing through it,
// without modifying or delaying anything: as a trace entry into a
// Stage, as a libpcap record into a PcapWriter (one capture point, like
// tcpdump on one interface), or both.
type Tap struct {
	base  stack.Base
	sched *sim.Scheduler
	node  string
	stage *Stage      // nil: no trace
	pw    *PcapWriter // nil: no capture
	err   error       // the first capture write failure
}

var _ stack.Layer = (*Tap)(nil)

// NewTap returns a capture layer that stages trace entries into stage
// under the given node label and writes to pw; either may be nil.
func NewTap(sched *sim.Scheduler, node string, stage *Stage, pw *PcapWriter) *Tap {
	return &Tap{sched: sched, node: node, stage: stage, pw: pw}
}

// Err reports the first capture write failure. The tap never blocks the
// data path on I/O: after a failure it writes no more records and keeps
// the error for its owner to report.
func (t *Tap) Err() error { return t.err }

// SetBelow implements stack.Layer.
func (t *Tap) SetBelow(d stack.Down) { t.base.SetBelow(d) }

// SetAbove implements stack.Layer.
func (t *Tap) SetAbove(u stack.Up) { t.base.SetAbove(u) }

// SendDown implements stack.Layer.
func (t *Tap) SendDown(fr *ether.Frame) {
	t.capture(fr, "send")
	t.base.PassDown(fr)
}

// DeliverUp implements stack.Layer.
func (t *Tap) DeliverUp(fr *ether.Frame) {
	t.capture(fr, "recv")
	t.base.PassUp(fr)
}

func (t *Tap) capture(fr *ether.Frame, dir string) {
	if t.stage != nil {
		t.stage.entries = append(t.stage.entries, Entry{
			At:      t.sched.Now(),
			Node:    t.node,
			Dir:     dir,
			FrameID: fr.ID,
			Len:     len(fr.Data),
			Summary: Summarize(fr),
		})
	}
	if t.pw != nil && t.err == nil {
		t.err = t.pw.WriteFrame(t.sched.Now(), fr.Data)
	}
}

// Summarize decodes a frame into a one-line description covering every
// protocol on the testbed.
func Summarize(fr *ether.Frame) string {
	eth, err := packet.DecodeEth(fr.Data)
	if err != nil {
		return "short frame"
	}
	switch eth.Type {
	case packet.EtherTypeIPv4:
		return summarizeIPv4(fr.Data)
	case packet.EtherTypeRether:
		h, err := packet.DecodeRether(fr.Data[packet.EthHeaderLen:])
		if err != nil {
			return "rether: malformed"
		}
		return fmt.Sprintf("rether %s seq=%d origin=%d",
			packet.RetherTypeName(h.Type), h.TokenSeq, h.Origin)
	case packet.EtherTypeVWCtl:
		return "vwire control"
	case rll.EtherType:
		return fmt.Sprintf("rll %s %s -> %s (%dB encapsulated)",
			rll.FrameTypeName(fr.Data), eth.Src, eth.Dst,
			len(fr.Data)-packet.EthHeaderLen)
	}
	return fmt.Sprintf("ethertype 0x%04x %s -> %s", eth.Type, eth.Src, eth.Dst)
}

func summarizeIPv4(b []byte) string {
	iph, err := packet.DecodeIPv4(b[packet.OffIPHeader:])
	if err != nil {
		return "ipv4: bad header"
	}
	rest := b[packet.OffIPHeader+packet.IPv4HeaderLen:]
	switch iph.Proto {
	case packet.ProtoTCP:
		th, err := packet.DecodeTCP(rest)
		if err != nil {
			return "tcp: malformed"
		}
		dataLen := int(iph.TotalLen) - packet.IPv4HeaderLen - packet.TCPHeaderLen
		return fmt.Sprintf("tcp %v:%d > %v:%d [%s] seq=%d ack=%d len=%d",
			iph.Src, th.SrcPort, iph.Dst, th.DstPort,
			packet.FlagString(th.Flags), th.Seq, th.Ack, dataLen)
	case packet.ProtoUDP:
		uh, err := packet.DecodeUDP(rest)
		if err != nil {
			return "udp: malformed"
		}
		return fmt.Sprintf("udp %v:%d > %v:%d len=%d",
			iph.Src, uh.SrcPort, iph.Dst, uh.DstPort, int(uh.Length)-packet.UDPHeaderLen)
	}
	return fmt.Sprintf("ipv4 proto=%d %v > %v", iph.Proto, iph.Src, iph.Dst)
}
