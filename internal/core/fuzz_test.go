package core

import (
	"testing"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

type fuzzSink struct{}

func (fuzzSink) SendDown(*ether.Frame)  {}
func (fuzzSink) DeliverUp(*ether.Frame) {}

// fuzzProgram is a two-node table with a counter, a term and a rule on
// each side of the wire, so every MsgKind has something to index.
func fuzzProgram() *Program {
	return &Program{
		Name: "fuzz",
		Nodes: []NodeEntry{
			{Name: "a", MAC: packet.MAC{0, 0, 0, 0, 0, 1}, IP: packet.IP{10, 0, 0, 1}},
			{Name: "b", MAC: packet.MAC{0, 0, 0, 0, 0, 2}, IP: packet.IP{10, 0, 0, 2}},
		},
		Filters: []FilterEntry{{Name: "f", Tuples: []FilterTuple{{Off: 23, Len: 1, Pattern: []byte{0x11}, Var: -1}}}},
		Counters: []CounterEntry{
			{Name: "c0", Kind: CounterEvent, Filter: 0, From: 0, To: 1, Dir: DirRecv, Home: 1, Terms: []TermID{0}},
			{Name: "c1", Kind: CounterLocal, Filter: -1, From: -1, To: -1, Home: 0, Terms: []TermID{1}},
		},
		Terms: []TermEntry{
			{LHS: Operand{Counter: 0}, Op: OpGE, RHS: Operand{IsConst: true, Const: 3}, Home: 1, StatusNodes: []NodeID{0}, Conds: []CondID{0}},
			{LHS: Operand{Counter: 1}, Op: OpGE, RHS: Operand{IsConst: true, Const: 1}, Home: 0, StatusNodes: []NodeID{1}, Conds: []CondID{1}},
		},
		Actions: []ActionEntry{
			{Kind: ActFlagErr, Node: 1, Counter: -1, Filter: -1, From: -1, To: -1},
			{Kind: ActStop, Node: 1, Counter: -1, Filter: -1, From: -1, To: -1},
		},
		Conds: []ConditionEntry{
			{Expr: &CondExpr{Op: CondTerm, Term: 0}, EvalNodes: []NodeID{1}, Actions: []ActionID{0}, Rule: 1},
			{Expr: &CondExpr{Op: CondTerm, Term: 1}, EvalNodes: []NodeID{1}, Actions: []ActionID{1}, Rule: 2},
		},
	}
}

// FuzzControlFrame: the control plane shares the wire with test traffic,
// so MODIFY and bit errors hand the engine mangled control frames by
// design. Whatever arrives, handleControlFrame must not panic — neither
// on an engine that has its tables (ids index them) nor on one still
// waiting for INIT (a chunk count sizes an allocation). Each frame
// arrives twice, as the controller's retries deliver it: a second copy
// of an INIT chunk that the first left mid-reassembly is a duplicate,
// however short it is.
func FuzzControlFrame(f *testing.F) {
	prog := fuzzProgram()
	blob, err := encodeProgram(prog)
	if err != nil {
		f.Fatal(err)
	}
	src, dst := prog.Nodes[0].MAC, prog.Nodes[1].MAC
	for kind := MsgInitChunk; kind <= MsgActivity; kind++ {
		m := &Msg{Kind: kind, From: 0, ControlNode: 0, NodeID: 1, Counter: 1, Value: 7, Term: 1, Status: true, Rule: 2, Message: "boom", AtNanos: 5}
		if kind == MsgInitChunk {
			m.ChunkTotal, m.ChunkData = 1, blob
		}
		fr, err := encodeMsg(nil, src, dst, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr.Data)
		for _, cut := range []int{packet.EthHeaderLen, packet.EthHeaderLen + 1, len(fr.Data) / 2, len(fr.Data) - 1} {
			f.Add(fr.Data[:cut])
		}
	}
	// The defects this target was written against: ids a mangled varint
	// made negative, a chunk count that sizes an allocation, identities
	// the node table does not have.
	for _, m := range []*Msg{
		{Kind: MsgCounterValue, Counter: -1},
		{Kind: MsgTermStatus, Term: -1, Status: true},
		{Kind: MsgInitChunk, ChunkTotal: 1 << 40},
		{Kind: MsgInitChunk, ChunkTotal: 1, ChunkData: blob, NodeID: 1, ControlNode: 9},
		{Kind: MsgInitChunk, ChunkTotal: 1, ChunkData: blob, NodeID: -3, ControlNode: 0},
		// An empty chunk once counted afresh on every copy.
		{Kind: MsgInitChunk, ChunkTotal: 2, ChunkIndex: 1, NodeID: 1, ControlNode: 0},
	} {
		fr, err := encodeMsg(nil, src, dst, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < packet.EthHeaderLen {
			return // below what a NIC delivers; Dst() needs the header
		}
		for _, loaded := range []bool{true, false} {
			e := NewEngine(sim.NewScheduler(1), dst)
			e.SetBelow(fuzzSink{})
			e.SetAbove(fuzzSink{})
			if loaded {
				e.LoadLocal(prog, 1, 0)
				e.Activate()
			}
			// Addressed to the engine whatever the mutation did to the
			// header, so every input reaches the decoder.
			deliver := func() {
				fr := &ether.Frame{Data: append([]byte(nil), data...)}
				copy(fr.Data, dst[:])
				e.handleControlFrame(fr)
			}
			deliver()
			got, dups, assembling := e.initGot, e.Stats.InitDupChunks, e.initTotal > 0
			deliver()
			if assembling && (e.initGot != got || e.Stats.InitDupChunks != dups+1) {
				t.Fatalf("a repeated INIT chunk moved the reassembly: received %d -> %d, duplicates %d -> %d",
					got, e.initGot, dups, e.Stats.InitDupChunks)
			}
		}
	})
}
