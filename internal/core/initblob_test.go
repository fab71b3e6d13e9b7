package core

import (
	"math"
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// adoptAndRun hands a fresh engine blob as a one-chunk INIT distribution
// and, if the engine adopts it, starts the scenario, passes a matching
// frame through in each direction, pushes every counter value and term
// status over the control plane and runs the clock on: every path along
// which an engine follows one table's ids into another. It reports
// whether the program was adopted.
func adoptAndRun(blob []byte) bool {
	prog := fuzzProgram()
	a, b := prog.Nodes[0], prog.Nodes[1]
	s := sim.NewScheduler(1)
	e := NewEngine(s, b.MAC)
	e.SetBelow(fuzzSink{})
	e.SetAbove(fuzzSink{})
	e.handleCtl(&Msg{Kind: MsgInitChunk, ChunkTotal: 1, ChunkData: blob, NodeID: 1, ControlNode: 0})
	if e.prog == nil {
		return false
	}
	e.handleCtl(&Msg{Kind: MsgStart})
	udp := func(src, dst NodeEntry) []byte {
		return packet.BuildUDPFrame(src.MAC, dst.MAC, src.IP, dst.IP, packet.UDP{SrcPort: 1, DstPort: 2}, []byte("x"))
	}
	for range 3 {
		e.DeliverUp(&ether.Frame{Data: udp(a, b)})
		e.SendDown(&ether.Frame{Data: udp(b, a)})
		for c := range e.values {
			e.handleCtl(&Msg{Kind: MsgCounterValue, Counter: CounterID(c), Value: 5})
		}
		for t := range e.termStatus {
			e.handleCtl(&Msg{Kind: MsgTermStatus, Term: TermID(t), Status: !e.termStatus[t]})
		}
	}
	_ = s.RunUntil(time.Second)
	return true
}

// TestCorruptInitBlobIsDropped: a bit error in an INIT distribution can
// leave a blob that still gob-decodes into tables whose ids point past
// one another. Every single-byte corruption of fuzzProgram's blob — each
// byte XORed with five masks — is either dropped, as a blob that does not
// decode is, or adopted and run without a panic; the blob itself is
// adopted.
func TestCorruptInitBlobIsDropped(t *testing.T) {
	blob, err := encodeProgram(fuzzProgram())
	if err != nil {
		t.Fatal(err)
	}
	if !adoptAndRun(blob) {
		t.Fatal("the uncorrupted blob was not adopted")
	}
	var adopted, panics int
	for i := range blob {
		for _, mask := range []byte{0x01, 0x02, 0x04, 0x80, 0xff} {
			mutant := append([]byte(nil), blob...)
			mutant[i] ^= mask
			func() {
				defer func() {
					if r := recover(); r != nil {
						if panics++; panics <= 5 {
							t.Errorf("byte %d ^ %#02x: the engine panicked: %v", i, mask, r)
						}
					}
				}()
				if adoptAndRun(mutant) {
					adopted++
				}
			}()
		}
	}
	if panics > 0 {
		t.Errorf("%d of %d corrupted blobs panicked the engine", panics, 5*len(blob))
	}
	t.Logf("%d of %d corrupted blobs adopted", adopted, 5*len(blob))
}

// TestCheckIndicesRefuses: a program that decodes but points an id past
// its table, or whose tuple or condition tree an engine cannot evaluate,
// is dropped — including the cases no single flipped byte produces.
func TestCheckIndicesRefuses(t *testing.T) {
	for name, mutate := range map[string]func(p *Program){
		"tuple-end-overflows": func(p *Program) { p.Filters[0].Tuples[0].Off, p.Filters[0].Tuples[0].Len = math.MaxInt, 2 },
		"tuple-mask-short": func(p *Program) {
			p.Filters[0].Tuples[0] = FilterTuple{Off: 23, Len: 2, Pattern: []byte{0x11, 0}, Mask: []byte{0xff}, Var: -1}
		},
		"tuple-var-unknown": func(p *Program) { p.Filters[0].Tuples[0].Var = 0 },
		"counter-term":      func(p *Program) { p.Counters[0].Terms = []TermID{2} },
		"operand-counter":   func(p *Program) { p.Terms[0].LHS.Counter = -1 },
		"status-node":       func(p *Program) { p.Terms[1].StatusNodes = []NodeID{2} },
		"cond-nil-expr":     func(p *Program) { p.Conds[0].Expr = nil },
		"cond-not-no-kid":   func(p *Program) { p.Conds[0].Expr = &CondExpr{Op: CondNot} },
		"cond-action":       func(p *Program) { p.Conds[1].Actions = []ActionID{2} },
		"counter-action": func(p *Program) {
			p.Actions[0] = ActionEntry{Kind: ActIncrCntr, Node: 1, Counter: -1, Filter: -1, From: -1, To: -1}
		},
		"action-kind": func(p *Program) { p.Actions[0].Kind = 0 },
	} {
		p := fuzzProgram()
		mutate(p)
		blob, err := encodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if adoptAndRun(blob) {
			t.Errorf("%s: the engine adopted the program", name)
		}
	}
}

// FuzzInitBlob: whatever INIT blob reassembles, the engine drops it or
// runs it; it never panics.
func FuzzInitBlob(f *testing.F) {
	blob, err := encodeProgram(fuzzProgram())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, i := range []int{0, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		mutant := append([]byte(nil), blob...)
		mutant[i] ^= 0xff
		f.Add(mutant)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		adoptAndRun(blob)
	})
}
