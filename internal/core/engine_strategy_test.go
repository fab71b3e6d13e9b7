package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// strategyScript exercises, through one engine, everything that hangs off
// a classification: a VAR-bound filter ahead of the literal one it
// shadows, DUP of the bound value's retransmission, MODIFY, and a FAIL
// reached through a local counter that a RESET/INCR cascade feeds.
const strategyScript = `
VAR Seq;
FILTER_TABLE
bound: (23 1 0x11), (36 2 0x1b58), (42 2 Seq)
data:  (23 1 0x11), (36 2 0x1b58)
mod:   (23 1 0x11), (36 2 0x1b59)
quiet: (23 1 0x11), (36 2 0x1b5a)
END
NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END
SCENARIO both_searches
RT:    (bound, node1, node2, RECV)
DATA:  (data, node1, node2, RECV)
MOD:   (mod, node1, node2, RECV)
TOTAL: (node2)
(TRUE) >> ENABLE_CNTR( RT ); ENABLE_CNTR( DATA ); ENABLE_CNTR( MOD );
          ASSIGN_CNTR( TOTAL, 0 );
((RT = 2)) >> DUP( bound, node1, node2, RECV );
((MOD = 2)) >> MODIFY( mod, node1, node2, RECV, 42, 0xdead );
((DATA = 1)) >> RESET_CNTR( DATA ); INCR_CNTR( TOTAL, 1 );
((TOTAL = 6)) >> FAIL( node2 );
END`

// engineTrace is everything one engine lets a test observe.
type engineTrace struct {
	Delivered [][]byte
	Stats     core.EngineStats
	Faults    []core.FaultEvent
	Counters  map[string]int64
	Seq       []byte
	Failed    bool
}

type recordUp struct{ frames *[][]byte }

func (r recordUp) DeliverUp(fr *ether.Frame) {
	*r.frames = append(*r.frames, append([]byte(nil), fr.Data...))
}

// runUnder drives a standalone engine at node2 with the same seeded frame
// sequence under the forced strategy.
func runUnder(t *testing.T, prog *core.Program, strategy core.Strategy) (engineTrace, [3]uint64) {
	t.Helper()
	s := sim.NewScheduler(1)
	eng := core.NewEngine(s, prog.Nodes[1].MAC)
	var tr engineTrace
	eng.SetBelow(nullDown{})
	eng.SetAbove(recordUp{&tr.Delivered})
	eng.LoadLocal(prog, 1, 0)
	eng.ForceStrategy(strategy)
	eng.Activate()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		port := uint16(7000 + rng.Intn(5)) // 7003 and 7004 match nothing
		payload := []byte{byte(rng.Intn(3)), byte(rng.Intn(2)), 'x', 'y'}
		fr := packet.BuildUDPFrame(prog.Nodes[0].MAC, prog.Nodes[1].MAC,
			prog.Nodes[0].IP, prog.Nodes[1].IP,
			packet.UDP{SrcPort: 5000, DstPort: port}, payload)
		if i%17 == 0 {
			fr = fr[:30] // too short for any port tuple
		}
		eng.DeliverUp(&ether.Frame{Data: fr})
		if err := s.RunUntil(s.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	tr.Stats = eng.Stats
	tr.Faults = eng.FaultLog()
	tr.Counters = make(map[string]int64)
	for _, c := range prog.Counters {
		tr.Counters[c.Name], _ = eng.CounterValueByName(c.Name)
	}
	tr.Seq = eng.VarBinding(0)
	tr.Failed = eng.Failed()
	f, tu, p := eng.ClassifierWork()
	return tr, [3]uint64{f, tu, p}
}

// An engine is the same engine under either search: every frame it lets
// through (bytes and order), every stat, fault, counter and binding. Only
// the classifier's own work differs, which is why nothing but
// Cost.PerTuple may depend on it.
func TestEngineLinearEqualsCompiled(t *testing.T) {
	prog, err := fsl.Compile(strategyScript)
	if err != nil {
		t.Fatal(err)
	}
	lin, linWork := runUnder(t, prog, core.StrategyLinear)
	cmp, cmpWork := runUnder(t, prog, core.StrategyCompiled)
	if !reflect.DeepEqual(lin, cmp) {
		t.Errorf("engine observables differ:\nlinear   %+v\ncompiled %+v", lin, cmp)
	}
	// The run must have reached every mechanism, or equality says little.
	st := lin.Stats
	if st.Dups == 0 || st.Modifies == 0 || !lin.Failed || st.FailConsumed == 0 || lin.Seq == nil {
		t.Errorf("script did not exercise DUP/MODIFY/FAIL/VAR: %+v seq=%x", st, lin.Seq)
	}
	modified := false
	for _, d := range lin.Delivered {
		if len(d) > 43 && bytes.Equal(d[42:44], []byte{0xde, 0xad}) {
			modified = true
		}
	}
	if !modified {
		t.Error("no delivered frame carries the MODIFY pattern")
	}
	if linWork[2] != 0 || cmpWork[2] == 0 || cmpWork[0] >= linWork[0] {
		t.Errorf("work (filters, tuples, probes): linear %v, compiled %v — the two runs did not take different searches", linWork, cmpWork)
	}
}

// load reads the search off the cost model, again on every load: a
// reused engine whose cost model changed must not keep the old search.
func TestLoadPicksStrategyFromCost(t *testing.T) {
	prog, err := fsl.Compile(strategyScript)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(sim.NewScheduler(1), prog.Nodes[1].MAC)
	for _, c := range []struct {
		cost core.CostModel
		want core.Strategy
	}{
		{core.CostModel{}, core.StrategyCompiled},
		{core.CostModel{PerTuple: time.Nanosecond}, core.StrategyLinear},
		{core.CostModel{Base: time.Microsecond, PerAction: time.Microsecond}, core.StrategyCompiled},
		{core.CostModel{Base: time.Microsecond, PerTuple: time.Nanosecond}, core.StrategyLinear},
	} {
		eng.Cost = c.cost
		eng.LoadLocal(prog, 1, 0)
		if got := eng.ClassifierStrategy(); got != c.want {
			t.Errorf("Cost %+v: engine runs the %v search, want %v", c.cost, got, c.want)
		}
	}
}

// Engines that receive the controller's pre-staged blob over the wire
// adopt the one program they were seeded with, and with it the one
// dispatch tree: a testbed builds no tree per engine.
func TestSeededEnginesShareProgramAndDispatch(t *testing.T) {
	r := newRig(t, 9, 4, header(4, 3)+`
SCENARIO shared
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
END`)
	blob, err := core.EncodeProgram(r.prog)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl.SetInitBlob(blob)
	for _, e := range r.engines {
		e.SeedProgramCache(blob, r.prog)
	}
	r.launch(t)
	for i, e := range r.engines {
		if e.LoadedProgram() != r.prog {
			t.Errorf("engine %d decoded a private program", i)
		}
		if e.LoadedDispatch() != r.prog.CompiledDispatch() {
			t.Errorf("engine %d holds a private dispatch tree", i)
		}
	}
}
