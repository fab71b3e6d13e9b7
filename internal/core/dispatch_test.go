package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
)

// Guards compiled dispatch against committing a non-winner's bindings: a
// filter reached through its ethertype edge must not commit its VAR
// bindings when a lower-index residual filter (no literal at the split
// field, so merged into every child) wins first-match priority.
func TestCompiledDoesNotCommitLosingBindings(t *testing.T) {
	p := &Program{
		Vars: []string{"winner_var", "loser_var"},
		Filters: []FilterEntry{
			// Filter 0: no ethertype literal -> residual. Binds var 0.
			{Name: "any_wins", Tuples: []FilterTuple{
				{Off: 20, Len: 1, Pattern: []byte{0xAA}, Var: -1},
				{Off: 30, Len: 2, Var: 0},
			}},
			// Filter 1: ethertype-keyed -> edge. Binds var 1. Matches
			// the same frame but loses on priority.
			{Name: "keyed_loses", Tuples: []FilterTuple{
				{Off: 12, Len: 2, Pattern: []byte{0x08, 0x00}, Var: -1},
				{Off: 32, Len: 2, Var: 1},
			}},
		},
	}
	fr := &ether.Frame{Data: make([]byte, 64)}
	fr.Data[12], fr.Data[13] = 0x08, 0x00
	fr.Data[20] = 0xAA
	fr.Data[30], fr.Data[31] = 0x11, 0x22
	fr.Data[32], fr.Data[33] = 0x33, 0x44

	for _, strat := range []Strategy{StrategyLinear, StrategyCompiled} {
		c := NewClassifier(p)
		c.Strategy = strat
		if got := c.Classify(fr); got != 0 {
			t.Fatalf("%v: classified %d, want 0 (first-match priority)", strat, got)
		}
		if c.VarBinding(0) == nil {
			t.Errorf("%v: winner's variable not bound", strat)
		}
		if b := c.VarBinding(1); b != nil {
			t.Errorf("%v: losing filter's variable committed: %x", strat, b)
		}
	}
}

// randProgram generates a filter table exercising literals, masks and VAR
// tuples at colliding and disjoint offsets.
func randProgram(rng *rand.Rand) *Program {
	nVars := 1 + rng.Intn(3)
	vars := make([]string, nVars)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	nFilters := 1 + rng.Intn(12)
	filters := make([]FilterEntry, nFilters)
	for i := range filters {
		nTuples := 1 + rng.Intn(3)
		tuples := make([]FilterTuple, nTuples)
		for j := range tuples {
			// Offsets drawn from a small set so filters share fields
			// (discriminators) often; lengths 1 or 2.
			off := []int{12, 14, 20, 30, 58}[rng.Intn(5)]
			ln := 1 + rng.Intn(2)
			switch rng.Intn(4) {
			case 0: // VAR tuple
				tuples[j] = FilterTuple{Off: off, Len: ln, Var: VarID(rng.Intn(nVars))}
			case 1: // masked literal
				mask := make([]byte, ln)
				pat := make([]byte, ln)
				for k := range mask {
					mask[k] = byte(rng.Intn(256))
					pat[k] = byte(rng.Intn(4)) & mask[k]
				}
				tuples[j] = FilterTuple{Off: off, Len: ln, Mask: mask, Pattern: pat, Var: -1}
			default: // exact literal from a tiny alphabet (collisions likely)
				pat := make([]byte, ln)
				for k := range pat {
					pat[k] = byte(rng.Intn(4))
				}
				tuples[j] = FilterTuple{Off: off, Len: ln, Pattern: pat, Var: -1}
			}
		}
		filters[i] = FilterEntry{Name: fmt.Sprintf("f%d", i), Tuples: tuples}
	}
	return &Program{Vars: vars, Filters: filters}
}

// randFrame biases bytes toward the filters' tiny literal alphabet so
// matches actually occur; some frames are short.
func randFrame(rng *rand.Rand) *ether.Frame {
	n := 60 + rng.Intn(8)
	if rng.Intn(8) == 0 {
		n = 10 + rng.Intn(30) // short frame: exercises the residual path
	}
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	return &ether.Frame{Data: data}
}

// Property: the linear and compiled strategies agree on the winning
// filter and the committed bindings over randomized tables and frame
// sequences, and compiled never scans more filters or compares more
// per-filter tuples than linear.
func TestClassifierStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	for trial := 0; trial < 400; trial++ {
		p := randProgram(rng)
		lin := NewClassifier(p)
		lin.Strategy = StrategyLinear
		cmp := NewClassifier(p)
		cmp.Strategy = StrategyCompiled

		for fi := 0; fi < 30; fi++ {
			fr := randFrame(rng)
			linBefore := struct{ t, f uint64 }{lin.TuplesCompared, lin.FiltersScanned}
			cmpBefore := struct{ t, f uint64 }{cmp.TuplesCompared, cmp.FiltersScanned}
			want := lin.Classify(fr)
			if got := cmp.Classify(fr); got != want {
				t.Fatalf("trial %d frame %d: linear=%d compiled=%d\ntable: %+v",
					trial, fi, want, got, p.Filters)
			}
			for v := range p.Vars {
				lb, cb := lin.VarBinding(VarID(v)), cmp.VarBinding(VarID(v))
				if !bytes.Equal(lb, cb) {
					t.Fatalf("trial %d frame %d: var %d bindings diverge: linear=%x compiled=%x",
						trial, fi, v, lb, cb)
				}
			}
			if cs, ls := cmp.FiltersScanned-cmpBefore.f, lin.FiltersScanned-linBefore.f; cs > ls {
				t.Fatalf("trial %d frame %d: compiled scanned %d filters, linear %d", trial, fi, cs, ls)
			}
			if ct, lt := cmp.TuplesCompared-cmpBefore.t, lin.TuplesCompared-linBefore.t; ct > lt {
				t.Fatalf("trial %d frame %d: compiled compared %d tuples, linear %d", trial, fi, ct, lt)
			}
		}
	}
}

// The dispatch tree is shared immutably: concurrent classifiers over the
// same Program (the campaign-worker shape) must not race — run under
// go test -race.
func TestDispatchSharedAcrossGoroutines(t *testing.T) {
	p := fig2Program()
	var wg sync.WaitGroup
	results := make([]FilterID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClassifier(p)
			c.Strategy = StrategyCompiled
			fr := tcpFrame(0x4000, 0x6000, 100, 200, packet.TCPAck)
			var last FilterID
			for i := 0; i < 200; i++ {
				last = c.Classify(fr)
			}
			results[g] = last
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r != results[0] {
			t.Fatalf("goroutine %d classified %d, want %d", g, r, results[0])
		}
	}
}

func TestDispatchShape(t *testing.T) {
	p := fig2Program()
	s := p.CompiledDispatch().Shape()
	if s.Filters != 6 {
		t.Fatalf("shape filters = %d, want 6", s.Filters)
	}
	if s.Nodes < 1 || s.Leaves < 1 {
		t.Fatalf("degenerate shape: %+v", s)
	}
	// Ports (34,2)/(36,2) are exact literals: the tree must split on one
	// of them rather than collapsing into a single all-filters leaf.
	if s.Degenerate() {
		t.Fatalf("fig2 table compiled to a degenerate tree: %+v", s)
	}
}

// sweepProgram builds an n-filter table in the Figure 8 style: shared
// ethertype/protocol literals plus one discriminating destination-port
// literal per filter. The probe frame matches only the last filter — the
// linear scan's worst case.
func sweepProgram(n int) *Program {
	filters := make([]FilterEntry, n)
	for i := range filters {
		port := 0x4000 + i
		filters[i] = FilterEntry{
			Name: fmt.Sprintf("udp_port_%d", port),
			Tuples: []FilterTuple{
				{Off: 12, Len: 2, Pattern: []byte{0x08, 0x00}, Var: -1},
				{Off: 23, Len: 1, Pattern: []byte{0x11}, Var: -1},
				{Off: 36, Len: 2, Pattern: []byte{byte(port >> 8), byte(port)}, Var: -1},
			},
		}
	}
	return &Program{Filters: filters}
}

func sweepFrame(n int) *ether.Frame {
	data := make([]byte, 64)
	data[12], data[13] = 0x08, 0x00
	data[23] = 0x11
	port := 0x4000 + n - 1
	data[36], data[37] = byte(port>>8), byte(port)
	return &ether.Frame{Data: data}
}

// The compiled classifier is flat in the filter count, and counts say so
// exactly where a timing would only say so roughly: on the sweep table,
// every Classify scans 1 filter, compares its 3 tuples and makes 1
// dispatch probe at 8, 64 and 512 filters. (The linear scan visits 8, 64
// and 512 filters.) A tree that degenerates into a residual scan fails
// here.
func TestCompiledDispatchIsFlat(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		c := NewClassifier(sweepProgram(n))
		c.Strategy = StrategyCompiled
		fr := sweepFrame(n)
		const calls = 3
		for i := 0; i < calls; i++ {
			if got := c.Classify(fr); got != FilterID(n-1) {
				t.Fatalf("n=%d: classified %d, want %d", n, got, n-1)
			}
		}
		if c.FiltersScanned != calls || c.TuplesCompared != 3*calls || c.NodeTests != calls {
			t.Errorf("n=%d: %d classifies scanned %d filters, compared %d tuples, made %d probes; want 1, 3 and 1 each",
				n, calls, c.FiltersScanned, c.TuplesCompared, c.NodeTests)
		}
	}
}

// BenchmarkClassifierSize sweeps table size x strategy (the work counts
// behind the compiled row are pinned by TestCompiledDispatchIsFlat), and
// bench.sh records the full sweep into BENCH_core.json.
func BenchmarkClassifierSize(b *testing.B) {
	for _, strat := range []Strategy{StrategyLinear, StrategyCompiled} {
		for _, n := range []int{8, 64, 512} {
			b.Run(fmt.Sprintf("%s/n%d", strat, n), func(b *testing.B) {
				p := sweepProgram(n)
				c := NewClassifier(p)
				c.Strategy = strat
				fr := sweepFrame(n)
				want := FilterID(n - 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if c.Classify(fr) != want {
						b.Fatal("wrong filter")
					}
				}
			})
		}
	}
}
