package core

import (
	"bytes"

	"virtualwire/internal/ether"
)

// Strategy is how a classifier searches the filter table. Both
// strategies pick the same winning filter and commit the same bindings
// for every frame; they differ only in work per packet (see
// docs/PERFORMANCE.md, "Classifier"). No configuration selects one: an
// engine reads it off its cost model (Engine.load).
type Strategy int

const (
	// StrategyCompiled, the zero value, walks the program's compiled
	// dispatch tree (dispatch.go): flat in #filters.
	StrategyCompiled Strategy = iota
	// StrategyLinear is the paper's: a scan in table order with
	// first-match priority ("the current VirtualWire implementation
	// searches linearly through the packet type definitions", Section 7 —
	// the cause of Figure 8's linear overhead growth). Its per-frame tuple
	// count, short-circuits included, is what CostModel.PerTuple charges,
	// and it is the oracle of the equivalence property test.
	StrategyLinear
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyCompiled:
		return "compiled"
	case StrategyLinear:
		return "linear"
	}
	return "unknown"
}

// Classifier matches raw frames against the filter table under one of the
// two strategies above. Matching stages variable bindings and commits only
// the winning filter's, so compiled dispatch reproduces linear first-match
// semantics exactly.
type Classifier struct {
	filters []FilterEntry
	// vars holds the run-time bindings of VAR-referenced tuples; nil
	// means unbound. Bindings are engine-local.
	vars [][]byte

	// Strategy selects the search.
	Strategy Strategy

	// dispatch is the program's compiled decision tree, shared immutably
	// by every classifier over the program.
	dispatch *Dispatch

	// TuplesCompared counts tuple comparisons (the unit of the Figure 8
	// cost model).
	TuplesCompared uint64
	// FiltersScanned counts filter entries visited. Compiled dispatch
	// scans a subset of the linear scan's filters for every frame.
	FiltersScanned uint64
	// NodeTests counts dispatch-tree field probes (compiled strategy
	// only), kept apart from TuplesCompared so the per-filter comparison
	// counts stay strategy-monotone.
	NodeTests uint64

	// scratch holds the not-yet-committed variable bindings of the filter
	// currently being matched. Classification is strictly sequential per
	// engine, so one reusable slice replaces per-call allocations on the
	// interception hot path.
	scratch []binding
}

// binding is a variable binding pending commit until the whole filter
// matches and wins.
type binding struct {
	v   VarID
	val []byte
}

// NewClassifier builds a classifier over the program's filter table and
// its shared dispatch tree (built on the program's first use).
func NewClassifier(p *Program) *Classifier {
	return &Classifier{
		filters:  p.Filters,
		vars:     make([][]byte, len(p.Vars)),
		dispatch: p.CompiledDispatch(),
	}
}

// Reset clears all run-time state — variable bindings and work counters —
// so the classifier can be reused for a fresh run over the same filter
// table.
func (c *Classifier) Reset() {
	for i := range c.vars {
		c.vars[i] = nil
	}
	c.TuplesCompared = 0
	c.FiltersScanned = 0
	c.NodeTests = 0
	c.scratch = c.scratch[:0]
}

// VarBinding returns the current binding of a variable (nil if unbound).
func (c *Classifier) VarBinding(v VarID) []byte {
	if int(v) >= len(c.vars) {
		return nil
	}
	return c.vars[v]
}

// Classify returns the first matching filter, or -1. Variable tuples
// match unconditionally while unbound and bind (engine-locally) when the
// whole filter matches AND wins first-match priority; once bound they
// require byte equality.
func (c *Classifier) Classify(fr *ether.Frame) FilterID {
	if c.Strategy == StrategyCompiled {
		return c.classifyCompiled(fr)
	}
	for i := range c.filters {
		c.FiltersScanned++
		if c.match(i, fr) {
			c.commit()
			return FilterID(i)
		}
	}
	return -1
}

func (c *Classifier) classifyCompiled(fr *ether.Frame) FilterID {
	d := c.dispatch
	if len(d.nodes) == 0 {
		return -1
	}
	ni := int32(0)
	for {
		n := &d.nodes[ni]
		if n.length == 0 {
			for _, i := range n.candidates {
				c.FiltersScanned++
				if c.match(int(i), fr) {
					c.commit()
					return FilterID(i)
				}
			}
			return -1
		}
		c.NodeTests++
		next := n.miss
		if end := n.off + n.length; end <= len(fr.Data) {
			if ch, ok := n.edges[packField(fr.Data[n.off:end])]; ok {
				next = ch
			}
		}
		if next < 0 {
			return -1
		}
		ni = next
	}
}

// match applies all tuples of filter i, staging any new variable bindings
// in c.scratch without committing them. The caller commits the winner's
// via commit.
func (c *Classifier) match(i int, fr *ether.Frame) bool {
	f := &c.filters[i]
	pending := c.scratch[:0]
	for ti := range f.Tuples {
		tu := &f.Tuples[ti]
		c.TuplesCompared++
		end := tu.Off + tu.Len
		if end > len(fr.Data) {
			c.scratch = pending
			return false
		}
		field := fr.Data[tu.Off:end]
		if tu.Var >= 0 {
			bound := c.vars[tu.Var]
			if bound == nil {
				// The copy still allocates, but only on the first
				// binding of a variable — never per packet.
				cp := make([]byte, len(field))
				copy(cp, field)
				pending = append(pending, binding{tu.Var, cp})
				continue
			}
			if !bytesEqualMasked(field, bound, tu.Mask) {
				c.scratch = pending
				return false
			}
			continue
		}
		if !bytesEqualMasked(field, tu.Pattern, tu.Mask) {
			c.scratch = pending
			return false
		}
	}
	c.scratch = pending
	return true
}

// commit installs the staged bindings of the filter match just returned
// by match.
func (c *Classifier) commit() {
	for _, b := range c.scratch {
		c.vars[b.v] = b.val
	}
	c.scratch = c.scratch[:0]
}

func bytesEqualMasked(got, want, mask []byte) bool {
	if mask == nil {
		return bytes.Equal(got, want)
	}
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i]&mask[i] != want[i]&mask[i] {
			return false
		}
	}
	return true
}
