package core

import (
	"fmt"
	"strings"
)

// Dump renders the six tables in a human-readable layout (printed by
// vwire -tables and pinned by the compiler's golden tests). The format
// mirrors Figure 3's table organization.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO %s", p.Name)
	if p.InactivityTimeout > 0 {
		fmt.Fprintf(&b, " (inactivity timeout %v)", p.InactivityTimeout)
	}
	b.WriteString("\n")

	if len(p.Vars) > 0 {
		fmt.Fprintf(&b, "\nVARS: %s\n", strings.Join(p.Vars, ", "))
	}

	b.WriteString("\nFILTER TABLE\n")
	for i, f := range p.Filters {
		fmt.Fprintf(&b, "  [%d] %s:", i, f.Name)
		for _, tu := range f.Tuples {
			if tu.Var >= 0 {
				fmt.Fprintf(&b, " (%d %d $%s)", tu.Off, tu.Len, p.Vars[tu.Var])
				continue
			}
			if tu.Mask != nil {
				fmt.Fprintf(&b, " (%d %d 0x%x 0x%x)", tu.Off, tu.Len, tu.Mask, tu.Pattern)
				continue
			}
			fmt.Fprintf(&b, " (%d %d 0x%x)", tu.Off, tu.Len, tu.Pattern)
		}
		b.WriteString("\n")
	}

	b.WriteString("\nNODE TABLE\n")
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "  [%d] %s %s %s\n", i, n.Name, n.MAC, n.IP)
	}

	b.WriteString("\nCOUNTER TABLE\n")
	for i, c := range p.Counters {
		if c.Kind == CounterLocal {
			fmt.Fprintf(&b, "  [%d] %s: local @%s", i, c.Name, p.Nodes[c.Home].Name)
		} else {
			fmt.Fprintf(&b, "  [%d] %s: %s %s->%s %s @%s", i, c.Name,
				p.Filters[c.Filter].Name, p.Nodes[c.From].Name, p.Nodes[c.To].Name,
				c.Dir, p.Nodes[c.Home].Name)
		}
		if len(c.Terms) > 0 {
			fmt.Fprintf(&b, " terms=%v", c.Terms)
		}
		if len(c.RemoteNodes) > 0 {
			fmt.Fprintf(&b, " pushTo=%v", c.RemoteNodes)
		}
		b.WriteString("\n")
	}

	b.WriteString("\nTERM TABLE\n")
	for i, t := range p.Terms {
		fmt.Fprintf(&b, "  [%d] %s %s %s @%s", i,
			p.operandName(t.LHS), t.Op, p.operandName(t.RHS), p.Nodes[t.Home].Name)
		if len(t.Conds) > 0 {
			fmt.Fprintf(&b, " conds=%v", t.Conds)
		}
		if len(t.StatusNodes) > 0 {
			fmt.Fprintf(&b, " statusTo=%v", t.StatusNodes)
		}
		b.WriteString("\n")
	}

	b.WriteString("\nCONDITION TABLE\n")
	for i, c := range p.Conds {
		fmt.Fprintf(&b, "  [%d] rule %d: %s -> actions=%v eval@", i, c.Rule, p.exprString(c.Expr), c.Actions)
		names := make([]string, 0, len(c.EvalNodes))
		for _, n := range c.EvalNodes {
			names = append(names, p.Nodes[n].Name)
		}
		b.WriteString(strings.Join(names, ","))
		b.WriteString("\n")
	}

	b.WriteString("\nACTION TABLE\n")
	for i, a := range p.Actions {
		fmt.Fprintf(&b, "  [%d] %s @%s", i, a.Kind, p.Nodes[a.Node].Name)
		switch a.Kind {
		case ActDrop, ActDelay, ActReorder, ActDup, ActModify:
			fmt.Fprintf(&b, " %s %s->%s %s", p.Filters[a.Filter].Name,
				p.Nodes[a.From].Name, p.Nodes[a.To].Name, a.Dir)
			if a.Kind == ActDelay {
				fmt.Fprintf(&b, " %v", a.Duration)
			}
			if a.Kind == ActReorder {
				fmt.Fprintf(&b, " n=%d order=%v", a.Count, a.Order)
			}
			if a.Kind == ActModify && len(a.Pattern) > 0 {
				fmt.Fprintf(&b, " @%d=0x%x", a.PatternOff, a.Pattern)
			}
		case ActAssignCntr, ActIncrCntr, ActDecrCntr:
			fmt.Fprintf(&b, " %s %d", p.Counters[a.Counter].Name, a.Value)
		case ActEnableCntr, ActDisableCntr, ActResetCntr, ActSetCurTime, ActElapsedTime:
			fmt.Fprintf(&b, " %s", p.Counters[a.Counter].Name)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DumpDispatch renders the shape of the compiled classifier dispatch
// tree — how every engine classifies the filter table unless the run
// charges Cost.PerTuple — and warns when the table has no discriminating
// literal field at all. vwire -tables prints it after Dump.
func (p *Program) DumpDispatch() string {
	s := p.CompiledDispatch().Shape()
	var b strings.Builder
	b.WriteString("COMPILED DISPATCH\n")
	fmt.Fprintf(&b, "  filters           %d\n", s.Filters)
	fmt.Fprintf(&b, "  tree nodes        %d (%d leaves)\n", s.Nodes, s.Leaves)
	fmt.Fprintf(&b, "  depth             %d\n", s.Depth)
	fmt.Fprintf(&b, "  max fanout        %d\n", s.MaxFanout)
	fmt.Fprintf(&b, "  worst-case tuples %d\n", s.WorstCaseTuples)
	if s.Degenerate() {
		b.WriteString("  WARNING: no discriminating literal field — compiled dispatch degenerates to a linear scan\n")
	}
	return b.String()
}

func (p *Program) operandName(o Operand) string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return p.Counters[o.Counter].Name
}

func (p *Program) exprString(x *CondExpr) string {
	switch x.Op {
	case CondTrue:
		return "TRUE"
	case CondTerm:
		t := p.Terms[x.Term]
		return fmt.Sprintf("(%s %s %s)", p.operandName(t.LHS), t.Op, p.operandName(t.RHS))
	case CondAnd:
		return fmt.Sprintf("(%s && %s)", p.exprString(x.Kids[0]), p.exprString(x.Kids[1]))
	case CondOr:
		return fmt.Sprintf("(%s || %s)", p.exprString(x.Kids[0]), p.exprString(x.Kids[1]))
	case CondNot:
		return fmt.Sprintf("!%s", p.exprString(x.Kids[0]))
	}
	return "?"
}
