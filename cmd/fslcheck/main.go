// Command fslcheck parses a Fault Specification Language script and
// prints the six tables the VirtualWire front-end compiles it into
// (filter, node, counter, term, condition, action — Figure 3 of the
// paper), followed by the shape of the dispatch tree every engine
// classifies with unless the run charges Cost.PerTuple (tree depth,
// fanout, worst-case tuple comparisons). It is the quickest way to
// validate a script — and to see whether its filter table compiles into
// an effective dispatch tree — before running it.
//
// Usage:
//
//	fslcheck script.fsl [more.fsl ...]
package main

import (
	"fmt"
	"os"

	"virtualwire/internal/core"
	"virtualwire/internal/fsl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fslcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fslcheck script.fsl [more.fsl ...]")
	}
	for _, path := range args {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		progs, err := fsl.CompileAll(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range progs {
			fmt.Printf("=== %s: %s ===\n\n", path, p.Name)
			fmt.Println(p.Dump())
			printDispatchShape(p)
		}
	}
	return nil
}

// printDispatchShape reports the compiled classifier dispatch tree: how
// the engines will classify the filter table, and whether the table has
// discriminating literal fields at all.
func printDispatchShape(p *core.Program) {
	s := p.CompiledDispatch().Shape()
	fmt.Println("COMPILED DISPATCH")
	fmt.Printf("  filters           %d\n", s.Filters)
	fmt.Printf("  tree nodes        %d (%d leaves)\n", s.Nodes, s.Leaves)
	fmt.Printf("  depth             %d\n", s.Depth)
	fmt.Printf("  max fanout        %d\n", s.MaxFanout)
	fmt.Printf("  worst-case tuples %d\n", s.WorstCaseTuples)
	if s.Degenerate() {
		fmt.Println("  WARNING: no discriminating literal field — compiled dispatch degenerates to a linear scan")
	}
	fmt.Println()
}
