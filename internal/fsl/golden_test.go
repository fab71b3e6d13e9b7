package fsl

import (
	"os"
	"testing"
)

// TestGoldenTableDumps pins the compiled six-table form of the paper's
// two case-study scripts. Any semantic change to the compiler — counter
// homes, term dedup, dependency wiring, action executors — shows up as a
// diff here. Regenerate deliberately with:
//
//	go run ./cmd/vwire -script scripts/<name>.fsl -tables  (and update testdata)
func TestGoldenTableDumps(t *testing.T) {
	for _, name := range []string{"fig5_tcp_ss_ca", "fig6_rether_failure"} {
		name := name
		t.Run(name, func(t *testing.T) {
			src := readScript(t, name+".fsl")
			p, err := Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			want, err := os.ReadFile("testdata/" + name + ".tables.golden")
			if err != nil {
				t.Fatalf("golden: %v", err)
			}
			if got := p.Dump(); got != string(want) {
				t.Errorf("table dump diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s",
					got, want)
			}
		})
	}
}
