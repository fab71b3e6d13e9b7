package fsl

import (
	"os"
	"path/filepath"
	"testing"

	"virtualwire/internal/core"
)

// FuzzCompile feeds the FSL front end what a tenant can: arbitrary
// source text. Whatever it is, CompileAll returns an error or programs,
// never panics; and every program it does return can take the three
// steps CompileScript puts it through before a run — the dispatch tree
// builds, the table dump renders, the INIT blob encodes. Seeded from the
// shipped scripts, read in place.
func FuzzCompile(f *testing.F) {
	for _, pattern := range []string{"../../scripts/*.fsl", "../../bench/testdata/*.fsl"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed scripts under %s (err %v)", pattern, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		progs, err := CompileAll(src)
		if err != nil {
			return
		}
		for _, p := range progs {
			if s := p.CompiledDispatch().Shape(); s.Filters != len(p.Filters) {
				t.Errorf("scenario %q: dispatch tree over %d of %d filters", p.Name, s.Filters, len(p.Filters))
			}
			if p.Dump() == "" {
				t.Errorf("scenario %q: empty table dump", p.Name)
			}
			if _, err := core.EncodeProgram(p); err != nil {
				t.Errorf("scenario %q: %v", p.Name, err)
			}
		}
	})
}
