package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"virtualwire/internal/core"
	"virtualwire/internal/fsl"
)

// TestScriptProgramsDecode: every script the repository ships compiles to
// a program that survives the INIT blob's round trip, index checks
// included, so an engine adopts it off the wire.
func TestScriptProgramsDecode(t *testing.T) {
	var files []string
	for _, dir := range []string{"../../scripts", "../../bench/testdata"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.fsl"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	compiled := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := fsl.Compile(string(src))
		if err != nil {
			continue // a prologue, completed by the suites that include it
		}
		compiled++
		blob, err := core.EncodeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.DecodeProgram(blob); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
	if compiled < 6 {
		t.Fatalf("%d of %d scripts compiled, want at least 6", compiled, len(files))
	}
}
