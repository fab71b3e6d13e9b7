package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Both figures through the CLI at one worker and at four: the printed
// tables and the -metrics-out file must not depend on -parallel, and the
// file holds one sampled series per sub-run.
func TestParallelDoesNotChangeOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	sweep := func(parallel string) (stdout, metrics []byte) {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{"-fig", "all", "-rates", "20,95", "-duration", "100ms",
			"-pings", "40", "-filters", "1,25", "-metrics-out", out, "-parallel", parallel}, &buf)
		if err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		metrics, err = os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), metrics
	}
	stdout1, metrics1 := sweep("1")
	stdout4, metrics4 := sweep("4")
	if !bytes.Equal(stdout1, stdout4) {
		t.Errorf("stdout depends on -parallel:\n%s\nvs\n%s", stdout1, stdout4)
	}
	if !bytes.Equal(metrics1, metrics4) {
		t.Error("-metrics-out file depends on -parallel")
	}
	for _, want := range []string{"Figure 7", "Figure 8", "(13 sub-runs)"} {
		if !strings.Contains(string(stdout1), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout1)
		}
	}

	var file struct {
		Runs []struct {
			Label  string `json:"label"`
			Series struct {
				Points []json.RawMessage `json:"points"`
			} `json:"series"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(metrics1, &file); err != nil {
		t.Fatal(err)
	}
	// Fig 7: 2 rates x 3 curves; Fig 8: the shared baseline + 2 counts x 3.
	if len(file.Runs) != 2*3+1+2*3 {
		t.Fatalf("%d runs in the metrics file, want 13", len(file.Runs))
	}
	if first, fig8 := file.Runs[0].Label, file.Runs[6].Label; first != "baseline@20Mbps" || fig8 != "baseline" {
		t.Errorf("labels: first %q, first of Fig 8 %q", first, fig8)
	}
	for _, r := range file.Runs {
		if len(r.Series.Points) == 0 {
			t.Errorf("%s: no sampled points", r.Label)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	err := run([]string{"-fig", "9"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), `unknown -fig "9"`) {
		t.Errorf("err = %v, want the unknown -fig error", err)
	}
}
