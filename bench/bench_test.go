package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// resultLine is the last stdout line of a run, as the driver reads it.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runLine(t *testing.T, args ...string) resultLine {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rl resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rl); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return rl
}

// TestSmoke runs every workload for two ops, untraced and traced, and
// holds the output against BENCHMARK.json: every listed metric emitted,
// finite and unit-tagged; nothing emitted that is not listed.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	ladderFrames, ladderRounds = 400, 1

	listed := make(map[string]bool)
	for _, w := range bf.Workloads {
		listed[w.Name] = true
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
		}
	}
	for _, w := range workloads {
		if !listed[w.name] {
			t.Errorf("the program has workload %q, which BENCHMARK.json does not list", w.name)
		}
	}

	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []boundedMetric
		}{{"0", bf.EndToEnd}, {"1", bf.PerLayer}} {
			t.Run(w.name+"/trace"+mode.trace, func(t *testing.T) {
				rl := runLine(t, "-workload", w.name, "-ops", "2", "-setups", "1", "-seed", "3", "-trace", mode.trace)
				if !rl.Correct || rl.Failed != 0 || rl.Attempted < 2 {
					t.Errorf("correct %v, failed %d of %d attempted", rl.Correct, rl.Failed, rl.Attempted)
				}
				for _, d := range mode.defs {
					v, ok := rl.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is listed but was not emitted", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s is not finite", d.Name)
					case mode.trace == "0" && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if len(rl.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics emitted, %d listed", len(rl.Metrics), len(mode.defs))
				}
			})
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the limits of the
// benchmark contract that a typo could break.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		check(w.Name)
	}
	hasSetup := false
	for _, m := range append(append([]boundedMetric{}, bf.EndToEnd...), bf.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not of the allowed form", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	// The program's own lists are what it emits; they must be the file's.
	for _, pair := range []struct {
		defs []metricDef
		file []boundedMetric
	}{{endToEnd, bf.EndToEnd}, {perLayer, bf.PerLayer}} {
		if len(pair.defs) != len(pair.file) {
			t.Errorf("program lists %d metrics, BENCHMARK.json %d", len(pair.defs), len(pair.file))
			continue
		}
		for i, d := range pair.defs {
			if f := pair.file[i]; d.Name != f.Name || d.Unit != f.Unit {
				t.Errorf("metric %d: program has %s [%s], BENCHMARK.json has %s [%s]", i, d.Name, d.Unit, f.Name, f.Unit)
			}
		}
	}
}
