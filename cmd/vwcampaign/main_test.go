package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A flag the chosen mode would ignore is refused by name, before any
// output exists.
func TestRefusesIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "s.json")
	if err := os.WriteFile(spec, []byte(`{"name": "s", "hosts": 2, "horizon": "1ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.jsonl")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", spec, "-shards", "4", "-ber", "1e-3", "-tcp", "a:1-b:2:3"}, "-spec runs the spec as written: it takes no -ber, -tcp, -shards"},
		{[]string{"-spec", spec, "-seed", "2", "-metrics-interval", "1ms"}, "it takes no -seed, -metrics-interval"},
		{[]string{"-fig", "8", "-shards", "2", "-medium", "bus"}, "-fig runs the paper's parameters in process: it takes no -medium, -shards"},
		{[]string{"-fig", "8", "-addr", "127.0.0.1:1"}, "it takes no -addr"},
		{[]string{"-fig", "8", "-spec", spec}, "it takes no -spec"},
		{[]string{"-tenant", "x", "-spec", spec}, "require -addr"},
		{[]string{"-script", "x.fsl", "-summary", "yaml"}, `unknown -summary "yaml"`},
	} {
		var stdout, stderr bytes.Buffer
		code, err := run(append(c.args, "-out", out), &stdout, &stderr)
		if code != 1 || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: exit %d, err %v; want exit 1 and %q", c.args, code, err, c.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed %q", c.args, stdout.String())
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%v: created -out before refusing", c.args)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	code, err := run([]string{"-fig", "9"}, new(bytes.Buffer), new(bytes.Buffer))
	if code != 1 || err == nil || !strings.Contains(err.Error(), `unknown -fig "9"`) {
		t.Errorf("exit %d, err = %v, want the unknown -fig error", code, err)
	}
}

// Figure 8 at the paper's parameters on one worker and on four: the
// printed table and summary and the -out records must not depend on
// -workers, and -metrics-interval puts a sampled series on every record.
func TestParallelDoesNotChangeOutput(t *testing.T) {
	dir := t.TempDir()
	sweep := func(workers string) (stdout, records []byte) {
		t.Helper()
		out := filepath.Join(dir, "w"+workers+".jsonl")
		var buf bytes.Buffer
		code, err := run([]string{"-fig", "8", "-workers", workers, "-metrics-interval", "50ms", "-out", out}, &buf, new(bytes.Buffer))
		if code != 0 || err != nil {
			t.Fatalf("-workers %s: exit %d, %v", workers, code, err)
		}
		records, err = os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), records
	}
	stdout1, records1 := sweep("1")
	stdout4, records4 := sweep("4")
	if !bytes.Equal(stdout1, stdout4) {
		t.Errorf("stdout depends on -workers:\n%s\nvs\n%s", stdout1, stdout4)
	}
	if !bytes.Equal(records1, records4) {
		t.Error("-out records depend on -workers")
	}
	if !strings.HasPrefix(string(stdout1), "Figure 8") {
		t.Errorf("stdout does not open with the Figure 8 table:\n%s", stdout1)
	}

	lines := strings.Split(strings.TrimSuffix(string(records1), "\n"), "\n")
	// The shared baseline + 6 filter counts x 3 curves.
	if len(lines) != 1+6*3 {
		t.Fatalf("%d records, want 19", len(lines))
	}
	for _, l := range lines {
		var r struct {
			Label  string `json:"label"`
			Series struct {
				Points []json.RawMessage `json:"points"`
			} `json:"series"`
		}
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Series.Points) == 0 {
			t.Errorf("%s: no sampled points", r.Label)
		}
	}
}

// Each -ber value labels its config trimmed, however the list is spaced.
func TestBerLabelsAreTrimmed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.jsonl")
	code, err := run([]string{"-hosts", "2", "-horizon", "1ms", "-ber", "0, 1e-6", "-summary", "none", "-out", out},
		new(bytes.Buffer), new(bytes.Buffer))
	if code != 0 || err != nil {
		t.Fatalf("exit %d, %v", code, err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"label":"ber=1e-6`) || strings.Contains(string(raw), "ber= ") {
		t.Errorf("labels not trimmed:\n%s", raw)
	}
}

func TestParseShards(t *testing.T) {
	if k, err := parseShards("auto"); err != nil || k >= 0 {
		t.Errorf("auto = %d, %v", k, err)
	}
	if k, err := parseShards("4"); err != nil || k != 4 {
		t.Errorf("4 = %d, %v", k, err)
	}
	for _, bad := range []string{"", "x", "-1", "1.5", "Auto"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) succeeded", bad)
		}
	}
}

func TestParseTopology(t *testing.T) {
	if topo, err := parseTopology("fattree:4"); err != nil || topo.Kind != "fattree" || topo.FatTreeK != 4 || topo.Switches != 0 {
		t.Errorf("fattree:4 = %+v, %v", topo, err)
	}
	if topo, err := parseTopology("ring:3"); err != nil || topo.Kind != "ring" || topo.Switches != 3 {
		t.Errorf("ring:3 = %+v, %v", topo, err)
	}
	for _, bad := range []string{"ring:", "ring:x", "star:3:4"} {
		if _, err := parseTopology(bad); err == nil {
			t.Errorf("parseTopology(%q) succeeded", bad)
		}
	}
}

func TestParseTrunkFaults(t *testing.T) {
	faults, err := parseTrunkFaults("0@5ms, 2@1s", "1@10ms:20ms:3")
	if err != nil || len(faults) != 3 {
		t.Fatalf("%+v, %v", faults, err)
	}
	if f := faults[2]; f.Kind != "trunk_flap" || f.Trunk != 1 || f.Count != 3 || f.Period.D().String() != "20ms" {
		t.Errorf("flap %+v", f)
	}
	for _, c := range [][2]string{
		{"0", ""}, {"x@5ms", ""}, {"0@5ms:1ms", ""}, {"0@soon", ""},
		{"", "0@5ms"}, {"", "0@5ms:1ms:x"}, {"", "0@5ms:x:1"}, {"", "0@x:1ms:1"}, {"", "x@5ms:1ms:1"},
	} {
		if _, err := parseTrunkFaults(c[0], c[1]); err == nil {
			t.Errorf("parseTrunkFaults(%q, %q) succeeded", c[0], c[1])
		}
	}
}

func TestParseCountBytes(t *testing.T) {
	if wl, err := parseCountBytes("manyflow", "8:4096"); err != nil || wl.Flows != 8 || wl.Bytes != 4096 || wl.Count != 0 {
		t.Errorf("manyflow 8:4096 = %+v, %v", wl, err)
	}
	if wl, err := parseCountBytes("incast", "3:100"); err != nil || wl.Count != 3 || wl.Kind != "incast" {
		t.Errorf("incast 3:100 = %+v, %v", wl, err)
	}
	for _, bad := range []string{"", "8", "8:4096:1", "x:1", "1:x"} {
		if _, err := parseCountBytes("incast", bad); err == nil {
			t.Errorf("parseCountBytes(%q) succeeded", bad)
		}
	}
}
