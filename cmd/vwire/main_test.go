package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParsePortPair(t *testing.T) {
	sp, dp, err := parsePortPair("24576:16384")
	if err != nil || sp != 24576 || dp != 16384 {
		t.Errorf("parsed %d:%d err=%v", sp, dp, err)
	}
	for _, bad := range []string{"", "1", "1:2:3", "x:1", "1:x"} {
		if _, _, err := parsePortPair(bad); err == nil {
			t.Errorf("parsePortPair(%q) succeeded", bad)
		}
	}
}

// -tables compiles and prints without running: one block per scenario,
// or -scenario's only.
func TestTablesPrintsEveryScenarioWithoutRunning(t *testing.T) {
	var all, one bytes.Buffer
	if err := run([]string{"-script", "../../scripts/udp_faults.fsl", "-tables"}, &all); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-script", "../../scripts/udp_faults.fsl", "-scenario", "dup_one", "-tables"}, &one); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(all.String(), "COMPILED DISPATCH"); n < 2 {
		t.Errorf("%d dispatch blocks for a multi-scenario script", n)
	}
	if n := strings.Count(one.String(), "COMPILED DISPATCH"); n != 1 || !strings.Contains(all.String(), one.String()) {
		t.Errorf("-scenario dup_one printed %d blocks, or a block -tables alone does not print:\n%s", n, one.String())
	}
	if strings.Contains(all.String(), "scenario:") {
		t.Errorf("-tables ran the scenario:\n%s", all.String())
	}
	if err := run([]string{"-script", "../../scripts/prologue_tcp.fsl", "-tables"}, new(bytes.Buffer)); err == nil {
		t.Error("-tables on a script with no scenario succeeded")
	}
}

// A flag the chosen mode would ignore is refused by name.
func TestRefusesIgnoredFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-tables", "-tcp", "a:1-b:2:3", "-medium", "bus"}, "takes no -medium, -tcp"},
		{[]string{"-metrics-interval", "1ms"}, "-metrics-interval requires -metrics-out"},
		{[]string{"-rt", "1:2"}, "-rt requires -rether"},
	} {
		args := append([]string{"-script", "../../scripts/udp_faults.fsl", "-scenario", "dup_one"}, c.args...)
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before refusing", c.args, out.String())
		}
	}
}
