package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The campaign identity table: the executor's determinism contracts over
// every matrix shape. A row is a spec; a column is a contract — a change
// to how the matrix is executed that must not move one byte of its JSONL
// sink or its summary. Each column is one Test function with a subtest
// per row, and every cell is compared with the row's baseline, the spec
// run serially and uninterrupted, computed once and shared by every
// column. A new matrix shape is a row of campaignRows; a new contract is
// a column.

// campaignRow is one spec of the table.
type campaignRow struct {
	name string
	spec Spec
	// shardAxis rows carry a shard count on every config, 1 in the
	// baseline; their labels are pinned, so no record says which count ran.
	shardAxis bool
	// check holds the baseline to the row's claim (nil: every run
	// recorded is all).
	check func(t *testing.T, recs []RunRecord, sum Summary)
}

// campaignRows is the table; the 1000-run matrix is left out under -short.
func campaignRows() []campaignRow {
	one := 1
	allPass := func(t *testing.T, recs []RunRecord, sum Summary) {
		t.Helper()
		if sum.Passed != len(recs) {
			t.Fatalf("passed %d/%d", sum.Passed, len(recs))
		}
	}
	rows := []campaignRow{
		{name: "quickstart", spec: quickstartSpec(3, []float64{0, 1e-6}),
			check: func(t *testing.T, recs []RunRecord, sum Summary) {
				allPass(t, recs, sum)
				n := len(recs)
				if sum.FaultsInjected < n || sum.MetricsTotals["engine/drops"] < float64(n) {
					t.Errorf("faults injected %d, engine/drops %v; want one drop per run, %d", sum.FaultsInjected, sum.MetricsTotals["engine/drops"], n)
				}
				if sum.GoodputMbps == nil || sum.GoodputMbps.Count != n {
					t.Errorf("goodput distribution = %+v, want %d samples", sum.GoodputMbps, n)
				}
			}},
		// Scriptless, on generated hosts: every incast completes.
		{name: "host-group", spec: scaleSpec(24, 4),
			check: func(t *testing.T, recs []RunRecord, sum Summary) {
				allPass(t, recs, sum)
				if sum.MetricsTotals["fabric/forwarded_frames"] <= 0 {
					t.Errorf("no fabric forwarding in rollup: %v", sum.MetricsTotals)
				}
				for _, rec := range recs {
					if rec.Sent != 8 || rec.Received != 8 || rec.DeliveredBytes != 8*(4<<10) {
						t.Fatalf("record %d: %d/%d incast transfers, %d bytes", rec.Index, rec.Received, rec.Sent, rec.DeliveredBytes)
					}
				}
			}},
		{name: "shard-axis", shardAxis: true, check: allPass, spec: Spec{
			Name: "shard-identity", Seed: 11, SeedCount: 3, Hosts: 24, Horizon: Duration(5 * time.Second),
			Configs: []ConfigOverride{{Label: "star4", Shards: &one,
				Topology: &TopologyOverride{Kind: "star", Switches: 4}}},
			Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 12, Bytes: 2 << 10}},
		}},
		// The first tree trunk dies mid-run and spanning-tree failover
		// promotes the ring's redundant trunk: a failover in every run.
		{name: "trunk-fault", shardAxis: true, spec: trunkFaultSpec(),
			check: func(t *testing.T, recs []RunRecord, sum Summary) {
				allPass(t, recs, sum)
				if sum.MetricsTotals["fabric/failovers"] < float64(len(recs)) {
					t.Fatalf("fabric/failovers rollup = %v, want >= %d", sum.MetricsTotals["fabric/failovers"], len(recs))
				}
			}},
		// Sampled every 5 ms: a record's series is taken at window
		// barriers and holds no warm-pool reading, so it is the same on
		// any worker, at any shard count and after a resume.
		{name: "sampled", shardAxis: true, check: allPass, spec: Spec{
			Name: "sampled", Seed: 5, SeedCount: 4, Hosts: 8, Horizon: Duration(50 * time.Millisecond),
			Configs: []ConfigOverride{{Label: "star4", Shards: &one, MetricsSampleInterval: Duration(5 * time.Millisecond),
				Topology: &TopologyOverride{Kind: "star", Switches: 4}}},
			Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 4, Bytes: 2 << 10}},
		}},
		// TestGoldenCampaignJSONL's matrix: every run passes, delivering
		// its whole transfer.
		{name: "golden-16", spec: quickstartSpec(8, []float64{0, 1e-6}),
			check: func(t *testing.T, recs []RunRecord, sum Summary) {
				allPass(t, recs, sum)
				for _, r := range recs {
					if r.Outcome != OutcomePass || r.DeliveredBytes != 16*1024 {
						t.Fatalf("run %d: outcome %s, %d bytes delivered; want pass and all %d", r.Index, r.Outcome, r.DeliveredBytes, 16*1024)
					}
				}
			}},
	}
	if !testing.Short() {
		// The acceptance matrix: 250 seeds × 4 bit-error rates.
		acceptance := quickstartSpec(250, []float64{0, 1e-7, 1e-6, 1e-5})
		acceptance.Workloads[0].Bytes = 8 * 1024
		acceptance.Timeout = Duration(time.Minute)
		rows = append(rows, campaignRow{name: "acceptance-1000", spec: acceptance})
	}
	return rows
}

// runCampaign is the table's one byte producer: the sink's lines, then
// the summary's JSON. The sink starts as prefix, as a resumed journal
// does.
func runCampaign(t *testing.T, spec Spec, opts Options, prefix []byte) []byte {
	t.Helper()
	sink := bytes.NewBuffer(append([]byte(nil), prefix...))
	opts.Sink = sink
	sum, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("Run(workers=%d, first=%d): %v", opts.Workers, opts.FirstIndex, err)
	}
	if err := sum.WriteJSON(sink); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// campaignBaselines memoizes baseline by row name.
var campaignBaselines = map[string][]byte{}

// baseline is the row run serially and uninterrupted, checked once.
func (r *campaignRow) baseline(t *testing.T) []byte {
	t.Helper()
	if b, ok := campaignBaselines[r.name]; ok {
		return b
	}
	b := runCampaign(t, r.spec, Options{Workers: 1}, nil)
	sink := r.sink(b)
	recs := scanJSONL(t, sink)
	if len(recs) != r.spec.Runs() {
		t.Fatalf("%d records of %d runs", len(recs), r.spec.Runs())
	}
	if r.check != nil {
		var sum Summary
		if err := json.Unmarshal(b[len(sink):], &sum); err != nil {
			t.Fatal(err)
		}
		r.check(t, recs, sum)
	}
	campaignBaselines[r.name] = b
	return b
}

// sink is the JSONL part of a runCampaign output: its first Runs() lines.
func (r *campaignRow) sink(out []byte) []byte {
	n := 0
	for i, c := range out {
		if c == '\n' {
			if n++; n == r.spec.Runs() {
				return out[:i+1]
			}
		}
	}
	return nil
}

// assertSameBytes fails the cell unless got is the row's baseline,
// naming the first line that differs.
func assertSameBytes(t *testing.T, r *campaignRow, column string, got []byte) {
	t.Helper()
	want := r.baseline(t)
	if bytes.Equal(got, want) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	i := 0
	for i < len(wl) && i < len(gl) && bytes.Equal(wl[i], gl[i]) {
		i++
	}
	line := func(ls [][]byte) []byte {
		if i < len(ls) {
			return ls[i]
		}
		return []byte("(end of output)")
	}
	t.Fatalf("row %s, column %s, seed %d: line %d (of %d records, then the summary) differs\nbaseline: %.300s\n     got: %.300s",
		r.name, column, r.spec.Seed, i+1, r.spec.Runs(), line(wl), line(gl))
}

// eachCampaignRow runs f as a subtest per row that applies.
func eachCampaignRow(t *testing.T, applies func(*campaignRow) bool, f func(t *testing.T, r *campaignRow)) {
	for _, r := range campaignRows() {
		if applies == nil || applies(&r) {
			t.Run(r.name, func(t *testing.T) { f(t, &r) })
		}
	}
}

// TestDeterministicAcrossWorkers is the core campaign guarantee: the
// same spec gives the same JSONL and summary on 2, 4 and 8 workers as on
// one.
func TestDeterministicAcrossWorkers(t *testing.T) {
	eachCampaignRow(t, nil, func(t *testing.T, r *campaignRow) {
		for _, w := range []int{2, 4, 8} {
			assertSameBytes(t, r, fmt.Sprintf("workers=%d", w), runCampaign(t, r.spec, Options{Workers: w}, nil))
		}
	})
}

// TestShardAxisIdentity carries the engine's shard invariance through the
// campaign layer: a matrix run at 0 (one shard), 2 or 4 shards per run,
// and at 4 shards under 4 workers — whose budget shrinks — gives the
// bytes of one shard.
func TestShardAxisIdentity(t *testing.T) {
	eachCampaignRow(t, func(r *campaignRow) bool { return r.shardAxis }, func(t *testing.T, r *campaignRow) {
		for _, c := range []struct{ shards, workers int }{{0, 1}, {2, 1}, {4, 1}, {4, 4}} {
			spec := r.spec
			spec.Configs = append([]ConfigOverride(nil), spec.Configs...)
			for i := range spec.Configs {
				spec.Configs[i].Shards = &c.shards
			}
			got := runCampaign(t, spec, Options{Workers: c.workers}, nil)
			assertSameBytes(t, r, fmt.Sprintf("shards=%d,workers=%d", c.shards, c.workers), got)
		}
	})
}

// TestResumeMatchesUninterrupted: a campaign resumed with FirstIndex and
// Prior appends exactly the missing records — the prior prefix sliced
// from the baseline, which is what the service journal's resume scan
// hands back after a kill — so the sink and the final summary are the
// uninterrupted run's, at every cut point (three of a matrix over 64
// runs) on one worker and on four.
func TestResumeMatchesUninterrupted(t *testing.T) {
	eachCampaignRow(t, nil, func(t *testing.T, r *campaignRow) {
		lines := bytes.SplitAfter(r.sink(r.baseline(t)), []byte("\n"))
		runs := r.spec.Runs()
		cuts := []int{1, runs / 2, runs - 1}
		if runs <= 64 {
			cuts = cuts[:0]
			for cut := 1; cut < runs; cut++ {
				cuts = append(cuts, cut)
			}
		}
		for _, workers := range []int{1, 4} {
			for _, cut := range cuts {
				prefix := bytes.Join(lines[:cut], nil)
				got := runCampaign(t, r.spec, Options{Workers: workers, FirstIndex: cut, Prior: scanJSONL(t, prefix)}, prefix)
				assertSameBytes(t, r, fmt.Sprintf("resumed at %d, workers=%d", cut, workers), got)
			}
		}
	})
}

// The work column: what a pinned row's baseline did, in counts summed
// over its runs, pinned exactly by workPins — one "row layer/name value"
// line a count, of each workKeys total the row's layers report. Wall time
// is bench/'s to measure (campaign_matrix); work is pinned here, as the
// root identity table pins it per scenario.
var workKeys = []string{"scheduler/events_executed", "scheduler/events_scheduled", "pool/gets", "nic/tx_frames",
	"engine/packets_intercepted", "engine/ctl_bytes", "switch/ingress_frames", "switch/forwarded_frames",
	"switch/flooded_frames", "fabric/ingress_frames", "fabric/forwarded_frames", "fabric/flooded_frames",
	"rll/data_retrans", "tcp/retransmissions", "rether/token_retransmissions"}

const workPins = `
golden-16 scheduler/events_executed 3248
golden-16 scheduler/events_scheduled 3468
golden-16 pool/gets 517
golden-16 nic/tx_frames 517
golden-16 engine/packets_intercepted 898
golden-16 engine/ctl_bytes 27937
golden-16 switch/ingress_frames 514
golden-16 switch/forwarded_frames 514
golden-16 switch/flooded_frames 0
golden-16 tcp/retransmissions 18
`

// TestWorkCountsArePinned is the work column. A divergence names each
// count that moved and prints the row's lines as they now read.
func TestWorkCountsArePinned(t *testing.T) {
	pins := map[string]map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(workPins), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("work pin %q is not \"row layer/name value\"", line)
		}
		v, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			t.Fatalf("work pin %q: %v", line, err)
		}
		if pins[f[0]] == nil {
			pins[f[0]] = map[string]uint64{}
		}
		pins[f[0]][f[1]] = v
	}
	eachCampaignRow(t, func(r *campaignRow) bool { return pins[r.name] != nil }, func(t *testing.T, r *campaignRow) {
		b := r.baseline(t)
		var sum Summary
		if err := json.Unmarshal(b[len(r.sink(b)):], &sum); err != nil {
			t.Fatal(err)
		}
		pinned := pins[r.name]
		var moved, lines []string
		for _, k := range workKeys {
			v, reported := sum.MetricsTotals[k]
			p, ok := pinned[k]
			if reported {
				lines = append(lines, fmt.Sprintf("%s %s %d", r.name, k, uint64(v)))
			}
			switch {
			case reported && !ok:
				moved = append(moved, fmt.Sprintf("%s: not pinned, got %d", k, uint64(v)))
			case ok && !reported:
				moved = append(moved, fmt.Sprintf("%s: pinned %d, not reported", k, p))
			case ok && p != uint64(v):
				moved = append(moved, fmt.Sprintf("%s: pinned %d, got %d", k, p, uint64(v)))
			}
		}
		if len(moved) > 0 {
			t.Errorf("row %s: work moved\n\t%s\nthe row's workPins lines as they now read:\n%s",
				r.name, strings.Join(moved, "\n\t"), strings.Join(lines, "\n"))
		}
	})
}
