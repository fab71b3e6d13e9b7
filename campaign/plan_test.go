package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// rejectedSpec is one line of testdata/rejected.jsonl: a spec that
// decodes, that no run of it could be built, and the field a submitter
// has to fix. The service's HTTP test and FuzzParseSpec read the same
// file.
type rejectedSpec struct {
	Name string          `json:"name"`
	Path string          `json:"path"`
	Spec json.RawMessage `json:"spec"`
}

func rejectedSpecs(t testing.TB) []rejectedSpec {
	t.Helper()
	f, err := os.Open("testdata/rejected.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []rejectedSpec
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r rejectedSpec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		t.Fatal("no rejected specs")
	}
	return out
}

// TestPlanRejectsWhatNoRunCouldBuild: every way a testbed can refuse to
// be built — and every host, script and scenario name a run would trip
// over — is refused by ParseSpec, as a FieldError at the spec path of the
// member to fix, on the configs/workloads axes and inside a variant
// alike. (All of these used to parse, be accepted, and record one
// "outcome":"error" per run.)
func TestPlanRejectsWhatNoRunCouldBuild(t *testing.T) {
	for _, tc := range rejectedSpecs(t) {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := ParseSpec(tc.Spec)
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("ParseSpec: %v, want a FieldError at %q", err, tc.Path)
			}
			if fe.Path != tc.Path {
				t.Errorf("rejected at %q, want %q (%v)", fe.Path, tc.Path, err)
			}
			// The same pass whichever way the spec arrives.
			var spec Spec
			if err := json.Unmarshal(tc.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			if verr := spec.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Errorf("Validate: %v, want ParseSpec's %v", verr, err)
			}
			sum, rerr := Run(context.Background(), spec, Options{Workers: 1})
			if sum != nil || rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("Run: summary %v, %v, want only ParseSpec's %v", sum, rerr, err)
			}
		})
	}
}

// TestPlanIsPerShape: a plan holds shapes, not runs — every unique
// (script, scenario) compiled once, every shape's config resolved once —
// and point(i) is the run the eager expansion used to store at i.
func TestPlanIsPerShape(t *testing.T) {
	spec := quickstartSpec(5, []float64{0, 1e-6, 1e-5})
	spec.Workloads = append(spec.Workloads, WorkloadSpec{Kind: "none"})
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.shapes) != 6 || plan.seeds != 5 || plan.runs != 30 || plan.runs != spec.Runs() {
		t.Fatalf("%d shapes × %d seeds = %d runs, want 6 × 5 = 30", len(plan.shapes), plan.seeds, plan.runs)
	}
	for i := range plan.shapes {
		sh := &plan.shapes[i]
		if sh.compiled != plan.shapes[0].compiled || sh.compiled == nil {
			t.Errorf("shape %d has its own compiled script", i)
		}
		if want := *spec.Configs[i/2].BitErrorRate; sh.cfg.BitErrorRate != want {
			t.Errorf("shape %d resolved BER %g, want %g", i, sh.cfg.BitErrorRate, want)
		}
	}
	p := plan.point(13) // shape 2 (ber=1e-06 × tcpbulk), seed 3
	if p.id != 2 || p.seedIndex != 3 || p.index != 13 || p.seed != DeriveSeed(spec.Seed, 13) ||
		p.runLabel != "ber=1e-06/tcpbulk/s3" || p.cfgLabel != "ber=1e-06" || p.wlLabel != "tcpbulk" {
		t.Errorf("point(13) = shape %d seed %d (%d) label %q", p.id, p.seedIndex, p.seed, p.runLabel)
	}
	// A variant's pinned seed is offset by the seed index; an explicit
	// seed axis is used as written.
	pinned := int64(1000)
	v := Spec{Hosts: 2, Horizon: Duration(time.Second), Seeds: []int64{7, 8, 9},
		Variants: []Variant{{}, {Label: "pinned", Seed: &pinned}}}
	vp, err := v.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := vp.point(2), vp.point(4); a.seed != 9 || a.runLabel != "v0/s2" || b.seed != 1001 || b.runLabel != "pinned/s1" {
		t.Errorf("variant points: %q seed %d, %q seed %d", a.runLabel, a.seed, b.runLabel, b.seed)
	}
}

// TestHugeSeedAxis: the matrix is never materialized. A 40-billion-run
// spec plans in the memory its one shape needs, starts, writes records
// and stops when its context is cancelled. (Expanding it was a fatal
// out-of-memory — in vwcampaignd, for every tenant, and again at every
// restart, because the job had been journaled first.) A seed axis the run
// index cannot count is a FieldError.
func TestHugeSeedAxis(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("40e9 does not fit this platform's int")
	}
	const body = `{"hosts":2,"horizon":"10ms","seed_count":40000000000}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan, err := ParsePlan([]byte(body))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("planning allocated %d bytes, want what one two-host shape needs", got)
	}
	if plan.runs != 40000000000 || plan.Spec().Runs() != plan.runs || len(plan.shapes) != 1 {
		t.Fatalf("plan: %d runs over %d shapes", plan.runs, len(plan.shapes))
	}
	if p := plan.point(39999999999); p.seedIndex != 39999999999 || p.runLabel != "s39999999999" {
		t.Errorf("last point: %+v", p)
	}
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var sink bytes.Buffer
		records := 0
		sum, err := plan.Run(ctx, Options{Workers: workers, Sink: &sink, OnRecord: func(RunRecord) {
			if records++; records == 5 {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || sum == nil {
			t.Fatalf("workers=%d: %v (summary %v), want the cancellation and a partial summary", workers, err, sum)
		}
		if sum.Runs != plan.runs || !sum.Interrupted || sum.Completed < 5 || sum.Completed > 5+4*workers {
			t.Errorf("workers=%d: summary %d/%d completed, interrupted=%v", workers, sum.Completed, sum.Runs, sum.Interrupted)
		}
		if n := bytes.Count(sink.Bytes(), []byte("\n")); n != sum.Completed {
			t.Errorf("workers=%d: %d lines in the sink, %d completed", workers, n, sum.Completed)
		}
	}
}

// FuzzParseSpec: spec bytes come from tenants. ParseSpec answers them
// with an error or with an admitted spec — one that marshals, parses
// again to the same Hash, and counts a positive number of runs — and
// never with a panic or with work proportional to the seed axis (a plan
// is per shape). Seeded with a spec of each SpecVersion arm, a variants
// spec and every rejected spec of the corpus.
func FuzzParseSpec(f *testing.F) {
	for _, version := range []string{`"version":1,`, `"version":2,`, `"version":3,`, ``} {
		f.Add([]byte(`{` + version + `"name":"old","seed":5,"seed_count":40000000000,"hosts":2,"horizon":"1s",` +
			`"configs":[{"label":"a"},{"label":"b","medium":"bus","rll":true,"shards":-1}],` +
			`"workloads":[{"kind":"manyflow","flows":1,"bytes":64}]}`))
	}
	variants, err := json.Marshal(Spec{Script: quickstartScript, Horizon: Duration(time.Second), Seeds: []int64{3, 4},
		Variants: []Variant{{Label: "baseline", Script: new(string), Workload: &WorkloadSpec{Kind: "none"}}, {Label: "faulted"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(variants)
	for _, r := range rejectedSpecs(f) {
		f.Add([]byte(r.Spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if spec.Runs() <= 0 {
			t.Fatalf("admitted a spec of %d runs", spec.Runs())
		}
		again, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("admitted spec does not marshal: %v", err)
		}
		reparsed, err := ParseSpec(again)
		if err != nil {
			t.Fatalf("admitted spec does not parse again: %v\n%s", err, again)
		}
		if reparsed.Hash() != spec.Hash() {
			t.Fatalf("hash moved across a round trip:\n%s", again)
		}
	})
}
