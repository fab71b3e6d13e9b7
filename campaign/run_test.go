package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"virtualwire"
)

// quickstartScript is the paper's quickstart scenario: drop the fifth
// TCP data packet at the receiver (same text as
// scripts/quickstart_drop.fsl).
const quickstartScript = `
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END

NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END

SCENARIO quickstart_drop_fifth
DATA: (TCP_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( DATA );
((DATA = 5)) >> DROP TCP_data, node1, node2, RECV;
END
`

func tcpWorkload(bytes int) WorkloadSpec {
	return WorkloadSpec{
		Kind: "tcpbulk", From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: bytes,
	}
}

func quickstartSpec(seeds int, bers []float64) Spec {
	spec := Spec{
		Name:      "quickstart-matrix",
		Seed:      42,
		SeedCount: seeds,
		Script:    quickstartScript,
		Horizon:   Duration(30 * time.Second),
		Workloads: []WorkloadSpec{tcpWorkload(16 * 1024)},
	}
	for _, ber := range bers {
		b := ber
		spec.Configs = append(spec.Configs, ConfigOverride{
			Label:        fmt.Sprintf("ber=%g", b),
			BitErrorRate: &b,
		})
	}
	return spec
}

// runToBytes executes the spec and returns (JSONL sink bytes, summary
// JSON bytes).
func runToBytes(t *testing.T, spec Spec, workers int) ([]byte, []byte) {
	t.Helper()
	var sink bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{Workers: workers, Sink: &sink})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	var sumJSON bytes.Buffer
	if err := sum.WriteJSON(&sumJSON); err != nil {
		t.Fatalf("summary marshal: %v", err)
	}
	return sink.Bytes(), sumJSON.Bytes()
}

// TestDeterministicAcrossWorkers is the core campaign guarantee: same
// spec and seed give byte-identical JSONL and summary on 1, 4 and 8
// workers.
func TestDeterministicAcrossWorkers(t *testing.T) {
	spec := quickstartSpec(3, []float64{0, 1e-6})
	refSink, refSum := runToBytes(t, spec, 1)
	if len(refSink) == 0 {
		t.Fatal("empty sink")
	}
	if got := bytes.Count(refSink, []byte("\n")); got != spec.Runs() {
		t.Fatalf("sink lines = %d, want %d", got, spec.Runs())
	}
	for _, workers := range []int{4, 8} {
		gotSink, gotSum := runToBytes(t, spec, workers)
		if !bytes.Equal(gotSink, refSink) {
			t.Errorf("JSONL with %d workers differs from serial run", workers)
		}
		if !bytes.Equal(gotSum, refSum) {
			t.Errorf("summary with %d workers differs from serial run", workers)
		}
	}

	// Sanity on content: every record passed, faults were injected.
	var sum Summary
	if err := json.Unmarshal(refSum, &sum); err != nil {
		t.Fatalf("summary unmarshal: %v", err)
	}
	if sum.Completed != spec.Runs() || sum.Passed != spec.Runs() {
		t.Errorf("summary counts = %d completed / %d passed, want %d", sum.Completed, sum.Passed, spec.Runs())
	}
	if sum.FaultsInjected < spec.Runs() {
		t.Errorf("faults injected = %d, want >= %d (one drop per run)", sum.FaultsInjected, spec.Runs())
	}
	if sum.GoodputMbps == nil || sum.GoodputMbps.Count != spec.Runs() {
		t.Errorf("goodput distribution = %+v, want %d samples", sum.GoodputMbps, spec.Runs())
	}
	if sum.MetricsTotals["engine/drops"] < float64(spec.Runs()) {
		t.Errorf("rolled-up engine/drops = %v, want >= %d", sum.MetricsTotals["engine/drops"], spec.Runs())
	}
}

// TestRecordFields spot-checks one record's shape in the JSONL stream.
func TestRecordFields(t *testing.T) {
	spec := quickstartSpec(2, []float64{0})
	sink, _ := runToBytes(t, spec, 2)
	lines := strings.Split(strings.TrimSpace(string(sink)), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for i, line := range lines {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Index != i {
			t.Errorf("line %d has index %d", i, rec.Index)
		}
		if rec.Seed != DeriveSeed(spec.Seed, i) {
			t.Errorf("record %d seed = %d, want derived %d", i, rec.Seed, DeriveSeed(spec.Seed, i))
		}
		if rec.Outcome != OutcomePass || rec.Attempts != 1 {
			t.Errorf("record %d: outcome %q attempts %d", i, rec.Outcome, rec.Attempts)
		}
		if rec.Report == nil || rec.Report.Scenario != "quickstart_drop_fifth" {
			t.Errorf("record %d report = %+v", i, rec.Report)
		}
		if rec.DeliveredBytes != 16*1024 {
			t.Errorf("record %d delivered = %d", i, rec.DeliveredBytes)
		}
	}
}

// A run whose config samples carries the series on its record, and the
// record still decodes (the service's resume scan reads journaled lines
// back) and re-encodes to the same bytes; an unsampled run's record has
// no series member at all.
func TestSampledRecordCarriesSeries(t *testing.T) {
	spec := quickstartSpec(1, []float64{0, 0})
	spec.Configs[1].MetricsSampleInterval = Duration(time.Second)
	sink, _ := runToBytes(t, spec, 1)
	lines := bytes.Split(bytes.TrimSpace(sink), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if bytes.Contains(lines[0], []byte(`"series"`)) {
		t.Errorf("unsampled record has a series member: %.200s", lines[0])
	}
	var rec RunRecord
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatalf("sampled record does not decode: %v", err)
	}
	if rec.Series == nil || len(rec.Series.Points) == 0 || len(rec.Series.Final) == 0 ||
		rec.Series.Interval != time.Second {
		t.Fatalf("sampled record's series = %+v", rec.Series)
	}
	again, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, lines[1]) {
		t.Error("sampled record does not re-encode to the bytes it was decoded from")
	}
}

// TestCancellationMidCampaign cancels from OnRecord and checks the
// partial flush: a contiguous prefix of records is in the sink, the
// summary is marked interrupted, and Run returns context.Canceled.
func TestCancellationMidCampaign(t *testing.T) {
	spec := quickstartSpec(12, []float64{0, 1e-6}) // 24 runs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sink bytes.Buffer
	seen := 0
	sum, err := Run(ctx, spec, Options{
		Workers: 4,
		Sink:    &sink,
		OnRecord: func(RunRecord) {
			seen++
			if seen == 5 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen < 5 {
		t.Fatalf("OnRecord saw %d records", seen)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) >= spec.Runs() {
		t.Errorf("cancellation flushed all %d runs", len(lines))
	}
	for i, line := range lines {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
	}
	if !sum.Interrupted {
		t.Error("summary not marked interrupted")
	}
	if sum.Completed != len(lines) {
		t.Errorf("summary.Completed = %d, sink has %d lines", sum.Completed, len(lines))
	}
	if sum.Completed+sum.Canceled > spec.Runs() {
		t.Errorf("completed %d + canceled %d exceeds matrix %d", sum.Completed, sum.Canceled, spec.Runs())
	}
}

// TestPreCanceledContext: a context canceled before Run starts yields
// zero completed runs and a prompt return.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := quickstartSpec(4, []float64{0})
	for _, workers := range []int{1, 4} {
		sum, err := Run(ctx, spec, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if sum.Completed != 0 {
			t.Errorf("workers=%d: completed %d runs under canceled context", workers, sum.Completed)
		}
	}
}

// TestRetryOnTransient substitutes the per-attempt executor to fail
// each run's first attempt with a transient (launch) error and checks
// the retry policy recovers.
func TestRetryOnTransient(t *testing.T) {
	spec := quickstartSpec(3, []float64{0})
	spec.Retries = 2
	var mu sync.Mutex
	attempts := make(map[int]int)
	opts := Options{
		Workers: 3,
		run: func(ctx context.Context, s *Spec, p point, rec *RunRecord) error {
			mu.Lock()
			attempts[p.index]++
			n := attempts[p.index]
			mu.Unlock()
			if n == 1 {
				return fmt.Errorf("flaky launch: %w", virtualwire.ErrLaunchFailed)
			}
			return testbedCache{}.run(ctx, s, p, rec)
		},
	}
	var sink bytes.Buffer
	opts.Sink = &sink
	sum, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Passed != 3 || sum.Retried != 3 {
		t.Fatalf("summary = %d passed, %d retried, want 3/3", sum.Passed, sum.Retried)
	}
	if sum.Attempts != 6 {
		t.Errorf("attempts = %d, want 6", sum.Attempts)
	}
	for i, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Attempts != 2 || rec.Outcome != OutcomePass {
			t.Errorf("record %d: attempts %d outcome %q", i, rec.Attempts, rec.Outcome)
		}
	}
}

// TestRetriesExhausted: a run that keeps failing transiently ends with
// the matching outcome after Retries+1 attempts; permanent errors are
// not retried at all.
func TestRetriesExhausted(t *testing.T) {
	spec := quickstartSpec(1, []float64{0})
	spec.Retries = 2
	calls := 0
	opts := Options{
		Workers: 1,
		run: func(context.Context, *Spec, point, *RunRecord) error {
			calls++
			return fmt.Errorf("always down: %w", virtualwire.ErrLaunchFailed)
		},
	}
	sum, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("attempts = %d, want Retries+1 = 3", calls)
	}
	if sum.LaunchFailed != 1 || sum.Outcomes[OutcomeLaunchFailed] != 1 {
		t.Errorf("summary = %+v, want one launch_failed", sum.Outcomes)
	}

	calls = 0
	opts.run = func(context.Context, *Spec, point, *RunRecord) error {
		calls++
		return errors.New("permanent misconfiguration")
	}
	sum, err = Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("permanent error retried: %d attempts", calls)
	}
	if sum.Errored != 1 {
		t.Errorf("summary = %+v, want one error outcome", sum.Outcomes)
	}
}

// TestPerRunTimeout: a wall-clock Timeout interrupts the run, counts as
// transient, and is labelled OutcomeTimeout once retries are exhausted.
func TestPerRunTimeout(t *testing.T) {
	spec := quickstartSpec(1, []float64{0})
	spec.Timeout = Duration(time.Nanosecond) // no run can finish in this
	spec.Retries = 1
	sum, err := Run(context.Background(), spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Timeouts != 1 {
		t.Fatalf("summary = %+v, want one timeout", sum.Outcomes)
	}
	if sum.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (timeout retried once)", sum.Attempts)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("x: %w", virtualwire.ErrLaunchFailed), true},
		{fmt.Errorf("x: %w", virtualwire.ErrUnreachable), true},
		{fmt.Errorf("x: %w", virtualwire.ErrHorizonExceeded), true},
		{context.DeadlineExceeded, true},
		{context.Canceled, false},
		{fmt.Errorf("x: %w", virtualwire.ErrScriptParse), false},
		{errors.New("misc"), false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(42, 0) != DeriveSeed(42, 0) {
		t.Error("derivation not stable")
	}
	if DeriveSeed(42, 0) == DeriveSeed(43, 0) {
		t.Error("campaign seed ignored")
	}
}

func TestSpecValidation(t *testing.T) {
	base := quickstartSpec(1, []float64{0})

	bad := base
	bad.Horizon = 0
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("zero horizon accepted")
	}

	bad = base
	bad.Script = "FILTER_TABLE garbage"
	if _, err := Run(context.Background(), bad, Options{}); !errors.Is(err, virtualwire.ErrScriptParse) {
		t.Errorf("bad script: err = %v, want ErrScriptParse", err)
	}

	bad = base
	bad.Scenario = "no_such_scenario"
	if _, err := Run(context.Background(), bad, Options{}); !errors.Is(err, virtualwire.ErrScriptParse) {
		t.Errorf("missing scenario: err = %v, want ErrScriptParse", err)
	}

	bad = base
	bad.Configs[0].Medium = "carrier-pigeon"
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("bad medium accepted")
	}

	bad = base
	bad.Workloads[0].Kind = "smoke-signals"
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("bad workload kind accepted")
	}

	bad = base
	bad.Variants = []Variant{{}}
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("Variants alongside Configs accepted")
	}

	bad = Spec{Horizon: Duration(time.Second)}
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("spec with no script and no nodes accepted")
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	for _, src := range []string{`"1.5s"`, `1500000000`} {
		if err := json.Unmarshal([]byte(src), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", src, err)
		}
		if d.D() != 1500*time.Millisecond {
			t.Errorf("unmarshal %s = %v", src, d.D())
		}
	}
	out, err := json.Marshal(Duration(30 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `"30s"` {
		t.Errorf("marshal = %s", out)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Error("bogus duration accepted")
	}
}

// TestVariantMatrix exercises the explicit-variant mode: one scriptless
// baseline plus one scripted variant, sharing the node table.
func TestVariantMatrix(t *testing.T) {
	noScript := ""
	seed7 := int64(7)
	wl := tcpWorkload(8 * 1024)
	spec := Spec{
		Name:    "variants",
		Seed:    1,
		Nodes:   quickstartScript,
		Script:  quickstartScript,
		Horizon: Duration(30 * time.Second),
		Variants: []Variant{
			{Label: "baseline", Script: &noScript, Workload: &wl, Seed: &seed7},
			{Label: "faulted", Workload: &wl},
		},
	}
	var sink bytes.Buffer
	sum, err := Run(context.Background(), spec, Options{Workers: 2, Sink: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 2 || sum.Passed != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	var base, faulted RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &base); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &faulted); err != nil {
		t.Fatal(err)
	}
	if base.Label != "baseline" || base.Seed != 7 {
		t.Errorf("baseline record = %+v", base)
	}
	if base.Report.Scenario != "" {
		t.Errorf("baseline ran scenario %q", base.Report.Scenario)
	}
	if faulted.Report.Scenario != "quickstart_drop_fifth" || len(faulted.Report.Faults) == 0 {
		t.Errorf("faulted record = %+v", faulted)
	}
}

// A worker builds one testbed per shape and rewinds it for every later
// run of that shape — scripted, generated hosts, or a scriptless baseline
// on a separate node table (which used to be rebuilt for every run) —
// and a matrix compiles its one script once.
func TestOneBuildPerShape(t *testing.T) {
	noScript := ""
	wl := tcpWorkload(8 * 1024)
	specs := map[string]Spec{
		"scripted":   quickstartSpec(3, []float64{0, 1e-6}),
		"host-group": scaleSpec(24, 3),
		"separate-nodes": {
			Seed: 1, SeedCount: 3,
			Nodes: quickstartScript, Script: quickstartScript,
			Horizon: Duration(30 * time.Second),
			Variants: []Variant{
				{Label: "baseline", Script: &noScript, Workload: &wl},
				{Label: "faulted", Workload: &wl},
			},
		},
	}
	for name, spec := range specs {
		plan, err := spec.Plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compiled := make(map[*virtualwire.CompiledScript]bool)
		built := make(map[int]*virtualwire.Testbed)
		cache := testbedCache{}
		for i := 0; i < plan.runs; i++ {
			p := plan.point(i)
			if p.compiled != nil {
				compiled[p.compiled] = true
			}
			var rec RunRecord
			if err := cache.run(context.Background(), &spec, p, &rec); err != nil {
				t.Fatalf("%s: run %d: %v", name, p.index, err)
			}
			if tb, seen := built[p.id]; seen && tb != cache[p.id] {
				t.Errorf("%s: run %d rebuilt the testbed of shape %d", name, p.index, p.id)
			}
			built[p.id] = cache[p.id]
		}
		if len(compiled) > 1 {
			t.Errorf("%s: one script compiled %d times", name, len(compiled))
		}
		if plan.runs != 3*len(built) {
			t.Errorf("%s: %d runs over %d testbeds, want three runs on each", name, plan.runs, len(built))
		}
	}
}

// TestSummaryText smoke-tests the human rendering.
func TestSummaryText(t *testing.T) {
	spec := quickstartSpec(2, []float64{0})
	sum, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := sum.Text()
	for _, want := range []string{"quickstart-matrix", "2/2 runs completed", "2 pass", "goodput Mbps", "engine/drops"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary text missing %q:\n%s", want, text)
		}
	}
}

// TestCollectAllocsPerRecord is the allocation gate on the record path:
// once the collector's line buffer has grown to fit, flushing a record
// to the sink costs a fixed handful of allocations — the few members
// still left to encoding/json (the scenario result, the fault list) —
// whether the record carries 2 hosts' readings or 24. (Through
// json.Marshal, a fresh line per record and a buffer per node row, it
// was 6 for the 2-host record and 28 for the 24-host one.)
func TestCollectAllocsPerRecord(t *testing.T) {
	for name, spec := range map[string]Spec{
		"2 hosts":  quickstartSpec(2, []float64{0, 1e-6}),
		"24 hosts": scaleSpec(24, 2),
	} {
		var recs []RunRecord
		opts := Options{Workers: 1, OnRecord: func(r RunRecord) { recs = append(recs, r) }}
		if _, err := Run(context.Background(), spec, opts); err != nil {
			t.Fatal(err)
		}
		agg := newAggregator(&spec, len(recs))
		sink := Options{Sink: io.Discard}
		i := 0
		collect := func() {
			if err := agg.collect(recs[i%len(recs)], &sink); err != nil {
				t.Fatal(err)
			}
			i++
		}
		collect()
		// 4 and 2 today; the race detector turns sync.Pool off, which
		// costs encoding/json an encoder state per call on top.
		if n := testing.AllocsPerRun(100, collect); n > 8 {
			t.Errorf("%s: collect allocates %v times per record, want at most 8", name, n)
		}
	}
}
