package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"virtualwire"
	"virtualwire/internal/jsonenc"
	"virtualwire/internal/metrics"
)

// Run outcome labels recorded per run.
const (
	// OutcomePass: the run completed and its scenario verdict passed
	// (scriptless runs pass whenever they complete).
	OutcomePass = "pass"
	// OutcomeFail: the run completed but the scenario verdict failed
	// (flagged errors, inactivity, never started).
	OutcomeFail = "fail"
	// OutcomeLaunchFailed: the control-plane launch kept failing after
	// every retry.
	OutcomeLaunchFailed = "launch_failed"
	// OutcomeTimeout: the per-run wall-clock Timeout kept expiring
	// after every retry.
	OutcomeTimeout = "timeout"
	// OutcomeError: a non-transient failure (bad workload host, script
	// staging error, ...).
	OutcomeError = "error"
	// OutcomeCanceled: the campaign context was canceled while the run
	// was in flight; canceled runs are counted but not written to the
	// sink, so the JSONL stream stays deterministic.
	OutcomeCanceled = "canceled"
)

// RunRecord is one finished run, as streamed to the JSONL sink. Every
// field is derived from the simulation (virtual time, seeds, counters)
// — never from wall-clock time — so records are byte-identical across
// worker counts and hosts.
type RunRecord struct {
	// Index is the run's position in the canonical matrix order.
	Index int `json:"index"`
	// Label identifies the matrix point ("ber=1e-6/tcp/s3").
	Label string `json:"label"`
	// Config and Workload echo the axis labels separately.
	Config   string `json:"config,omitempty"`
	Workload string `json:"workload,omitempty"`
	// SeedIndex and Seed locate the run on the seed axis.
	SeedIndex int   `json:"seed_index"`
	Seed      int64 `json:"seed"`
	// Attempts counts tries including the final one (>1 after retries).
	Attempts int `json:"attempts"`
	// Outcome is one of the Outcome* labels.
	Outcome string `json:"outcome"`
	// Error carries the final attempt's error text, if any.
	Error string `json:"error,omitempty"`

	// Workload measurements (populated per WorkloadSpec.Kind).
	DeliveredBytes  int      `json:"delivered_bytes,omitempty"`
	GoodputMbps     float64  `json:"goodput_mbps,omitempty"`
	Retransmissions int      `json:"retransmissions,omitempty"`
	Sent            int      `json:"sent,omitempty"`
	Received        int      `json:"received,omitempty"`
	MeanRTT         Duration `json:"mean_rtt,omitempty"`
	MaxInterArrival Duration `json:"max_inter_arrival,omitempty"`

	// Report is the run's full RunReport (faults, flagged errors,
	// per-node metrics). Nil only when the run never produced one.
	Report *virtualwire.RunReport `json:"report,omitempty"`
	// Series is the run's sampled metrics time series plus a final
	// gather; set only when the run's config sampled
	// (ConfigOverride.MetricsSampleInterval).
	Series *virtualwire.MetricsSeries `json:"series,omitempty"`
}

// MarshalJSON writes the record as appendJSON does, so json.Marshal of a
// record and the line the collector hands the sink are the same bytes.
func (r RunRecord) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 4096))
}

// appendJSON appends the record's compact encoding — exactly what
// encoding/json would derive from the field tags — without reflection:
// the scalar members here, the report through its own append encoder.
// Only Series, when a run sampled, is left to encoding/json.
func (r RunRecord) appendJSON(b []byte) ([]byte, error) {
	str := func(key, v string, omitEmpty bool) {
		if v != "" || !omitEmpty {
			b = jsonenc.AppendString(jsonenc.AppendMember(append(b, ','), -1, key), v)
		}
	}
	num := func(key string, v int64, omitEmpty bool) {
		if v != 0 || !omitEmpty {
			b = strconv.AppendInt(jsonenc.AppendMember(append(b, ','), -1, key), v, 10)
		}
	}
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	str("label", r.Label, false)
	str("config", r.Config, true)
	str("workload", r.Workload, true)
	num("seed_index", int64(r.SeedIndex), false)
	num("seed", r.Seed, false)
	num("attempts", int64(r.Attempts), false)
	str("outcome", r.Outcome, false)
	str("error", r.Error, true)
	num("delivered_bytes", int64(r.DeliveredBytes), true)
	if r.GoodputMbps != 0 {
		var ok bool
		if b, ok = jsonenc.AppendFloat(append(b, `,"goodput_mbps":`...), r.GoodputMbps); !ok {
			return b, fmt.Errorf("campaign: record %d: goodput %v is not a JSON number", r.Index, r.GoodputMbps)
		}
	}
	num("retransmissions", int64(r.Retransmissions), true)
	num("sent", int64(r.Sent), true)
	num("received", int64(r.Received), true)
	if r.MeanRTT != 0 {
		str("mean_rtt", r.MeanRTT.String(), false)
	}
	if r.MaxInterArrival != 0 {
		str("max_inter_arrival", r.MaxInterArrival.String(), false)
	}
	var err error
	if r.Report != nil {
		if b, err = r.Report.AppendJSON(append(b, `,"report":`...)); err != nil {
			return b, err
		}
	}
	if r.Series != nil {
		if b, err = jsonenc.AppendValue(append(b, `,"series":`...), -1, r.Series); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// RecordDecoder reads a stream of record lines back — a daemon's ndjson,
// a journal on resume. A line shaped the way appendJSON writes one, which
// is every line this build wrote, is read by the inverse of appendJSON:
// member by member in encoder order, without reflection (see
// jsonenc.Cursor and virtualwire.ReportDecoder, whose name tables the
// records of one stream share). Any other line — an older generation's,
// one indented or edited by hand, one with an escaped string or an
// unknown member — goes whole to json.Unmarshal, the reference the
// template is fuzzed against: the line's bytes alone pick the reader, and
// both read the same record. The zero value is ready to use; one decoder
// serves one stream and is not safe for concurrent use.
type RecordDecoder struct {
	report virtualwire.ReportDecoder
}

// Decode reads line, one record without its newline, into rec,
// overwriting all of it. The record keeps no reference to line.
func (d *RecordDecoder) Decode(line []byte, rec *RunRecord) error {
	if d.template(line, rec) {
		return nil
	}
	*rec = RunRecord{}
	return json.Unmarshal(line, rec)
}

// template is the inverse of appendJSON; false means line deviates from
// what appendJSON writes and rec is meaningless.
func (d *RecordDecoder) template(line []byte, rec *RunRecord) bool {
	var c jsonenc.Cursor
	c.Reset(line)
	*rec = RunRecord{}
	str := func(key string, v *string, omitEmpty bool) {
		if c.TryLit(key) {
			*v = string(c.String())
		} else if !omitEmpty {
			c.Fail()
		}
	}
	num := func(key string, v *int, omitEmpty bool) {
		if c.TryLit(key) {
			*v = c.Int()
		} else if !omitEmpty {
			c.Fail()
		}
	}
	dur := func(key string, v *Duration) {
		if c.TryLit(key) {
			t, err := time.ParseDuration(string(c.String()))
			if *v = Duration(t); err != nil {
				c.Fail()
			}
		}
	}
	c.Lit(`{"index":`)
	rec.Index = c.Int()
	str(`,"label":`, &rec.Label, false)
	str(`,"config":`, &rec.Config, true)
	str(`,"workload":`, &rec.Workload, true)
	num(`,"seed_index":`, &rec.SeedIndex, false)
	c.Lit(`,"seed":`)
	rec.Seed = c.Int64()
	num(`,"attempts":`, &rec.Attempts, false)
	str(`,"outcome":`, &rec.Outcome, false)
	str(`,"error":`, &rec.Error, true)
	num(`,"delivered_bytes":`, &rec.DeliveredBytes, true)
	if c.TryLit(`,"goodput_mbps":`) {
		rec.GoodputMbps = c.Float()
	}
	num(`,"retransmissions":`, &rec.Retransmissions, true)
	num(`,"sent":`, &rec.Sent, true)
	num(`,"received":`, &rec.Received, true)
	dur(`,"mean_rtt":`, &rec.MeanRTT)
	dur(`,"max_inter_arrival":`, &rec.MaxInterArrival)
	if c.TryLit(`,"report":`) {
		rec.Report = new(virtualwire.RunReport)
		rest, ok := d.report.DecodeJSON(c.Rest(), rec.Report)
		if c.Reset(rest); !ok {
			c.Fail()
		}
	}
	if c.TryLit(`,"series":`) {
		c.Value(&rec.Series)
	}
	c.Lit("}")
	return c.OK() && len(c.Rest()) == 0
}

// runFunc executes one attempt of one matrix point; tests substitute it
// to simulate transient failures.
type runFunc func(ctx context.Context, spec *Spec, p point, rec *RunRecord) error

// Options tunes the executor; the zero value is usable.
type Options struct {
	// Workers bounds concurrent runs (default GOMAXPROCS, clamped to
	// the matrix size). The worker count never affects output bytes.
	Workers int
	// Sink, when non-nil, receives one JSON line per finished run, in
	// run-index order. Writes happen from the collector only, so the
	// sink needs no locking.
	Sink io.Writer
	// OnRecord, when non-nil, observes each record after it is flushed
	// to the sink, in run-index order (progress bars, live dashboards,
	// tests that cancel mid-campaign).
	OnRecord func(RunRecord)
	// FirstIndex resumes an interrupted campaign: runs with index below
	// it are taken as already recorded by a previous invocation — they
	// are neither executed nor written, and the sink continues at
	// FirstIndex. Per-run seeds derive from the run index, so the
	// resumed records are byte-identical to an uninterrupted run's.
	FirstIndex int
	// Prior seeds the Summary with the records a previous invocation
	// already flushed (unmarshalled back from its sink). They are
	// tallied in order before any new run, never re-written, so the
	// final Summary equals the uninterrupted campaign's.
	Prior []RunRecord

	// run substitutes the per-attempt executor in tests. When set, the
	// reusable-testbed pipeline is bypassed entirely.
	run runFunc
}

// normalize resolves every defaultable option in one place, so the
// zero value of Options is usable and both executor paths (serial,
// pooled) agree on the effective settings. maxShards is the widest
// per-run shard count in the matrix: when any run has more than one
// shard, the worker pool shrinks so workers x shards stays within
// GOMAXPROCS — every goroutine in a sharded run computes, so
// oversubscribing the pool just adds barrier contention. A matrix of
// one-shard runs keeps the classic one-worker-per-CPU sizing (the
// worker count never affects output bytes either way).
func (o *Options) normalize(matrixSize, maxShards int) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if maxShards > 1 {
		if budget := runtime.GOMAXPROCS(0) / maxShards; o.Workers > budget {
			o.Workers = budget
		}
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.Workers > matrixSize && matrixSize > 0 {
		o.Workers = matrixSize
	}
}

// newRunner returns the per-attempt executor for one worker: the test
// substitute when set, otherwise a compile-once/reset-to-reuse executor
// owning its private testbed cache. Each worker gets its own runner, so
// testbeds are never shared across goroutines.
func (o *Options) newRunner() runFunc {
	if o.run != nil {
		return o.run
	}
	return testbedCache{}.run
}

// Run executes the spec's matrix and returns its Summary. The context
// cancels the whole campaign: in-flight runs stop at event-loop
// granularity, and Run returns the partial summary alongside ctx's error.
// The sink then holds the contiguous run-index prefix that finished —
// never a record above a hole — so a journal of it resumes with
// FirstIndex and Prior.
//
// Determinism: records are produced by independent seeded testbeds and
// flushed in run-index order, so the sink bytes and the Summary are
// identical for any worker count.
func Run(ctx context.Context, spec Spec, opts Options) (*Summary, error) {
	p, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, opts)
}

// Run executes an admitted plan; see Run. The matrix is never
// materialized: a worker computes its run from the index it takes, so
// memory is O(shapes + workers) however long the seed axis is.
func (p *Plan) Run(ctx context.Context, opts Options) (*Summary, error) {
	spec := &p.spec
	first := opts.FirstIndex
	if first < 0 {
		first = 0
	}
	if first > p.runs {
		return nil, fmt.Errorf("campaign: FirstIndex %d beyond the %d-run matrix", opts.FirstIndex, p.runs)
	}
	opts.normalize(p.runs-first, spec.MaxShards())
	workers := opts.Workers
	agg := newAggregator(spec, p.runs)
	// Fold the previous invocation's records into the tallies, in their
	// original order, without re-writing them: the resumed Summary must
	// equal the uninterrupted campaign's.
	var noSink Options
	for _, r := range opts.Prior {
		if err := agg.collect(r, &noSink); err != nil {
			return agg.finish(), err
		}
	}
	if first == p.runs {
		return agg.finish(), nil
	}

	if workers <= 1 {
		run := opts.newRunner()
		for i := first; i < p.runs && ctx.Err() == nil; i++ {
			rec := runPoint(ctx, spec, p.point(i), run)
			if err := agg.collect(rec, &opts); err != nil {
				return agg.finish(), err
			}
		}
		return agg.finish(), ctx.Err()
	}

	// The reorder window bounds how far ahead of the oldest unflushed run
	// a worker may start, keeping memory O(workers), not O(runs), even
	// when one slow run holds up the ordered flush.
	window := 4 * workers

	// Workers acquire a window slot BEFORE taking a run index, so the
	// worker that ends up with the lowest outstanding index can never
	// starve behind higher indices holding every slot; the collector
	// releases a slot per flushed record.
	sem := make(chan struct{}, window)
	results := make(chan RunRecord, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := opts.newRunner()
			for {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				i := first + int(next.Add(1)) - 1
				if i >= p.runs {
					<-sem
					return
				}
				results <- runPoint(ctx, spec, p.point(i), run)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single collector: reorder to run-index order, flush the
	// contiguous prefix, release window slots as records retire.
	pending := make(map[int]RunRecord, window)
	base := first
	var sinkErr error
	for rec := range results {
		pending[rec.Index] = rec
		for {
			r, ok := pending[base]
			if !ok {
				break
			}
			delete(pending, base)
			base++
			<-sem
			if err := agg.collect(r, &opts); err != nil && sinkErr == nil {
				sinkErr = err
			}
			if sinkErr != nil || r.Outcome == OutcomeCanceled {
				// Keep draining so workers can exit, but write no more:
				// past a sink error, or past the hole a canceled run
				// leaves (canceled records are never written), which
				// would break the contiguous prefix a resume scan reads.
				// Runs finished above a never-taken index stay pending,
				// unwritten and untallied.
				opts.Sink, opts.OnRecord = nil, nil
			}
		}
	}
	sum := agg.finish()
	if sinkErr != nil {
		return sum, sinkErr
	}
	return sum, ctx.Err()
}

// runPoint executes one matrix point with the retry policy: transient
// failures (launch failure, wall-clock timeout) are retried up to
// spec.Retries extra attempts; campaign cancellation and permanent
// errors are not.
func runPoint(ctx context.Context, spec *Spec, p point, run runFunc) RunRecord {
	base := RunRecord{
		Index: p.index, Label: p.runLabel,
		Config: p.cfgLabel, Workload: p.wlLabel,
		SeedIndex: p.seedIndex, Seed: p.seed,
	}
	for attempt := 1; ; attempt++ {
		rec := base
		rec.Attempts = attempt
		err := run(ctx, spec, p, &rec)
		if err == nil && rec.Report != nil {
			err = rec.Report.Err()
		}
		if err == nil {
			if rec.Report == nil || rec.Report.Passed || rec.Report.Scenario == "" {
				rec.Outcome = OutcomePass
			} else {
				rec.Outcome = OutcomeFail
			}
			return rec
		}
		rec.Error = err.Error()
		if ctx.Err() != nil {
			rec.Outcome = OutcomeCanceled
			return rec
		}
		if attempt <= spec.Retries && Transient(err) {
			continue
		}
		switch {
		case errors.Is(err, virtualwire.ErrLaunchFailed):
			rec.Outcome = OutcomeLaunchFailed
		case errors.Is(err, virtualwire.ErrHorizonExceeded):
			rec.Outcome = OutcomeTimeout
		default:
			rec.Outcome = OutcomeError
		}
		return rec
	}
}

// Transient reports whether err is worth retrying with a fresh testbed:
// launch failures, unreachable nodes and per-run wall-clock timeouts
// qualify; script errors and campaign cancellation do not.
func Transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, virtualwire.ErrScriptParse) {
		return false
	}
	return errors.Is(err, virtualwire.ErrLaunchFailed) ||
		errors.Is(err, virtualwire.ErrUnreachable) ||
		errors.Is(err, virtualwire.ErrHorizonExceeded) ||
		errors.Is(err, context.DeadlineExceeded)
}

// testbedCache is the compile-once/reset-to-reuse executor: one per
// worker goroutine (never shared), it keeps a long-lived testbed per
// matrix shape and rewinds it with Testbed.Reset between runs instead
// of rebuilding the whole stack. Reset-vs-fresh determinism is a tested
// invariant of the facade, so which path a given run takes — and
// therefore the worker count — never changes the record bytes.
type testbedCache map[int]*virtualwire.Testbed // shape id → reusable testbed

// run executes one attempt of one point on the shape's testbed, building
// it on the shape's first run and rewinding it on every later one.
func (c testbedCache) run(ctx context.Context, spec *Spec, p point, rec *RunRecord) error {
	tb := c[p.id]
	if tb != nil {
		if err := tb.Reset(p.seed); err != nil {
			// A testbed that cannot be rewound (never built) is dropped,
			// not reused dirty.
			delete(c, p.id)
			tb = nil
		}
	}
	if tb == nil {
		var err error
		if tb, err = newTestbed(spec, p.shape, p.seed); err != nil {
			return err
		}
		c[p.id] = tb
	}
	return finishRun(ctx, spec, p, rec, tb)
}

// newTestbed declares a shape's testbed: its config, its hosts — from
// Spec.Nodes when that names them, else from the script's NODE_TABLE,
// else Spec.Hosts generated ones — and its compiled scenario, staged.
// Nothing is constructed until the testbed first runs, so the plan
// declares one per shape just to have it checked.
func newTestbed(spec *Spec, sh *shape, seed int64) (*virtualwire.Testbed, error) {
	cfg := sh.cfg
	cfg.Seed = seed
	tb, err := virtualwire.New(cfg)
	if err != nil {
		return nil, err
	}
	switch {
	case spec.Nodes != "" && spec.Nodes != sh.script:
		err = tb.AddNodesFromScript(spec.Nodes)
	case sh.compiled != nil:
		err = tb.AddNodesFromCompiled(sh.compiled)
	default:
		_, err = tb.AddHostGroup("h", spec.Hosts)
	}
	if err == nil && sh.compiled != nil {
		err = tb.LoadCompiled(sh.compiled)
	}
	return tb, err
}

// finishRun installs the point's workload on a staged testbed, runs it
// to the horizon under the per-run wall-clock timeout, and extracts the
// record.
func finishRun(ctx context.Context, spec *Spec, p point, rec *RunRecord, tb *virtualwire.Testbed) error {
	var m measurer
	var err error
	if p.wl != nil {
		if m, err = p.wl.install(tb); err != nil {
			return err
		}
	}
	runCtx := ctx
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, spec.Timeout.D())
		defer cancel()
	}
	rep, err := tb.RunContext(runCtx, spec.Horizon.D())
	rec.Report = &rep
	if p.cfg.MetricsSampleInterval > 0 {
		// No warm-pool reading: it depends on the worker and shards.
		series := tb.MetricsSeries()
		series.Final = slices.DeleteFunc(series.Final, virtualwire.WarmPoolReading)
		rec.Series = &series
	}
	if m != nil {
		m.measure(rec)
	}
	if err != nil && runCtx.Err() != nil && ctx.Err() == nil {
		// The per-run deadline fired, not the campaign context: label
		// it a wall-clock timeout so the retry policy treats it as
		// transient.
		err = fmt.Errorf("campaign: run %d exceeded wall-clock timeout %v: %w: %w",
			p.index, time.Duration(spec.Timeout), virtualwire.ErrHorizonExceeded, err)
	}
	return err
}

// aggregator folds flushed records into the Summary; single-goroutine.
type aggregator struct {
	sum      Summary
	goodputs []float64
	rtts     []float64
	rollup   *metrics.Rollup
	line     []byte // the sink's current line; reused record to record
}

func newAggregator(spec *Spec, runs int) *aggregator {
	return &aggregator{
		sum: Summary{
			Name:     spec.Name,
			Seed:     spec.Seed,
			Runs:     runs,
			Outcomes: make(map[string]int),
		},
		rollup: metrics.NewRollup(),
		line:   make([]byte, 0, 4096), // a two-host record is ~3.4 KB
	}
}

// collect flushes one record (sink, callback) and folds it into the
// tallies. Canceled records are tallied but never written.
func (a *aggregator) collect(rec RunRecord, opts *Options) error {
	a.sum.Outcomes[rec.Outcome]++
	if rec.Outcome == OutcomeCanceled {
		a.sum.Canceled++
		return nil
	}
	a.sum.Completed++
	a.sum.Attempts += rec.Attempts
	if rec.Attempts > 1 {
		a.sum.Retried++
	}
	switch rec.Outcome {
	case OutcomePass:
		a.sum.Passed++
	case OutcomeFail:
		a.sum.Failed++
	case OutcomeLaunchFailed:
		a.sum.LaunchFailed++
	case OutcomeTimeout:
		a.sum.Timeouts++
	default:
		a.sum.Errored++
	}
	if rep := rec.Report; rep != nil {
		a.sum.FlaggedErrors += len(rep.Errors)
		a.sum.FaultsInjected += len(rep.Faults)
		a.sum.Events += rep.Events
		a.sum.VirtualTime += Duration(rep.Duration)
		a.rollup.Add(rep.Metrics.Totals)
	}
	if rec.GoodputMbps > 0 {
		a.goodputs = append(a.goodputs, rec.GoodputMbps)
	}
	if rec.MeanRTT > 0 {
		a.rtts = append(a.rtts, float64(rec.MeanRTT))
	}
	if opts.Sink != nil {
		// One Write per record, whole lines only: a journaling sink counts
		// on every byte it has accepted being part of a complete record.
		line, err := rec.appendJSON(a.line[:0])
		if err != nil {
			return fmt.Errorf("campaign: marshal record %d: %w", rec.Index, err)
		}
		a.line = append(line, '\n')
		if _, err := opts.Sink.Write(a.line); err != nil {
			return fmt.Errorf("campaign: sink write: %w", err)
		}
	}
	if opts.OnRecord != nil {
		opts.OnRecord(rec)
	}
	return nil
}

// finish returns the Summary as a value of its own: a pointer into the
// aggregator would keep its line buffer, sample lists and rollup alive
// for as long as anyone holds the summary, and the daemon holds one per
// finished job.
func (a *aggregator) finish() *Summary {
	sum := a.sum
	sum.Interrupted = sum.Completed < sum.Runs
	if len(a.goodputs) > 0 {
		d := metrics.Summarize(a.goodputs)
		sum.GoodputMbps = &d
	}
	if len(a.rtts) > 0 {
		d := metrics.Summarize(a.rtts)
		sum.RTTNanos = &d
	}
	if a.rollup.Runs() > 0 {
		sum.MetricsTotals = a.rollup.Totals()
	}
	return &sum
}
