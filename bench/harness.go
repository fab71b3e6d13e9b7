package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"
)

// opOutcome is what one op hands back to the harness.
type opOutcome struct {
	// out is the op's serialized output (the RunReport JSON, or the
	// campaign's JSONL), valid until the instance's next op.
	out []byte
	// fail says which correctness check the op failed; "" if none.
	fail string
	// totals are the op's layer counters: RunReport.Metrics.Totals, or
	// the campaign summary's roll-up over its runs.
	totals map[string]float64
	// firstRecord is the daemon's submit-to-first-record latency.
	firstRecord time.Duration
}

// instance is one set-up of a workload: everything built, ready to run
// ops one after another (closed loop, one client).
type instance interface {
	op(seed int64, opID int, tr *tracer) opOutcome
	close() error
}

// verifier is an instance with a check too slow for every op, run
// before and after the timed region.
type verifier interface {
	verify(seed int64, opID int) string
}

// workload is one named set of inputs. Which layer each one loads, and
// why it exists, is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// warmup is how many ops run, unrecorded, before the timed region.
	warmup int
	// setup builds a fresh instance under seed; outDir is where an
	// instance may keep files.
	setup func(seed int64, outDir string) (instance, error)
	// layers fills the per-layer metrics of the traced run.
	layers func(lc *layerContext) error
}

var workloads = []*workload{
	{name: "tcp_scripted", warmup: 20, layers: simLayers(tcpScripted()),
		setup: func(seed int64, _ string) (instance, error) { return newSimInstance(tcpScripted(), seed) }},
	{name: "udp_echo_filters", warmup: 10, layers: simLayers(udpEchoFilters()),
		setup: func(seed int64, _ string) (instance, error) { return newSimInstance(udpEchoFilters(), seed) }},
	{name: "rether_bus", warmup: 10, layers: simLayers(retherBus()),
		setup: func(seed int64, _ string) (instance, error) { return newSimInstance(retherBus(), seed) }},
	{name: "fabric_manyflow", warmup: 2, layers: simLayers(fabricManyflow(1)),
		setup: func(seed int64, _ string) (instance, error) { return newSimInstance(fabricManyflow(1), seed) }},
	{name: "campaign_matrix", warmup: 2, layers: campaignLayers,
		setup: func(int64, string) (instance, error) { return newCampaignInstance(matrixSeeds, 1), nil }},
	{name: "daemon_roundtrip", warmup: 5, layers: daemonLayers,
		setup: func(_ int64, outDir string) (instance, error) { return newDaemonInstance(daemonSeeds, outDir) }},
}

// Seed-axis sizes: 128 seeds x 2 BER = 256 runs per campaign_matrix op,
// 32 x 2 = 64 per daemon_roundtrip op.
const (
	matrixSeeds = 128
	daemonSeeds = 32
)

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are one run's settings, straight from the command line.
type options struct {
	seed    int64
	seconds float64 // length of the timed region...
	ops     int     // ...or, when positive, its exact op count
	setups  int
	traced  bool
	outDir  string
}

// result is one workload's run: what the last stdout line says, plus
// the context needed to compare it with another run later.
type result struct {
	Env         environment            `json:"env"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Setups      int                    `json:"setups"`
	WarmupOps   int                    `json:"warmup_ops"`
	Ops         int                    `json:"ops"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	Correct     bool                   `json:"correct"`
	Failures    []string               `json:"failures,omitempty"`
	SimDigest   string                 `json:"sim_digest"`
	WallS       float64                `json:"wall_s"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Info holds the informational timings of an untraced run.
	Info map[string]metricValue `json:"info,omitempty"`
}

// runner is the state of one workload's run.
type runner struct {
	w    *workload
	opt  options
	res  *result
	inst instance
	next int // id of the next op; op i runs under seed+i
	log  io.Writer
}

// do runs one op on the current instance under the next seed and
// tallies it.
func (r *runner) do(tr *tracer) (opOutcome, time.Duration) {
	id := r.next
	r.next++
	t0 := time.Now()
	o := r.inst.op(r.opt.seed+int64(id), id, tr)
	d := time.Since(t0)
	r.tally(o.fail, id)
	return o, d
}

func (r *runner) tally(fail string, opID int) {
	r.res.Attempted++
	if fail == "" {
		return
	}
	r.res.Failed++
	if len(r.res.Failures) < 5 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("op %d: %s", opID, fail))
	}
}

// freshSetup builds a new instance and runs its first op, under the
// run's base seed, returning how long both took together.
func (r *runner) freshSetup() (opOutcome, time.Duration, error) {
	if r.inst != nil {
		if err := r.inst.close(); err != nil {
			return opOutcome{}, 0, err
		}
		r.inst = nil
	}
	runtime.GC()
	t0 := time.Now()
	inst, err := r.w.setup(r.opt.seed, r.opt.outDir)
	if err != nil {
		return opOutcome{}, 0, fmt.Errorf("set-up: %w", err)
	}
	r.inst = inst
	o := inst.op(r.opt.seed, 0, nil)
	d := time.Since(t0)
	r.tally(o.fail, 0)
	return o, d, nil
}

// warm runs the warm-up ops and then the two determinism checks that
// sit outside the timed region: the base seed replayed on the warmed
// instance must reproduce the fresh instance's bytes (reset == fresh),
// and an instance with a slow check of its own runs it.
func (r *runner) warm(fresh []byte) {
	r.next = 1
	for i := 0; i < r.w.warmup; i++ {
		r.do(nil)
	}
	o := r.inst.op(r.opt.seed, 0, nil)
	fail := o.fail
	if fail == "" && !bytes.Equal(o.out, fresh) {
		fail = fmt.Sprintf("replay of seed %d on the warmed instance differs from the fresh instance's bytes", r.opt.seed)
	}
	r.tally(fail, 0)
	r.verify()
}

func (r *runner) verify() {
	if v, ok := r.inst.(verifier); ok {
		id := r.next
		r.next++
		r.tally(v.verify(r.opt.seed+int64(id), id), id)
	}
}

// region is the measurements of one timed stretch of ops.
type region struct {
	durs        []float64 // per-op wall time, ns
	firsts      []float64 // per-op first-record latency, ns (daemon)
	totals      map[string]float64
	outBytes    float64
	mallocs     float64
	allocBytes  float64
	digest      [sha256.Size]byte
	elapsedOpNs float64
}

// timed runs ops for seconds (or exactly r.opt.ops of them) and
// measures them. Everything the loop touches between ops is allocated
// before it starts, so the allocation delta is the program's own.
func (r *runner) timed(seconds float64, tr *tracer) region {
	const minOps = 3
	// Room for a 20 s region of the fastest workload; kept small because
	// what the harness holds live moves the collector's pacing.
	reg := region{
		durs:   make([]float64, 0, 1<<13),
		firsts: make([]float64, 0, 1<<13),
		totals: make(map[string]float64, 64),
	}
	h := sha256.New()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; ; n++ {
		if r.opt.ops > 0 {
			if n >= r.opt.ops {
				break
			}
		} else if n >= minOps && time.Since(start).Seconds() >= seconds {
			break
		}
		o, d := r.do(tr)
		reg.durs = append(reg.durs, float64(d))
		reg.elapsedOpNs += float64(d)
		if o.firstRecord > 0 {
			reg.firsts = append(reg.firsts, float64(o.firstRecord))
		}
		reg.outBytes += float64(len(o.out))
		for k, v := range o.totals {
			reg.totals[k] += v
		}
		h.Write(o.out)
	}
	runtime.ReadMemStats(&m1)
	reg.mallocs = float64(m1.Mallocs - m0.Mallocs)
	reg.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	h.Sum(reg.digest[:0])
	return reg
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(w *workload, opt options, log io.Writer) (*result, error) {
	t0 := time.Now()
	r := &runner{w: w, opt: opt, log: log, res: &result{
		Env: readEnvironment(opt.outDir), Workload: w.name, Seed: opt.seed,
		Traced: opt.traced, Setups: opt.setups, WarmupOps: w.warmup,
	}}
	if opt.traced {
		r.res.Setups = 1
	}
	defer func() {
		if r.inst != nil {
			r.inst.close()
		}
	}()
	var (
		ms  metricSet
		err error
	)
	if opt.traced {
		ms, err = r.runTraced()
	} else {
		ms, err = r.runUntraced()
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	if r.res.Metrics, err = ms.render(defs); err != nil {
		return nil, err
	}
	r.res.FailedShare = ratio(float64(r.res.Failed), float64(r.res.Attempted))
	r.res.Correct = r.res.Failed == 0
	r.res.WallS = time.Since(t0).Seconds()
	return r.res, nil
}

// runUntraced measures the end-to-end metrics.
func (r *runner) runUntraced() (metricSet, error) {
	var (
		setups []float64
		fresh  []byte
		spent  time.Duration
	)
	// At least opt.setups set-ups; in a timed run, a workload that sets
	// up in milliseconds repeats until half a second is spent, so that
	// its quartile rests on more than nine samples.
	more := func(i int) bool { return r.opt.ops == 0 && spent < time.Second/2 && i < 64 }
	for i := 0; i < r.opt.setups || more(i); i++ {
		o, d, err := r.freshSetup()
		if err != nil {
			return nil, err
		}
		spent += d
		setups = append(setups, d.Seconds())
		fresh = append(fresh[:0], o.out...)
	}
	r.res.Setups = len(setups)
	r.warm(fresh)
	reg := r.timed(r.opt.seconds, nil)
	r.verify()
	if err := r.inst.close(); err != nil {
		return nil, err
	}
	r.inst = nil

	n := float64(len(reg.durs))
	r.res.Ops = len(reg.durs)
	r.res.SimDigest = hex.EncodeToString(reg.digest[:])
	info, err := metricSet{
		"ops_per_s":   n / (reg.elapsedOpNs / 1e9),
		"op_ms_p50":   percentile(reg.durs, 50) / 1e6,
		"op_ms_p90":   percentile(reg.durs, 90) / 1e6,
		"setup_s_p50": median(setups),
	}.render(informational)
	if err != nil {
		return nil, err
	}
	r.res.Info = info
	return metricSet{
		"setup_s":         percentile(setups, 25),
		"op_ms_p05":       percentile(reg.durs, 5) / 1e6,
		"alloc_kb_per_op": reg.allocBytes / 1024 / n,
		"peak_rss_mb":     peakRSSMiB(),
	}, nil
}

// runTraced measures the per-layer metrics: a stretch of untraced ops
// for the baseline, the same stretch again with spans recorded, then
// whatever the workload's layers need measured on their own.
func (r *runner) runTraced() (metricSet, error) {
	o, _, err := r.freshSetup()
	if err != nil {
		return nil, err
	}
	r.warm(append([]byte(nil), o.out...))
	plain := r.timed(r.opt.seconds/4, nil)
	tr := newTracer()
	traced := r.timed(r.opt.seconds/4, tr)
	r.res.Ops = len(traced.durs)
	r.res.SimDigest = hex.EncodeToString(traced.digest[:])

	path := filepath.Join(r.opt.outDir, "trace-"+r.w.name+".json")
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(r.log, "trace: %d spans of %d ops written to %s\n", len(tr.spans), len(traced.durs), path)
	spans := tr.selfTimes()
	printSelfTimes(r.log, spans)

	lc := &layerContext{
		r: r, m: metricSet{}, spans: spans,
		plain: plain, traced: traced,
		opNs:   percentile(plain.durs, 50),
		counts: make(map[string]float64, len(plain.totals)),
		model:  make(map[string]float64),
	}
	ops := float64(len(plain.durs) + len(traced.durs))
	for k, v := range plain.totals {
		lc.counts[k] = (v + traced.totals[k]) / ops
	}
	lc.m["harness.trace_overhead_pct"] = (ratio(percentile(traced.durs, 50), lc.opNs) - 1) * 100
	dropBallast()
	unpinned := r.timed(r.opt.seconds/8, nil)
	holdBallast()
	lc.m["harness.default_gc_ratio"] = ratio(percentile(unpinned.durs, 50), lc.opNs)
	lc.countMetrics()
	if err := r.w.layers(lc); err != nil {
		return nil, err
	}
	lc.shares()
	return lc.m, nil
}
