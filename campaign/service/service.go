// Package service runs fault-injection campaigns as a service: a
// Manager owns a multi-tenant job queue over the campaign executor,
// schedules queued campaigns fairly (round-robin across tenants) within
// a shared worker-slot budget, journals every job to disk so a killed
// daemon resumes interrupted campaigns without re-running completed
// runs, and exposes the whole thing over an HTTP/JSON API (see
// NewHandler) consumed by cmd/vwcampaignd and the vwcampaign client.
//
// Determinism contract: a job's runs.jsonl is byte-identical to an
// in-process campaign.Run of the same spec at any worker or shard
// count, including across a kill+resume of the daemon mid-campaign.
// The pieces that make that hold: per-run seeds derive from (campaign
// seed, run index); the executor flushes records in run-index order and
// keeps its sink, the journal, a contiguous run-index prefix; and the
// resume scan truncates anything after that prefix before handing
// campaign.Run the remaining indexes. See docs/SERVICE.md.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"virtualwire/campaign"
)

// Job states, as reported in JobStatus.State.
const (
	// StateQueued: accepted and journaled, waiting for worker slots.
	StateQueued = "queued"
	// StateRunning: executing under the scheduler's slot grant.
	StateRunning = "running"
	// StateDone: every run recorded and the summary journaled.
	StateDone = "done"
	// StateFailed: the executor returned a non-cancellation error, or
	// the journal failed integrity checks at resume.
	StateFailed = "failed"
	// StateCanceled: canceled by a client; the journaled prefix and a
	// partial summary remain readable.
	StateCanceled = "canceled"
)

// Config tunes a Manager. Dir is required; everything else defaults.
type Config struct {
	// Dir is the journal root. Jobs live in Dir/jobs/<id>/.
	Dir string
	// Budget is the shared worker-slot pool: the sum over running jobs
	// of workers × max shards per run never exceeds it (default
	// GOMAXPROCS). One slot is one expected-busy goroutine.
	Budget int
	// DefaultWorkers is granted to jobs that do not ask for a worker
	// count (default: the full budget).
	DefaultWorkers int
	// Logf, when non-nil, receives one line per job state transition.
	Logf func(format string, args ...any)
}

// Manager is the campaign service: submit jobs, watch them, stream
// their journals, cancel them. Safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string          // job IDs in submit order
	tenants  []string          // tenant names in first-appearance order
	queues   map[string][]*Job // tenant → queued jobs, FIFO
	rrNext   int               // round-robin cursor into tenants
	free     int               // free worker slots
	nextSeq  int               // next job sequence number
	startSeq int               // scheduler start counter (fairness observable)
	closed   bool

	closedCh chan struct{}
	wg       sync.WaitGroup
	lock     *os.File // held flock on Dir/LOCK for the manager's lifetime
}

// Job is one submitted campaign and its journal. All mutable fields
// are guarded by the Manager's mutex; safeLen is atomic so streamers
// can tail the journal without taking it.
type Job struct {
	id     string
	seq    int
	tenant string
	dir    string

	spec     campaign.Spec
	specHash string
	plan     *campaign.Plan // what was admitted, and what runs; nil once terminal
	workers  int            // effective worker grant
	cost     int            // slots held while running (see grant)

	state      string
	startSeq   int
	runs       int
	completed  int
	passed     int
	failed     int
	errText    string
	resumed    bool
	firstIndex int
	prior      []campaign.RunRecord
	summary    *campaign.Summary

	safeLen atomic.Int64 // journal bytes safe to serve (whole records only)
	cancel  context.CancelFunc
	done    chan struct{} // closed on terminal state
	change  chan struct{} // closed and replaced on every visible update
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	SpecHash string `json:"spec_hash"`
	Workers  int    `json:"workers"`
	// Runs is the matrix size; Completed counts journaled records.
	Runs      int `json:"runs"`
	Completed int `json:"completed"`
	Passed    int `json:"passed"`
	Failed    int `json:"failed"`
	// ResumedFrom is the run index this daemon resumed the job at,
	// after recovering its journal (0 for jobs born here).
	ResumedFrom int `json:"resumed_from,omitempty"`
	// StartSeq orders scheduler starts across jobs (1 = started first);
	// 0 means not started yet. It makes fairness observable and
	// testable without wall-clock timestamps.
	StartSeq int    `json:"start_seq,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Open loads (or initializes) the journal root and returns a running
// Manager. Jobs a previous daemon left unfinished — no terminal status
// on disk — are re-queued at their journal's resume point, in original
// submit order, before any new submission.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: Config.Dir is required")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultWorkers <= 0 || cfg.DefaultWorkers > cfg.Budget {
		cfg.DefaultWorkers = cfg.Budget
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	// Two managers over one journal root would truncate and append each
	// other's files; an exclusive flock makes that a startup error.
	lock, err := lockDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		queues:   make(map[string][]*Job),
		free:     cfg.Budget,
		closedCh: make(chan struct{}),
		lock:     lock,
	}
	if err := m.loadJournal(); err != nil {
		lock.Close()
		return nil, err
	}
	m.mu.Lock()
	m.scheduleLocked()
	m.mu.Unlock()
	return m, nil
}

// Budget reports the manager's worker-slot pool size.
func (m *Manager) Budget() int { return m.cfg.Budget }

// Submit plans, journals and enqueues one campaign for tenant. A spec
// the plan rejects (a *campaign.FieldError) leaves nothing behind.
// workers <= 0 asks for the default grant; the grant is clamped so
// workers × spec.MaxShards fits the budget.
func (m *Manager) Submit(tenant string, spec *campaign.Spec, workers int) (JobStatus, error) {
	plan, err := spec.Plan()
	if err != nil {
		return JobStatus{}, err
	}
	return m.submit(tenant, plan, workers)
}

// submit journals and enqueues an admitted plan; the job runs that plan,
// so its scripts are compiled once however it arrived.
func (m *Manager) submit(tenant string, plan *campaign.Plan, workers int) (JobStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	norm := plan.Spec()

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: manager is closed")
	}
	m.nextSeq++
	seq := m.nextSeq
	m.mu.Unlock()

	j := &Job{
		id:       fmt.Sprintf("j%06d", seq),
		seq:      seq,
		tenant:   tenant,
		spec:     *norm,
		specHash: norm.Hash(),
		plan:     plan,
		state:    StateQueued,
		runs:     norm.Runs(),
		done:     make(chan struct{}),
		change:   make(chan struct{}),
	}
	j.workers, j.cost = m.grant(norm, workers)
	j.dir = filepath.Join(m.cfg.Dir, "jobs", j.id)
	if err := writeJobHeader(j); err != nil {
		return JobStatus{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobStatus{}, fmt.Errorf("service: manager is closed")
	}
	m.addJobLocked(j)
	m.enqueueLocked(j)
	m.scheduleLocked()
	return j.statusLocked(), nil
}

// grant resolves a worker request (<= 0 asks for the default) against
// the budget: workers × the spec's widest shard count must fit, but never
// below one worker. The cost is what the job holds while running. A job
// whose minimal footprint (one worker × its shard width) exceeds the
// budget is admitted at full-budget cost rather than rejected — it simply
// runs alone, and the campaign executor's own GOMAXPROCS clamp bounds the
// real parallelism.
func (m *Manager) grant(spec *campaign.Spec, requested int) (workers, cost int) {
	workers, shards := requested, spec.MaxShards()
	if workers <= 0 {
		workers = m.cfg.DefaultWorkers
	}
	if workers*shards > m.cfg.Budget {
		workers = max(m.cfg.Budget/shards, 1)
	}
	return workers, min(workers*shards, m.cfg.Budget)
}

// addJobLocked registers the job in the id map and orderings.
func (m *Manager) addJobLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	if _, ok := m.queues[j.tenant]; !ok {
		found := false
		for _, t := range m.tenants {
			if t == j.tenant {
				found = true
				break
			}
		}
		if !found {
			m.tenants = append(m.tenants, j.tenant)
		}
		m.queues[j.tenant] = nil
	}
}

func (m *Manager) enqueueLocked(j *Job) {
	m.queues[j.tenant] = append(m.queues[j.tenant], j)
}

// scheduleLocked starts every queued job the budget allows, visiting
// tenants round-robin from the cursor so no tenant's queue depth can
// starve another tenant's next job. Within a tenant, jobs start in
// submit order (head of line).
func (m *Manager) scheduleLocked() {
	if m.closed {
		return
	}
	for {
		started := false
		n := len(m.tenants)
		for k := 0; k < n; k++ {
			ti := (m.rrNext + k) % n
			q := m.queues[m.tenants[ti]]
			if len(q) == 0 {
				continue
			}
			j := q[0]
			if j.cost > m.free {
				continue
			}
			m.queues[m.tenants[ti]] = q[1:]
			m.rrNext = (ti + 1) % n
			m.startLocked(j)
			started = true
		}
		if !started {
			return
		}
	}
}

func (m *Manager) startLocked(j *Job) {
	m.free -= j.cost
	m.startSeq++
	j.startSeq = m.startSeq
	j.state = StateRunning
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.bumpLocked(j)
	m.cfg.Logf("service: job %s (tenant %s): running (%d workers, %d slots, resume from %d)",
		j.id, j.tenant, j.workers, j.cost, j.firstIndex)
	m.wg.Add(1)
	go m.runJob(ctx, j)
}

// runJob executes the job's campaign against its journal.
func (m *Manager) runJob(ctx context.Context, j *Job) {
	defer m.wg.Done()
	f, err := os.OpenFile(filepath.Join(j.dir, recordsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		m.finishJob(j, nil, fmt.Errorf("service: open journal: %w", err))
		return
	}
	sink := &journalSink{f: f, j: j}
	opts := campaign.Options{
		Workers:    j.workers,
		Sink:       sink,
		FirstIndex: j.firstIndex,
		Prior:      j.prior,
		OnRecord:   func(r campaign.RunRecord) { m.noteRecord(j, r) },
	}
	sum, runErr := j.plan.Run(ctx, opts)
	if cerr := f.Close(); runErr == nil && cerr != nil {
		runErr = fmt.Errorf("service: close journal: %w", cerr)
	}
	m.finishJob(j, sum, runErr)
}

// journalSink appends whole record lines to the journal and publishes
// the new safe length. The campaign collector writes exactly one line
// per call, so safeLen only ever advances over complete records.
type journalSink struct {
	f *os.File
	j *Job
}

func (s *journalSink) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	if err == nil {
		s.j.safeLen.Add(int64(n))
	}
	return n, err
}

// noteRecord folds one flushed record into the job's live counters.
func (m *Manager) noteRecord(j *Job, r campaign.RunRecord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.completed++
	if r.Outcome == campaign.OutcomePass {
		j.passed++
	} else {
		j.failed++
	}
	m.bumpLocked(j)
}

// finishJob ends a run: retires the job, releases its slots and wakes
// the scheduler. A manager shutdown (Close) is not terminal — the journal
// is left resumable and no status is written, exactly as if the daemon had
// been killed.
func (m *Manager) finishJob(j *Job, sum *campaign.Summary, runErr error) {
	m.mu.Lock()
	interrupted, canceled := m.closed, j.state == StateCanceled
	m.mu.Unlock()
	switch {
	case interrupted: // not an end: the journal stays as a kill leaves it
	case canceled:
		m.retire(j, StateCanceled, "", sum)
	case runErr != nil:
		m.retire(j, StateFailed, runErr.Error(), nil)
	default:
		m.retire(j, StateDone, "", sum)
	}

	m.mu.Lock()
	if interrupted {
		j.state = StateRunning // a cancel that raced Close is not journaled either
	}
	m.free += j.cost
	m.cfg.Logf("service: job %s (tenant %s): %s (%d/%d runs)", j.id, j.tenant, j.state, j.completed, j.runs)
	m.scheduleLocked()
	m.mu.Unlock()
}

// retire ends a job in one place. Its terminal record — state, error,
// tally, the journal's safe length and the summary, if any — goes to
// status.json with one rename; then the job takes that state, lets go of
// what only a run needs, and wakes its waiters. A record that cannot be
// written leaves the job retired here but not on disk, where a reopened
// manager finds it unfinished: the error says so on the job, in the log
// and to the caller.
func (m *Manager) retire(j *Job, state, errText string, sum *campaign.Summary) error {
	m.mu.Lock()
	rec := statusRecord{State: state, Error: errText, Completed: j.completed, Passed: j.passed}
	m.mu.Unlock()
	safe := j.safeLen.Load()
	rec.JournalLen = &safe
	var err error
	if sum != nil {
		rec.Summary, err = json.Marshal(sum)
	}
	if err == nil {
		err = writeJSONFile(j.dir, statusFile, rec)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("service: job %s %s but not journaled, a reopened manager will run it: %w", j.id, state, err)
		m.cfg.Logf("%v", err)
		errText = strings.TrimPrefix(errText+"; "+err.Error(), "; ")
	}
	j.state, j.errText, j.summary = state, errText, sum
	j.prior, j.plan = nil, nil // the journal owns the records now, and nothing runs this job again
	close(j.done)
	m.bumpLocked(j)
	return err
}

// bumpLocked wakes everything waiting on the job's state.
func (m *Manager) bumpLocked(j *Job) {
	close(j.change)
	j.change = make(chan struct{})
}

// Get returns the job's current status.
func (m *Manager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	return j.statusLocked(), nil
}

// List returns every job's status in submit order; tenant filters when
// non-empty.
func (m *Manager) List(tenant string) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []JobStatus
	for _, id := range m.order {
		j := m.jobs[id]
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.statusLocked())
	}
	return out
}

// Cancel stops a queued or running job. Canceling a terminal job is a
// no-op returning its status. An error beside a non-empty status means
// the job is canceled here but the journal could not be told.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	switch j.state {
	case StateQueued:
		q := m.queues[j.tenant]
		for i, qj := range q {
			if qj == j {
				m.queues[j.tenant] = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		j.state = StateCanceled // off the queue: nothing starts it now
		m.mu.Unlock()
		// Only status.json keeps a reopened manager from re-queueing the
		// job; retire reports a cancel it could not journal.
		err := m.retire(j, StateCanceled, "", nil)
		st, _ := m.Get(id)
		return st, err
	case StateRunning:
		j.state = StateCanceled // finishJob sees this and journals it
		cancel := j.cancel
		m.bumpLocked(j)
		m.mu.Unlock()
		cancel()
		st, err := m.Get(id)
		return st, err
	default:
		st := j.statusLocked()
		m.mu.Unlock()
		return st, nil
	}
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its final status.
func (m *Manager) Wait(ctx context.Context, id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	done := j.done
	m.mu.Unlock()
	select {
	case <-done:
		return m.Get(id)
	case <-m.closedCh:
		return JobStatus{}, fmt.Errorf("service: manager closed while waiting for %s", id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Summary returns the job's summary: the full one for done jobs, the
// partial one for canceled jobs that ran.
func (m *Manager) Summary(id string) (*campaign.Summary, JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, JobStatus{}, fmt.Errorf("service: no job %q", id)
	}
	st := j.statusLocked()
	if j.summary == nil && (j.state == StateDone || j.state == StateCanceled) {
		// Retired before this process started: the summary is on disk.
		var sum campaign.Summary
		if rec, err := readStatus(j.dir); err == nil && json.Unmarshal(rec.Summary, &sum) == nil {
			j.summary = &sum
		}
	}
	return j.summary, st, nil
}

// Close stops the manager the way a SIGTERM stops the daemon: running
// jobs are interrupted mid-campaign and their journals left exactly as
// a kill would — no terminal status — so a reopened Manager resumes
// them. Queued jobs stay queued on disk. Close blocks until every
// executor goroutine has returned.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.closedCh)
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	m.wg.Wait()
	if m.lock != nil {
		m.lock.Close() // releases the journal-root flock
	}
}

// statusLocked snapshots the job under the manager lock.
func (j *Job) statusLocked() JobStatus {
	return JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       j.state,
		SpecHash:    j.specHash,
		Workers:     j.workers,
		Runs:        j.runs,
		Completed:   j.completed,
		Passed:      j.passed,
		Failed:      j.failed,
		ResumedFrom: j.firstIndex,
		StartSeq:    j.startSeq,
		Error:       j.errText,
	}
}

// watch returns the channel closed at the job's next visible update.
func (m *Manager) watch(j *Job) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.change
}

// job resolves an id under the lock (for the HTTP layer).
func (m *Manager) job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *Manager) jobState(j *Job) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.state
}
