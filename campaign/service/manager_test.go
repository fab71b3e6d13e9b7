package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// testSpec builds a small scriptless campaign: seeds runs over a
// generated two-host testbed. Normalized up front so the in-process
// reference and the service run the exact same spec value.
func testSpec(seeds int) *campaign.Spec {
	s := &campaign.Spec{
		Name:      "svc-test",
		Seed:      42,
		SeedCount: seeds,
		Hosts:     2,
		Horizon:   campaign.Duration(5 * time.Second),
	}
	s.Normalize()
	return s
}

// inProcessBytes runs the spec through campaign.Run directly — the
// byte-identity reference every service test compares against.
func inProcessBytes(t *testing.T, spec *campaign.Spec) (jsonl, summary []byte) {
	t.Helper()
	var sink, sumBuf bytes.Buffer
	sum, err := campaign.Run(context.Background(), *spec, campaign.Options{Workers: 1, Sink: &sink})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes(), sumBuf.Bytes()
}

func readJournal(t *testing.T, dir, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "jobs", id, "runs.jsonl"))
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return b
}

func openManager(t *testing.T, dir string, budget int) *service.Manager {
	t.Helper()
	m, err := service.Open(service.Config{Dir: dir, Budget: budget, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// A submitted job must run to completion with a journal byte-identical
// to an in-process campaign.Run of the same spec, and a summary that
// serializes identically — the service adds scheduling, not semantics.
func TestManagerJournalMatchesInProcess(t *testing.T) {
	spec := testSpec(6)
	wantJSONL, wantSummary := inProcessBytes(t, spec)

	dir := t.TempDir()
	m := openManager(t, dir, 4)
	defer m.Close()

	st, err := m.Submit("acme", spec, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.Tenant != "acme" || st.Runs != spec.Runs() {
		t.Errorf("submit status = %+v", st)
	}
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != service.StateDone || final.Completed != spec.Runs() {
		t.Fatalf("final status = %+v", final)
	}
	if got := readJournal(t, dir, st.ID); !bytes.Equal(got, wantJSONL) {
		t.Errorf("service journal differs from in-process run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	sum, _, err := m.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary: %v (sum=%v)", err, sum)
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("service summary differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
}

// A journal can hold a spec this build's plan rejects — any build before
// admission-by-plan accepted a trunk fault past the end of the fabric and
// recorded one error per run. Reopened, that job is re-planned, fails as
// a job with the field to fix, and costs nothing else: the manager opens,
// serves the job's status, and runs the next good job.
func TestUnrunnableJournaledSpecFailsTheJobNotTheDaemon(t *testing.T) {
	const body = `{"version":3,"seed":0,"seed_count":3,"hosts":8,"horizon":"1s",
	 "configs":[{"topology":{"kind":"ring","switches":4},
	             "trunk_faults":[{"kind":"trunk_down","trunk":99,"at":"1ms"}]}],
	 "workloads":[{"kind":"manyflow","flows":4,"bytes":4096}]}`
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "j000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf(`{"id":"j000001","seq":1,"tenant":"acme","workers":2,"spec_hash":%q,"generation":%d,"spec":%s}`,
		spec.Hash(), campaign.OutputGeneration, body)
	if err := os.WriteFile(filepath.Join(jobDir, "job.json"), []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, dir, 4)
	defer m.Close()
	st, err := m.Get("j000001")
	if err != nil || st.State != service.StateFailed ||
		!strings.Contains(st.Error, `"configs[0].trunk_faults[0].trunk"`) || !strings.Contains(st.Error, "targets trunk 99") {
		t.Fatalf("reopened job: %+v, %v, want failed with the field to fix", st, err)
	}
	if final, err := m.Wait(context.Background(), "j000001"); err != nil || final.State != service.StateFailed {
		t.Fatalf("Wait on the failed job: %+v, %v", final, err)
	}
	// Submitted today, the same spec is refused and leaves nothing behind.
	if _, err := m.Submit("acme", &spec, 1); err == nil || !strings.Contains(err.Error(), "trunk_faults[0].trunk") {
		t.Fatalf("Submit: %v, want the spec refused", err)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "jobs")); len(entries) != 1 {
		t.Errorf("%d job directories after a refused submit, want the journaled one only", len(entries))
	}
	// The daemon is still in business: a good job submitted next runs.
	good, err := m.Submit("acme", testSpec(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := m.Wait(context.Background(), good.ID); err != nil || final.Passed != 2 {
		t.Fatalf("job after the unrunnable one: %+v, %v", final, err)
	}
}

// Canceling a queued job must dequeue it without ever running a run;
// canceling the running blocker lets the manager drain.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	blocker, err := m.Submit("a", testSpec(100000), 1)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := m.Submit("a", testSpec(1), 1)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != service.StateCanceled {
		t.Fatalf("cancel queued: %v, state %s", err, st.State)
	}
	if st.Completed != 0 {
		t.Errorf("canceled queued job completed %d runs", st.Completed)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	final, err := m.Wait(context.Background(), blocker.ID)
	if err != nil || final.State != service.StateCanceled {
		t.Fatalf("blocker final: %v, %+v", err, final)
	}
	// Canceling a terminal job is a no-op, not an error.
	if st, err := m.Cancel(blocker.ID); err != nil || st.State != service.StateCanceled {
		t.Errorf("re-cancel: %v, %+v", err, st)
	}
}

// A queued cancel that cannot write status.json is not durable — the next
// Open finds a header without a terminal state and queues the job again —
// so Cancel must say so: an error beside the canceled status, the text on
// the job, and a log line.
func TestCancelQueuedJobReportsJournalFailure(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logged []string
	m, err := service.Open(service.Config{Dir: dir, Budget: 1, Logf: func(f string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(f, a...))
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()

	blocker, err := m.Submit("a", testSpec(100000), 1)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := m.Submit("a", testSpec(1), 1)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "jobs", queued.ID)); err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err == nil {
		t.Fatal("Cancel reported success though status.json could not be written")
	}
	if st.State != service.StateCanceled || st.Error == "" {
		t.Errorf("status = %+v, want canceled with the journal failure as Error", st)
	}
	if got, _ := m.Get(queued.ID); got.Error != st.Error {
		t.Errorf("Get().Error = %q, want %q", got.Error, st.Error)
	}
	mu.Lock()
	found := false
	for _, line := range logged {
		found = found || strings.Contains(line, queued.ID) && strings.Contains(line, "not journaled")
	}
	mu.Unlock()
	if !found {
		t.Errorf("no log line for the failed cancel in %q", logged)
	}
	// Over HTTP the same failure is a 500, not the unknown-job 404.
	queued2, err := m.Submit("a", testSpec(1), 1)
	if err != nil {
		t.Fatalf("submit queued2: %v", err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "jobs", queued2.ID)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewHandler(m))
	defer ts.Close()
	if _, err := service.NewClient(ts.URL).Cancel(context.Background(), queued2.ID); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("HTTP cancel: %v, want HTTP 500", err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	if _, err := m.Wait(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// interruptRef is TestCloseReopenResumesInterruptedJob's uninterrupted
// in-process reference, computed once per test binary.
var interruptRef struct {
	once           sync.Once
	jsonl, summary []byte
}

// Closing the manager mid-campaign and reopening over the same journal
// root must resume the interrupted job where its journal ends — without
// re-running completed runs — and finish with the same bytes as one
// uninterrupted run. This is the daemon kill+restart path.
func TestCloseReopenResumesInterruptedJob(t *testing.T) {
	// 2 000 runs take ~130 ms, over a hundred times the poll interval
	// below: by the time three records are seen and Close is called the
	// job cannot have finished. (At 60 runs it took ~6 ms and sometimes
	// had.) The reference bytes are the same on every -count iteration.
	spec := testSpec(2000)
	interruptRef.once.Do(func() { interruptRef.jsonl, interruptRef.summary = inProcessBytes(t, spec) })
	wantJSONL, wantSummary := interruptRef.jsonl, interruptRef.summary
	if wantJSONL == nil {
		t.Fatal("reference run failed in an earlier iteration")
	}

	dir := t.TempDir()
	m1 := openManager(t, dir, 2)
	st, err := m1.Submit("acme", spec, 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Let a few records reach the journal, then stop the daemon the way
	// a SIGTERM would.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := m1.Get(st.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if cur.Completed >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress before deadline: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()
	// A job Close interrupted stays "running" (resumable); any other
	// state means it ended first and there is nothing to resume.
	if cur, err := m1.Get(st.ID); err != nil || cur.State != service.StateRunning {
		t.Fatalf("job was not interrupted by Close: %+v (err %v)", cur, err)
	}

	partial := readJournal(t, dir, st.ID)
	if len(partial) == 0 || len(partial) >= len(wantJSONL) {
		t.Fatalf("interrupted journal is %d bytes of %d", len(partial), len(wantJSONL))
	}
	if !bytes.HasPrefix(wantJSONL, partial) {
		t.Fatal("interrupted journal is not a prefix of the uninterrupted run")
	}
	priorRuns := bytes.Count(partial, []byte("\n"))

	m2 := openManager(t, dir, 2)
	defer m2.Close()
	final, err := m2.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("Wait after reopen: %v", err)
	}
	if final.State != service.StateDone {
		t.Fatalf("resumed job ended %s: %+v", final.State, final)
	}
	if final.ResumedFrom != priorRuns {
		t.Errorf("ResumedFrom = %d, want %d (journaled runs must not re-run)", final.ResumedFrom, priorRuns)
	}
	if got := readJournal(t, dir, st.ID); !bytes.Equal(got, wantJSONL) {
		t.Errorf("resumed journal differs from uninterrupted run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
	sum, _, err := m2.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary after resume: %v", err)
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("resumed summary differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
}

// A job journaled by a build that spoke spec version 1 keeps its stamp
// and therefore its hash: reopened by this build, interrupted after three
// runs, it resumes at run 3 instead of failing the header's hash check,
// and ends with the bytes of an uninterrupted run.
func TestReopenResumesVersion1Job(t *testing.T) {
	spec := testSpec(6)
	spec.Version = 1
	// testSpec(6) as the last version-1 build (0cef8f8) hashed it.
	const v1Hash = "af03618a915982e4dfcbe3150eae77d95dfdd26facc6b55be20af857b3f73d0b"
	if got := spec.Hash(); got != v1Hash {
		t.Fatalf("version-1 spec hashes to %s, the build that wrote it said %s", got, v1Hash)
	}
	wantJSONL, _ := inProcessBytes(t, spec)

	dir := t.TempDir()
	m := openManager(t, dir, 2)
	st, err := m.Submit("acme", spec, 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m.Wait(context.Background(), st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	m.Close()

	job := filepath.Join(dir, "jobs", st.ID)
	hdr, err := os.ReadFile(filepath.Join(job, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(hdr, []byte(`"version":1,`)) || !bytes.Contains(hdr, []byte(v1Hash)) {
		t.Fatalf("job.json lost the version-1 stamp or hash: %s", hdr)
	}
	lines := bytes.SplitAfter(wantJSONL, []byte("\n"))
	if err := os.WriteFile(filepath.Join(job, "runs.jsonl"), bytes.Join(lines[:3], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(job, "status.json")); err != nil {
		t.Fatal(err)
	}

	m = openManager(t, dir, 2)
	defer m.Close()
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("resumed version-1 job ended %v, %+v", err, final)
	}
	if final.ResumedFrom != 3 {
		t.Errorf("ResumedFrom = %d, want 3", final.ResumedFrom)
	}
	if got := readJournal(t, dir, st.ID); !bytes.Equal(got, wantJSONL) {
		t.Errorf("resumed journal differs from an uninterrupted run (%d vs %d bytes)", len(got), len(wantJSONL))
	}
}

// A terminal job must survive a reopen as readable history: status,
// journal and summary served from disk, nothing re-run.
func TestReopenServesTerminalJob(t *testing.T) {
	spec := testSpec(2)
	wantJSONL, _ := inProcessBytes(t, spec)

	dir := t.TempDir()
	m1 := openManager(t, dir, 2)
	st, err := m1.Submit("", spec, 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := m1.Wait(context.Background(), st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	m1.Close()

	m2 := openManager(t, dir, 2)
	defer m2.Close()
	got, err := m2.Get(st.ID)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("reopened status: %v, %+v", err, got)
	}
	if got.Completed != spec.Runs() || got.Passed+got.Failed != spec.Runs() {
		t.Errorf("Completed = %d (%d passed, %d failed), want %d", got.Completed, got.Passed, got.Failed, spec.Runs())
	}
	sum, _, err := m2.Summary(st.ID)
	if err != nil || sum == nil {
		t.Fatalf("Summary from disk: %v (sum=%v)", err, sum)
	}
	if got.Passed != sum.Passed {
		t.Errorf("the reopen's scan counted %d passed runs, the summary on disk %d", got.Passed, sum.Passed)
	}
	if !bytes.Equal(readJournal(t, dir, st.ID), wantJSONL) {
		t.Error("terminal journal changed across reopen")
	}
}

// Reopening a finished job reads its terminal record and decodes no run
// record: Open over a 200-run job allocates what it does over a 2-run one.
func TestReopenFinishedJobDecodesNoRecord(t *testing.T) {
	finished := func(runs int) string {
		dir := t.TempDir()
		m := openManager(t, dir, 2)
		st, err := m.Submit("", testSpec(runs), 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		m.Close()
		return dir
	}
	reopen := func(dir string) float64 {
		return testing.AllocsPerRun(5, func() {
			m, err := service.Open(service.Config{Dir: dir, Budget: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
		})
	}
	small, large := reopen(finished(2)), reopen(finished(200))
	t.Logf("allocs per Open: %.0f (2 runs), %.0f (200 runs)", small, large)
	if large > small+4 {
		t.Errorf("Open allocates %.0f times over a finished 200-run job, %.0f over a 2-run one", large, small)
	}
}

// streamed reads a job's whole record stream over HTTP.
func streamed(t *testing.T, m *service.Manager, id string) []byte {
	t.Helper()
	ts := httptest.NewServer(service.NewHandler(m))
	defer ts.Close()
	var out bytes.Buffer
	if err := service.NewClient(ts.URL).StreamRecords(context.Background(), id, &out, nil); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// Builds before the terminal record carried a tally wrote status.json as
// the state alone and the summary beside it in summary.json. Such a job
// reopens with the state, tallies, summary and streamed bytes it had;
// interrupted (no status.json), it resumes to the bytes of an
// uninterrupted run.
func TestReopenOlderJournalLayout(t *testing.T) {
	spec := testSpec(6)
	wantJSONL, wantSummary := inProcessBytes(t, spec)
	dir := t.TempDir()
	m := openManager(t, dir, 2)
	st, err := m.Submit("acme", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := m.Summary(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	oldSummary, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	job := filepath.Join(dir, "jobs", st.ID)
	for name, body := range map[string]string{"status.json": `{"state":"done"}` + "\n", "summary.json": string(oldSummary) + "\n"} {
		if err := os.WriteFile(filepath.Join(job, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m = openManager(t, dir, 2)
	want.StartSeq = 0 // scheduler order in the process that ran it
	got, err := m.Get(st.ID)
	if err != nil || got != want {
		t.Errorf("reopened status %+v (%v), want %+v", got, err, want)
	}
	reread, _, err := m.Summary(st.ID)
	if err != nil || reread == nil {
		t.Fatalf("Summary: %v (sum=%v)", err, reread)
	}
	var sumBuf bytes.Buffer
	if err := reread.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("summary read from summary.json differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}
	if !bytes.Equal(streamed(t, m, st.ID), wantJSONL) {
		t.Error("streamed journal differs from an in-process run")
	}
	m.Close()

	lines := bytes.SplitAfter(wantJSONL, []byte("\n"))
	if err := os.WriteFile(filepath.Join(job, "runs.jsonl"), bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"status.json", "summary.json"} {
		if err := os.Remove(filepath.Join(job, name)); err != nil {
			t.Fatal(err)
		}
	}
	m = openManager(t, dir, 2)
	defer m.Close()
	final, err := m.Wait(context.Background(), st.ID)
	if err != nil || final.State != service.StateDone || final.ResumedFrom != 2 {
		t.Fatalf("resumed older-layout job: %v, %+v", err, final)
	}
	if !bytes.Equal(streamed(t, m, st.ID), wantJSONL) {
		t.Error("resumed journal differs from an uninterrupted run")
	}
}

// Round-robin fairness: with tenant a's queue three deep and tenant b
// holding one job, b's job must start after a's first job, not after
// a's whole queue. StartSeq makes the scheduler's start order
// observable without wall-clock races.
func TestFairSchedulingAcrossTenants(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	blocker, err := m.Submit("blk", testSpec(100000), 1)
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	submit := func(tenant string) service.JobStatus {
		st, err := m.Submit(tenant, testSpec(1), 1)
		if err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
		if st.State != service.StateQueued {
			t.Fatalf("tenant %s job started with budget exhausted: %+v", tenant, st)
		}
		return st
	}
	a1, a2, a3 := submit("a"), submit("a"), submit("a")
	b1 := submit("b")

	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seq := make(map[string]int)
	for _, st := range []service.JobStatus{a1, a2, a3, b1} {
		final, err := m.Wait(ctx, st.ID)
		if err != nil {
			t.Fatalf("wait %s: %v", st.ID, err)
		}
		if final.State != service.StateDone {
			t.Fatalf("job %s ended %s", st.ID, final.State)
		}
		seq[st.ID] = final.StartSeq
	}
	if !(seq[a1.ID] < seq[b1.ID] && seq[b1.ID] < seq[a2.ID] && seq[a2.ID] < seq[a3.ID]) {
		t.Errorf("start order unfair: a1=%d b1=%d a2=%d a3=%d (want a1 < b1 < a2 < a3)",
			seq[a1.ID], seq[b1.ID], seq[a2.ID], seq[a3.ID])
	}
}

// Two managers over one journal root would corrupt each other's
// journals; the flock makes the second Open fail until the first
// closes.
func TestJournalRootLocked(t *testing.T) {
	dir := t.TempDir()
	m1 := openManager(t, dir, 1)
	if _, err := service.Open(service.Config{Dir: dir, Budget: 1}); err == nil {
		t.Error("second Open on a locked journal root succeeded")
	}
	m1.Close()
	m2, err := service.Open(service.Config{Dir: dir, Budget: 1})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	m2.Close()
}

// Submit must reject an invalid spec with a field-path error and leave
// no job behind.
func TestSubmitRejectsInvalidSpec(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, 1)
	defer m.Close()

	bad := testSpec(1)
	bad.Configs = []campaign.ConfigOverride{{Medium: "pigeon"}}
	if _, err := m.Submit("", bad, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if jobs := m.List(""); len(jobs) != 0 {
		t.Errorf("rejected submit left %d jobs", len(jobs))
	}
}

// agedJournal rewrites a finished job's directory into what a build of
// output generation 1 would have left: job.json without a generation
// stamp and the first cut records of runs.jsonl (all of them for cut < 0)
// with bytes this build would not write — still well-formed records with
// the right indexes, so only the stamp can tell them from a resumable
// prefix. interrupted also removes the terminal status.
func agedJournal(t *testing.T, dir, id string, cut int, interrupted bool) (journal []byte) {
	t.Helper()
	job := filepath.Join(dir, "jobs", id)
	hdr, err := os.ReadFile(filepath.Join(job, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	stamp := []byte(`"generation":2,`)
	if !bytes.Contains(hdr, stamp) {
		t.Fatalf("job.json carries no generation stamp: %s", hdr)
	}
	if err := os.WriteFile(filepath.Join(job, "job.json"), bytes.Replace(hdr, stamp, nil, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(readJournal(t, dir, id), []byte("\n"))
	if cut < 0 {
		cut = len(lines) - 1 // SplitAfter leaves an empty tail
	}
	for _, line := range lines[:cut] {
		journal = append(journal, bytes.Replace(line, []byte(`{"`), []byte(`{ "`), 1)...)
	}
	if err := os.WriteFile(filepath.Join(job, "runs.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if interrupted {
		if err := os.Remove(filepath.Join(job, "status.json")); err != nil {
			t.Fatal(err)
		}
	}
	return journal
}

// A job journaled by a build of another output generation must never be
// resumed into a journal of mixed bytes: interrupted at any cut point it
// is re-run from index 0 and ends with exactly the bytes of an
// uninterrupted run of this build; finished, it is served as written.
func TestReopenAcrossOutputGenerations(t *testing.T) {
	spec := testSpec(6)
	wantJSONL, _ := inProcessBytes(t, spec)
	finish := func(t *testing.T) (dir, id string) {
		dir = t.TempDir()
		m := openManager(t, dir, 2)
		st, err := m.Submit("acme", spec, 1)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if _, err := m.Wait(context.Background(), st.ID); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		m.Close()
		return dir, st.ID
	}
	for _, cut := range []int{1, 3, spec.Runs() - 1} {
		dir, id := finish(t)
		agedJournal(t, dir, id, cut, true)
		var logged bytes.Buffer
		m, err := service.Open(service.Config{Dir: dir, Budget: 2, Logf: func(f string, a ...any) {
			fmt.Fprintf(&logged, f+"\n", a...)
		}})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		final, err := m.Wait(context.Background(), id)
		if err != nil || final.State != service.StateDone {
			t.Fatalf("cut %d: re-run ended %v, %+v", cut, err, final)
		}
		m.Close()
		if final.ResumedFrom != 0 {
			t.Errorf("cut %d: ResumedFrom = %d, want 0 (old-generation runs must re-run)", cut, final.ResumedFrom)
		}
		if got := readJournal(t, dir, id); !bytes.Equal(got, wantJSONL) {
			t.Errorf("cut %d: re-run journal differs from an uninterrupted run (%d vs %d bytes)", cut, len(got), len(wantJSONL))
		}
		if n := strings.Count(logged.String(), "output generation 1"); n != 1 {
			t.Errorf("cut %d: %d log lines name the generation, want 1:\n%s", cut, n, logged.String())
		}
		// The re-run is stamped with this build's generation: reopened
		// again it is a finished job like any other.
		m = openManager(t, dir, 2)
		if again, err := m.Get(id); err != nil || again.State != service.StateDone || again.Completed != spec.Runs() {
			t.Errorf("cut %d: second reopen: %v, %+v", cut, err, again)
		}
		m.Close()
	}

	dir, id := finish(t)
	old := agedJournal(t, dir, id, -1, false)
	m := openManager(t, dir, 2)
	defer m.Close()
	got, err := m.Get(id)
	if err != nil || got.State != service.StateDone || got.Completed != spec.Runs() {
		t.Fatalf("finished old-generation job after reopen: %v, %+v", err, got)
	}
	if !bytes.Equal(readJournal(t, dir, id), old) {
		t.Error("finished old-generation journal was rewritten")
	}
}
