package service

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"virtualwire/campaign"
)

func retireSpec(seeds int) *campaign.Spec {
	s := &campaign.Spec{Name: "retire", Seed: 42, SeedCount: seeds, Hosts: 2, Horizon: campaign.Duration(5 * time.Second)}
	s.Normalize()
	return s
}

func mustOpen(t *testing.T, dir string, budget int) *Manager {
	t.Helper()
	m, err := Open(Config{Dir: dir, Budget: budget, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustSubmit(t *testing.T, m *Manager, spec *campaign.Spec) string {
	t.Helper()
	st, err := m.Submit("a", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// streamJob reads a job's record stream to its end through the HTTP layer.
func streamJob(m *Manager, id string) ([]byte, error) {
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()
	var out bytes.Buffer
	err := NewClient(ts.URL).StreamRecords(context.Background(), id, &out, nil)
	return out.Bytes(), err
}

// A job reopened as interrupted holds its compiled plan and every
// journaled record, for the resume. Canceled while it waits behind a
// running job, it never runs again: the cancel retires it like any other
// end, so both are let go, and its terminal record keeps the resumed
// prefix's tally.
func TestCancelQueuedReopenedJobLetsGoOfItsRecords(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, 2)
	blocker := mustSubmit(t, m, retireSpec(100000))
	small := mustSubmit(t, m, retireSpec(6))
	if _, err := m.Wait(context.Background(), small); err != nil {
		t.Fatal(err)
	}
	m.Close() // the blocker is interrupted mid-campaign
	job := filepath.Join(dir, "jobs", small)
	assertRetiredFiles(t, job)

	journal, err := os.ReadFile(filepath.Join(job, recordsFile))
	if err != nil {
		t.Fatal(err)
	}
	prefix := bytes.Join(bytes.SplitAfter(journal, []byte("\n"))[:3], nil)
	if err := os.WriteFile(filepath.Join(job, recordsFile), prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(job, statusFile)); err != nil {
		t.Fatal(err)
	}

	m = mustOpen(t, dir, 1) // the blocker resumes first and holds the budget
	defer m.Close()
	j, _ := m.job(small)
	m.mu.Lock()
	state, prior, planned := j.state, len(j.prior), j.plan != nil
	m.mu.Unlock()
	if state != StateQueued || prior != 3 || !planned {
		t.Fatalf("reopened job is %s with %d prior records (plan %v), want queued with 3 and a plan", state, prior, planned)
	}
	if st, err := m.Cancel(small); err != nil || st.State != StateCanceled || st.Completed != 3 {
		t.Fatalf("Cancel: %v, %+v", err, st)
	}
	m.mu.Lock()
	if j.prior != nil || j.plan != nil {
		t.Errorf("a canceled queued job keeps %d prior records and plan %v", len(j.prior), j.plan != nil)
	}
	m.mu.Unlock()
	rec, err := readStatus(job)
	if err != nil || rec.State != StateCanceled || rec.Completed != 3 || rec.JournalLen == nil || *rec.JournalLen != int64(len(prefix)) {
		t.Errorf("terminal record %+v (%v), want canceled with 3 runs in %d bytes", rec, err, len(prefix))
	}
	if _, err := m.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	assertRetiredFiles(t, job)
	assertRetiredFiles(t, filepath.Join(dir, "jobs", blocker))
}

// A journal that cannot be written — a full disk, here /dev/full — fails
// the job with the write error. What the terminal record names as the
// journal is the whole-record prefix, and that prefix is all the live
// stream and a reopened manager serve, whatever a short write left after
// it.
func TestJournalWriteFailureFailsTheJob(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	dir := t.TempDir()
	m := mustOpen(t, dir, 1)
	blocker := mustSubmit(t, m, retireSpec(100000))
	id := mustSubmit(t, m, retireSpec(4))
	job := filepath.Join(dir, "jobs", id)
	if err := os.Symlink("/dev/full", filepath.Join(job, recordsFile)); err != nil {
		t.Fatal(err)
	}
	type stream struct {
		b   []byte
		err error
	}
	live := make(chan stream, 1)
	go func() {
		b, err := streamJob(m, id)
		live <- stream{b, err}
	}()
	if _, err := m.Cancel(blocker); err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "no space left on device") {
		t.Fatalf("job with a full journal: %v, %+v; want failed with the write error", err, st)
	}
	if got := <-live; got.err != nil || len(got.b) != 0 {
		t.Errorf("live stream: %v, %d bytes past the whole-record prefix", got.err, len(got.b))
	}
	rec, err := readStatus(job)
	if err != nil || rec.State != StateFailed || rec.Error != st.Error || rec.JournalLen == nil || *rec.JournalLen != 0 || rec.Completed != 0 {
		t.Fatalf("terminal record %+v (%v), want failed with a 0-byte journal", rec, err)
	}
	if _, err := m.Wait(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	m.Close()
	assertRetiredFiles(t, job)

	// Reopened over what a short write leaves: a torn line past the prefix.
	if err := os.Remove(filepath.Join(job, recordsFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(job, recordsFile), []byte(`{"index":0,"la`), 0o644); err != nil {
		t.Fatal(err)
	}
	m = mustOpen(t, dir, 1)
	defer m.Close()
	if again, err := m.Get(id); err != nil || again.State != StateFailed || again.Error != st.Error || again.Completed != 0 {
		t.Errorf("reopened: %v, %+v", err, again)
	}
	if got, err := streamJob(m, id); err != nil || len(got) != 0 {
		t.Errorf("reopened manager: %v, %d bytes past the whole-record prefix", err, len(got))
	}
}

// assertRetiredFiles checks that a retired job's directory holds its
// header, journal and terminal record and nothing else.
func assertRetiredFiles(t *testing.T, job string) {
	t.Helper()
	entries, err := os.ReadDir(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != jobFile && n != recordsFile && n != statusFile {
			t.Errorf("retired job directory holds %s", n)
		}
	}
}
