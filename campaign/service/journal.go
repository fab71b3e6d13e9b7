package service

// On-disk journal layout, one directory per job under <Dir>/jobs/<id>/:
//
//	job.json     submit-time header: tenant, worker grant, normalized
//	             spec and its canonical hash, and the output generation
//	             of the build that writes runs.jsonl. Written atomically.
//	runs.jsonl   the record stream, appended one line per finished run
//	             in run-index order — always a contiguous prefix of the
//	             matrix, as campaign.Run writes it. This is the
//	             same bytes a client streams and an in-process run
//	             would have written.
//	status.json  the terminal record (statusRecord), written once by
//	             retire. Its absence marks a job as interrupted: a daemon
//	             that died mid-campaign never wrote it.
//
// Reopen: a terminal job is served from its record, and runs.jsonl is
// only stat'ed. Otherwise — no record, or a journal not the length the
// record names (a power loss can cut it) — scanRecords replays runs.jsonl
// and keeps the longest prefix of well-formed records whose indexes count
// 0,1,2,…. An interrupted job's file is truncated after it (a SIGKILL can
// land mid-write), and campaign.Run gets FirstIndex = len(prefix) and the
// prefix as Prior.
// Byte-identity across the kill is then exactly the campaign executor's
// resume invariant — between runs of one output generation
// (campaign.OutputGeneration). A prefix journaled by a build of another
// generation is not a prefix of what this build would write, so such a
// job is re-run from index 0 instead of resumed.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"virtualwire/campaign"
)

const (
	jobFile     = "job.json"
	recordsFile = "runs.jsonl"
	statusFile  = "status.json"
	// legacySummaryFile held the summary of a job retired before the
	// summary moved into status.json; such journals are still read.
	legacySummaryFile = "summary.json"
)

// jobHeader is the durable submit record.
type jobHeader struct {
	ID       string `json:"id"`
	Seq      int    `json:"seq"`
	Tenant   string `json:"tenant"`
	Workers  int    `json:"workers"`
	SpecHash string `json:"spec_hash"`
	// Generation is the campaign.OutputGeneration of the build that
	// wrote (or is writing) runs.jsonl; absent in journals older than
	// the stamp, which were all generation 1.
	Generation int           `json:"generation,omitempty"`
	Spec       campaign.Spec `json:"spec"`
}

// statusRecord is the durable terminal record: state, tally and, for done
// and canceled jobs, the summary. One without a JournalLen predates the
// tally: its journal is counted, its summary read from legacySummaryFile.
type statusRecord struct {
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	Completed int    `json:"completed"`
	Passed    int    `json:"passed"`
	// JournalLen is the final safe length: runs.jsonl's whole-record
	// prefix, and all of it a reopened manager serves.
	JournalLen *int64 `json:"journal_len,omitempty"`
	// Summary stays encoded until Manager.Summary is asked for it.
	Summary json.RawMessage `json:"summary,omitempty"`
}

// readStatus reads a job's terminal record; os.ErrNotExist means the job
// was interrupted. Both layouts come back as one record.
func readStatus(dir string) (statusRecord, error) {
	var rec statusRecord
	if err := readJSONFile(dir, statusFile, &rec); err != nil {
		return statusRecord{}, err
	}
	if rec.JournalLen == nil {
		rec.Summary, _ = os.ReadFile(filepath.Join(dir, legacySummaryFile))
	}
	return rec, nil
}

// writeJSONFile writes v as one line of JSON atomically (temp file +
// rename), so a kill mid-write never leaves a torn header or status.
func writeJSONFile(dir, name string, v any) error {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	werr := json.NewEncoder(tmp).Encode(v)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: write %s: %w", name, werr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

func readJSONFile(dir, name string, v any) error {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJobHeader creates the job directory and its header.
func writeJobHeader(j *Job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return writeJSONFile(j.dir, jobFile, jobHeader{
		ID:         j.id,
		Seq:        j.seq,
		Tenant:     j.tenant,
		Workers:    j.workers,
		SpecHash:   j.specHash,
		Generation: campaign.OutputGeneration,
		Spec:       j.spec,
	})
}

// lineBufSize is the buffer a record stream is read through. Records of
// small testbeds (a few KB each) fit many times over and are handed out
// as slices of it, uncopied; only a longer line is assembled on the side.
const lineBufSize = 64 << 10

// readLine returns r's next line with its '\n', valid until the next
// read from r. A line longer than r's buffer is accumulated in *long,
// whose storage is reused from call to call. At the end of the stream
// the bytes after the last newline — none, or a torn line — come back
// with io.EOF.
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// journalPrefix is what a scan keeps of a record stream: the longest
// prefix of whole lines that decode to records counting 0, 1, 2, …
// Anything after it — a torn last line from a kill mid-write, or records
// past a cancellation hole — is not part of the resumable prefix.
type journalPrefix struct {
	runs, passed int
	size         int64                // bytes, every line's newline included
	records      []campaign.RunRecord // the prefix itself
}

// scanRecords replays a record stream. Every line is decoded — a line is
// in the prefix because it is a record, not because it looks like one.
func scanRecords(r io.Reader) (journalPrefix, error) {
	var p journalPrefix
	br := bufio.NewReaderSize(r, lineBufSize)
	var long []byte
	var dec campaign.RecordDecoder
	var rec campaign.RunRecord
	for {
		line, err := readLine(br, &long)
		if err == io.EOF {
			// No trailing newline: a torn final write. Drop it.
			return p, nil
		}
		if err != nil {
			return journalPrefix{}, err
		}
		if dec.Decode(line[:len(line)-1], &rec) != nil || rec.Index != p.runs {
			return p, nil
		}
		p.runs++
		if rec.Outcome == campaign.OutcomePass {
			p.passed++
		}
		p.size += int64(len(line))
		p.records = append(p.records, rec)
	}
}

// scanJournal scans a job's journal; one never written is empty.
func scanJournal(dir string) (journalPrefix, error) {
	f, err := os.Open(filepath.Join(dir, recordsFile))
	if os.IsNotExist(err) {
		return journalPrefix{}, nil
	}
	if err != nil {
		return journalPrefix{}, err
	}
	defer f.Close()
	return scanRecords(f)
}

// journalSize is the length of a job's journal (0 if it cannot be stat'ed).
func journalSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, recordsFile))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// loadJournal restores every journaled job: terminal jobs become
// readable history, interrupted ones re-queue at their resume point in
// original submit order.
func (m *Manager) loadJournal() error {
	jobsDir := filepath.Join(m.cfg.Dir, "jobs")
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	var loaded []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, e.Name())
		var hdr jobHeader
		if err := readJSONFile(dir, jobFile, &hdr); err != nil {
			m.cfg.Logf("service: skipping %s: unreadable header: %v", e.Name(), err)
			continue
		}
		j := &Job{
			id:       hdr.ID,
			seq:      hdr.Seq,
			tenant:   hdr.Tenant,
			dir:      dir,
			spec:     hdr.Spec,
			specHash: hdr.SpecHash,
			runs:     hdr.Spec.Runs(),
			done:     make(chan struct{}),
			change:   make(chan struct{}),
		}
		j.workers, j.cost = m.grant(&j.spec, hdr.Workers)
		gen := hdr.Generation
		if gen == 0 {
			gen = 1
		}
		if err := m.restoreJob(j, gen); err != nil {
			j.state = StateFailed
			j.errText = err.Error()
			close(j.done)
		}
		loaded = append(loaded, j)
	}
	sort.Slice(loaded, func(a, b int) bool { return loaded[a].seq < loaded[b].seq })
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range loaded {
		if j.seq > m.nextSeq {
			m.nextSeq = j.seq
		}
		m.addJobLocked(j)
		if j.state == StateQueued {
			m.enqueueLocked(j)
			m.cfg.Logf("service: job %s (tenant %s): resuming from run %d/%d", j.id, j.tenant, j.firstIndex, j.runs)
		}
	}
	return nil
}

// restoreJob classifies one journaled job and prepares it for serving
// or resumption. The spec hash is re-derived and checked so a spec
// edited (or corrupted) between daemon runs fails loudly instead of
// resuming against a different matrix. generation is the output
// generation the journal was written under: a terminal job is served as
// written whatever it is, an interrupted one is resumed only if this
// build writes the same bytes.
func (m *Manager) restoreJob(j *Job, generation int) error {
	if got := j.spec.Hash(); got != j.specHash {
		return fmt.Errorf("service: journal spec hash mismatch for %s: header says %s, spec hashes to %s", j.id, j.specHash, got)
	}
	// A terminal record is the tally while the journal is the length it
	// names. A journal of another length, a record without a tally (the
	// older layout) or no record at all (an interrupted job) is counted.
	rec, err := readStatus(j.dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: read status for %s: %w", j.id, err)
	}
	terminal := err == nil
	var p journalPrefix
	if terminal && rec.JournalLen != nil && journalSize(j.dir) == *rec.JournalLen {
		p = journalPrefix{runs: rec.Completed, passed: rec.Passed, size: *rec.JournalLen}
	} else if p, err = scanJournal(j.dir); err != nil {
		return fmt.Errorf("service: scan journal for %s: %w", j.id, err)
	}
	j.completed, j.passed, j.failed = p.runs, p.passed, p.runs-p.passed
	j.safeLen.Store(p.size)
	if terminal {
		j.state = rec.State
		j.errText = rec.Error
		close(j.done)
		return nil
	}
	// Interrupted (or never started): resume. Truncate anything after the
	// contiguous prefix so the append continues it. Admit it again: the
	// plan is not journaled, and a spec this build's plan rejects fails
	// here rather than once per run.
	if j.plan, err = j.spec.Plan(); err != nil {
		return fmt.Errorf("service: journaled spec for %s is not runnable: %w", j.id, err)
	}
	stale := generation != campaign.OutputGeneration
	if stale {
		m.cfg.Logf("service: job %s (tenant %s): journal is output generation %d, this build writes %d: discarding %d journaled runs, re-running from run 0",
			j.id, j.tenant, generation, campaign.OutputGeneration, p.runs)
		p = journalPrefix{}
		j.completed, j.passed, j.failed = 0, 0, 0
		j.safeLen.Store(0)
	}
	if err := os.Truncate(filepath.Join(j.dir, recordsFile), p.size); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: truncate journal for %s: %w", j.id, err)
	}
	if stale {
		// Only now that no old byte is left: a kill between the two
		// steps finds the old stamp again and truncates again.
		if err := writeJobHeader(j); err != nil {
			return err
		}
	}
	j.state = StateQueued
	j.firstIndex = p.runs
	j.prior = p.records
	return nil
}
