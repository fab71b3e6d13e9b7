package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

func startServer(t *testing.T, budget int) (*service.Manager, *service.Client, *httptest.Server) {
	t.Helper()
	m := openManager(t, t.TempDir(), budget)
	ts := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return m, service.NewClient(ts.URL), ts
}

func rawSpec(t *testing.T, spec *campaign.Spec) []byte {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The full remote round trip: submit over HTTP, stream the records
// while the job runs, fetch the summary. The streamed bytes must equal
// an in-process run — the client-side half of the byte-identity
// contract.
func TestHTTPSubmitStreamSummary(t *testing.T) {
	spec := testSpec(4)
	wantJSONL, wantSummary := inProcessBytes(t, spec)
	_, c, _ := startServer(t, 2)
	ctx := context.Background()

	st, err := c.Submit(ctx, "acme", rawSpec(t, spec), 2)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" || st.Tenant != "acme" {
		t.Fatalf("submit status = %+v", st)
	}

	var streamed bytes.Buffer
	var live int
	if err := c.StreamRecords(ctx, st.ID, &streamed, func(campaign.RunRecord) { live++ }); err != nil {
		t.Fatalf("StreamRecords: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), wantJSONL) {
		t.Errorf("streamed records differ from in-process run (%d vs %d bytes)", streamed.Len(), len(wantJSONL))
	}
	if live != spec.Runs() {
		t.Errorf("onRecord fired %d times, want %d", live, spec.Runs())
	}

	sum, err := c.Summary(ctx, st.ID, true)
	if err != nil || sum == nil {
		t.Fatalf("Summary: %v (sum=%v)", err, sum)
	}
	var sumBuf bytes.Buffer
	if err := sum.WriteJSON(&sumBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sumBuf.Bytes(), wantSummary) {
		t.Errorf("remote summary differs:\n%s\nwant:\n%s", sumBuf.Bytes(), wantSummary)
	}

	final, err := c.Status(ctx, st.ID)
	if err != nil || final.State != service.StateDone {
		t.Fatalf("Status: %v, %+v", err, final)
	}
	jobs, err := c.List(ctx, "acme")
	if err != nil || len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("List: %v, %+v", err, jobs)
	}
}

// Submit-time validation failures surface as 400s naming the offending
// spec field, for both schema violations and unknown fields.
func TestHTTPSubmitRejectsBadSpecs(t *testing.T) {
	_, c, ts := startServer(t, 1)
	ctx := context.Background()

	cases := []struct {
		name, spec, want string
	}{
		{"unknown-field", `{"hosts": 2, "horizon": "1s", "sedes": 1}`, "sedes"},
		{"bad-medium", `{"hosts": 2, "horizon": "1s", "configs": [{"medium": "pigeon"}]}`, "configs[0].medium"},
		{"future-version", `{"version": 99, "hosts": 2, "horizon": "1s"}`, "version"},
		{"removed-field", `{"version": 1, "hosts": 2, "horizon": "1s", "configs": [{"indexed_classifier": true}]}`, "indexed_classifier"},
		{"removed-classifier", `{"version": 2, "hosts": 2, "horizon": "1s", "configs": [{"classifier": "compiled"}]}`, `unknown field "classifier"`},
		{"no-horizon", `{"hosts": 2}`, "horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, "", []byte(tc.spec), 1)
			if err == nil {
				t.Fatal("bad spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error does not name %q: %v", tc.want, err)
			}
		})
	}

	// The submit envelope itself is strict too.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"bogus": 1, "spec": {"hosts": 2, "horizon": "1s"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown envelope field: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestHTTPUnknownJob(t *testing.T) {
	_, c, _ := startServer(t, 1)
	if _, err := c.Status(context.Background(), "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job: %v, want HTTP 404", err)
	}
}

// Cancel over HTTP stops a running job; its journal stays a readable
// contiguous prefix and the stream terminates.
func TestHTTPCancelRunningJob(t *testing.T) {
	_, c, _ := startServer(t, 1)
	ctx := context.Background()

	st, err := c.Submit(ctx, "", rawSpec(t, testSpec(100000)), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	sum, err := c.Summary(ctx, st.ID, true)
	if err != nil {
		t.Fatalf("Summary after cancel: %v", err)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil || final.State != service.StateCanceled {
		t.Fatalf("Status: %v, %+v", err, final)
	}
	if sum != nil && sum.Completed != final.Completed {
		t.Errorf("partial summary has %d runs, status says %d", sum.Completed, final.Completed)
	}
	var streamed bytes.Buffer
	if err := c.StreamRecords(ctx, st.ID, &streamed, nil); err != nil {
		t.Fatalf("StreamRecords after cancel: %v", err)
	}
	if got := bytes.Count(streamed.Bytes(), []byte("\n")); got != final.Completed {
		t.Errorf("stream has %d records, status says %d", got, final.Completed)
	}
}

// The SSE variant frames each record as a data event and signals the
// terminal state with a done event.
func TestHTTPRecordsSSE(t *testing.T) {
	_, c, ts := startServer(t, 1)
	ctx := context.Background()

	spec := testSpec(2)
	st, err := c.Submit(ctx, "", rawSpec(t, spec), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Summary(ctx, st.ID, true); err != nil {
		t.Fatalf("wait: %v", err)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/records", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(body, []byte("data: {")); got != spec.Runs() {
		t.Errorf("SSE stream has %d record frames, want %d\n%s", got, spec.Runs(), body)
	}
	if !bytes.Contains(body, []byte("event: done\ndata: done\n\n")) {
		t.Errorf("SSE stream missing done event:\n%s", body)
	}
}

// /metrics exposes per-job series through the existing Prometheus
// exporter, keyed by job id.
func TestHTTPMetrics(t *testing.T) {
	_, c, ts := startServer(t, 1)
	ctx := context.Background()

	st, err := c.Submit(ctx, "acme", rawSpec(t, testSpec(1)), 1)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := c.Summary(ctx, st.ID, true); err != nil {
		t.Fatalf("wait: %v", err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`vw_campaignd_runs_completed{node="` + st.ID + `"`,
		`vw_campaignd_jobs_running{node="tenant:acme"`,
		`vw_campaignd_worker_slots{node="service"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// Everything no run could be built from is refused at submit: each spec
// of the campaign package's rejected corpus answers 400 with the path of
// the field to fix, and nothing is journaled — no job, no jobs/<id>
// directory. (Each used to answer 201 and journal a job whose every run
// recorded "outcome":"error".)
func TestHTTPSubmitRejectsWhatNoRunCouldBuild(t *testing.T) {
	f, err := os.Open("../testdata/rejected.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	m := openManager(t, dir, 2)
	defer m.Close()
	ts := httptest.NewServer(service.NewHandler(m))
	defer ts.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	rows := 0
	for sc.Scan() {
		var row struct {
			Name, Path string
			Spec       json.RawMessage
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		rows++
		body, _ := json.Marshal(service.SubmitRequest{Tenant: "acme", Spec: row.Spec})
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		answer, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var apiErr struct{ Error string }
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(answer, &apiErr) != nil ||
			!strings.Contains(apiErr.Error, `spec field "`+row.Path+`"`) {
			t.Errorf("%s: %d %s, want 400 naming %q", row.Name, resp.StatusCode, answer, row.Path)
		}
	}
	if rows == 0 {
		t.Fatal("empty corpus")
	}
	if jobs := m.List(""); len(jobs) != 0 {
		t.Errorf("%d jobs after %d refused submits", len(jobs), rows)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "jobs")); err != nil || len(entries) != 0 {
		t.Errorf("jobs/ holds %d entries after refused submits (%v)", len(entries), err)
	}
}

// A 40-billion-run spec is a job like any other: accepted, started,
// streaming records, cancelable — and, reopened, resumable rather than a
// crash loop. (Its matrix used to be expanded at job start: a fatal
// out-of-memory, then another at every restart over the same journal.)
func TestHTTPHugeSeedAxisStartsAndCancels(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("40e9 does not fit this platform's int")
	}
	dir := t.TempDir()
	m := openManager(t, dir, 2)
	ts := httptest.NewServer(service.NewHandler(m))
	c := service.NewClient(ts.URL)
	ctx := context.Background()
	st, err := c.Submit(ctx, "acme", []byte(`{"hosts":2,"horizon":"10ms","seed_count":40000000000}`), 2)
	if err != nil || st.Runs != 40000000000 {
		t.Fatalf("Submit: %+v, %v", st, err)
	}
	waitCompleted := func(c *service.Client, n int) service.JobStatus {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if got, err := c.Status(ctx, st.ID); err != nil {
				t.Fatal(err)
			} else if got.Completed >= n {
				return got
			}
		}
		t.Fatalf("job never completed %d runs", n)
		return service.JobStatus{}
	}
	waitCompleted(c, 3)
	// A daemon restart over the journal resumes the job where it stopped.
	ts.Close()
	m.Close()
	m = openManager(t, dir, 2)
	defer m.Close()
	ts = httptest.NewServer(service.NewHandler(m))
	defer ts.Close()
	c = service.NewClient(ts.URL)
	resumed := waitCompleted(c, 6)
	if resumed.ResumedFrom < 3 || resumed.Runs != 40000000000 {
		t.Errorf("reopened job: %+v, want it resumed past run 3", resumed)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(ctx, st.ID)
	if err != nil || final.State != service.StateCanceled || final.Completed < 6 {
		t.Fatalf("after cancel: %+v, %v", final, err)
	}
}
