package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
