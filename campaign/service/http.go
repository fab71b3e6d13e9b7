package service

// HTTP/JSON API, versioned under /v1 (see docs/SERVICE.md):
//
//	POST /v1/campaigns                submit {tenant?, workers?, spec}
//	GET  /v1/campaigns[?tenant=]      list jobs
//	GET  /v1/campaigns/{id}           job status
//	GET  /v1/campaigns/{id}/records   stream the record journal: raw
//	                                  JSONL (chunked) by default, SSE
//	                                  when Accept: text/event-stream
//	GET  /v1/campaigns/{id}/summary   summary (?wait=1 blocks until
//	                                  terminal)
//	POST /v1/campaigns/{id}/cancel    cancel
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness
//
// Records are streamed verbatim from the journal — the same bytes the
// executor wrote — so a client that saves the stream holds a file
// byte-identical to an in-process run of the same spec.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"virtualwire/campaign"
	"virtualwire/internal/metrics"
)

// SubmitRequest is the POST /v1/campaigns body. The spec rides as raw
// JSON so it goes through campaign.ParsePlan — the same strict,
// versioned admission the CLI -spec flag uses.
type SubmitRequest struct {
	// Tenant buckets the job for fair scheduling ("default" if empty).
	Tenant string `json:"tenant,omitempty"`
	// Workers requests a worker-pool size (0 = service default); the
	// grant is clamped so workers × shards fits the daemon's budget.
	Workers int `json:"workers,omitempty"`
	// Spec is the versioned campaign spec.
	Spec json.RawMessage `json:"spec"`
}

// apiError is every non-2xx body.
type apiError struct {
	Error string `json:"error"`
}

// NewHandler serves the Manager's API.
func NewHandler(m *Manager) http.Handler {
	h := &handler{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", h.submit)
	mux.HandleFunc("GET /v1/campaigns", h.list)
	mux.HandleFunc("GET /v1/campaigns/{id}", h.get)
	mux.HandleFunc("GET /v1/campaigns/{id}/records", h.records)
	mux.HandleFunc("GET /v1/campaigns/{id}/summary", h.summary)
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", h.cancel)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

type handler struct {
	m *Manager
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "submit request: %v", err)
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, `submit request: missing "spec"`)
		return
	}
	plan, err := campaign.ParsePlan(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := h.m.submit(req.Tenant, plan, req.Workers)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	jobs := h.m.List(r.URL.Query().Get("tenant"))
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{jobs})
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	st, err := h.m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := h.m.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, st)
	case st.ID == "":
		writeError(w, http.StatusNotFound, "%v", err)
	default: // canceled, but the journal does not say so
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (h *handler) summary(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		if _, err := h.m.Wait(r.Context(), id); err != nil {
			code := http.StatusNotFound
			if r.Context().Err() != nil {
				code = 499 // client closed request
			}
			writeError(w, code, "%v", err)
			return
		}
	}
	sum, st, err := h.m.Summary(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if sum == nil {
		switch st.State {
		case StateQueued, StateRunning:
			writeJSON(w, http.StatusAccepted, st)
		default:
			writeError(w, http.StatusConflict, "service: job %s is %s with no summary: %s", id, st.State, st.Error)
		}
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// records streams the job's journal. The default stream is the raw
// JSONL bytes, flushed record by record while the job runs; with
// Accept: text/event-stream each record becomes one SSE data frame and
// a final "done" event carries the terminal state.
func (h *handler) records(w http.ResponseWriter, r *http.Request) {
	j, ok := h.m.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "service: no job %q", r.PathValue("id"))
		return
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	path := filepath.Join(j.dir, recordsFile)
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	var off int64
	var lineBuf *bufio.Reader
	for {
		// Take the watch channel before sampling state: any update after
		// this point closes it, so progress between the checks below and
		// the select cannot be missed.
		change := h.m.watch(j)

		// Publish everything under the safe watermark, then wait for
		// growth or a terminal state.
		safe := j.safeLen.Load()
		if f == nil && safe > 0 {
			var err error
			if f, err = os.Open(path); err != nil {
				return
			}
			if sse {
				lineBuf = bufio.NewReaderSize(f, lineBufSize)
			}
		}
		if off < safe {
			if sse {
				if !copySSE(w, lineBuf, safe-off) {
					return
				}
			} else {
				if _, err := io.CopyN(w, f, safe-off); err != nil {
					return
				}
			}
			off = safe
			flush()
			continue
		}
		state := h.m.jobState(j)
		terminal := state == StateDone || state == StateFailed || state == StateCanceled
		if terminal && off >= j.safeLen.Load() {
			if sse {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", state)
				flush()
			}
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		case <-h.m.closedCh:
			return
		}
	}
}

// copySSE re-frames n bytes of JSONL as SSE data events.
func copySSE(w io.Writer, r *bufio.Reader, n int64) bool {
	var long []byte
	for n > 0 {
		line, err := readLine(r, &long)
		if err != nil {
			return false
		}
		n -= int64(len(line))
		if _, err := fmt.Fprintf(w, "data: %s\n\n", line[:len(line)-1]); err != nil {
			return false
		}
	}
	return true
}

// metrics exposes the service's own state in the Prometheus text
// format, reusing the simulator's exporter: every sample is keyed
// (node, layer, name), with the job id as the node label — per-job
// scrape series without a second exposition library.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	var samples []metrics.Sample
	add := func(node, name string, kind metrics.Kind, v float64) {
		samples = append(samples, metrics.Sample{
			Node: node, Layer: "campaignd", Name: name, Kind: kind, Value: v,
		})
	}

	m := h.m
	m.mu.Lock()
	type tenantCounts struct{ queued, running, terminal int }
	byTenant := make(map[string]*tenantCounts)
	for _, id := range m.order {
		j := m.jobs[id]
		tc := byTenant[j.tenant]
		if tc == nil {
			tc = &tenantCounts{}
			byTenant[j.tenant] = tc
		}
		switch j.state {
		case StateQueued:
			tc.queued++
		case StateRunning:
			tc.running++
		default:
			tc.terminal++
		}
		add(j.id, "runs", metrics.KindGauge, float64(j.runs))
		add(j.id, "runs_completed", metrics.KindCounter, float64(j.completed))
		add(j.id, "runs_passed", metrics.KindCounter, float64(j.passed))
		add(j.id, "runs_failed", metrics.KindCounter, float64(j.failed))
		add(j.id, "workers", metrics.KindGauge, float64(j.workers))
		add(j.id, "running", metrics.KindGauge, boolGauge(j.state == StateRunning))
	}
	free, total := m.free, m.cfg.Budget
	jobsTotal := len(m.order)
	tenants := append([]string(nil), m.tenants...)
	m.mu.Unlock()

	sort.Strings(tenants)
	for _, t := range tenants {
		tc := byTenant[t]
		add("tenant:"+t, "jobs_queued", metrics.KindGauge, float64(tc.queued))
		add("tenant:"+t, "jobs_running", metrics.KindGauge, float64(tc.running))
		add("tenant:"+t, "jobs_terminal", metrics.KindGauge, float64(tc.terminal))
	}
	add("service", "jobs", metrics.KindGauge, float64(jobsTotal))
	add("service", "worker_slots", metrics.KindGauge, float64(total))
	add("service", "worker_slots_free", metrics.KindGauge, float64(free))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WritePrometheus(w, samples)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
