package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// matrixSpec is the campaign both campaign workloads run: the
// quickstart drop script, seeds x BER {0, 1e-6}, a 16 KiB TCP transfer
// per run. Runs simulate ~0.2 ms each, so the campaign's own per-run
// work is most of the cost.
func matrixSpec(seed int64, seeds int) campaign.Spec {
	spec := campaign.Spec{
		Name:      "bench-matrix",
		Seed:      seed,
		SeedCount: seeds,
		Script:    mustScript("quickstart_drop.fsl"),
		Horizon:   campaign.Duration(30 * time.Second),
		Workloads: []campaign.WorkloadSpec{{
			Kind: "tcpbulk", From: "node1", To: "node2",
			SrcPort: tcpSrcPort, DstPort: tcpDstPort, Bytes: 16 << 10,
		}},
	}
	for _, ber := range []float64{0, 1e-6} {
		ber := ber
		spec.Configs = append(spec.Configs, campaign.ConfigOverride{
			Label: fmt.Sprintf("ber=%g", ber), BitErrorRate: &ber,
		})
	}
	return spec
}

// spanSink is the harness-owned sink of a traced campaign: it records
// one span per record write.
type spanSink struct {
	buf    *bytes.Buffer
	tr     *tracer
	op     int
	parent int
}

func (s *spanSink) Write(p []byte) (int, error) {
	id := s.tr.begin(s.op, s.parent, "campaign.sink_write")
	n, err := s.buf.Write(p)
	s.tr.end(id)
	return n, err
}

// campaignInstance runs the matrix in process. It holds nothing between
// ops but its output buffers: campaign.Run builds and resets its own
// testbeds.
type campaignInstance struct {
	seeds   int
	workers int
	sink    bytes.Buffer
	out     bytes.Buffer // sink bytes followed by the summary JSON
}

func newCampaignInstance(seeds, workers int) *campaignInstance {
	inst := &campaignInstance{seeds: seeds, workers: workers}
	inst.sink.Grow(2 << 20)
	inst.out.Grow(2 << 20)
	return inst
}

func (inst *campaignInstance) op(seed int64, opID int, tr *tracer) opOutcome {
	root := tr.begin(opID, 0, "op")
	defer tr.end(root)

	spec := matrixSpec(seed, inst.seeds)
	runs := spec.Runs()
	inst.sink.Reset()
	records := 0
	run := tr.begin(opID, root, "campaign.run")
	opts := campaign.Options{
		Workers: inst.workers,
		Sink:    &inst.sink,
		OnRecord: func(campaign.RunRecord) {
			id := tr.begin(opID, run, "campaign.on_record")
			records++
			tr.end(id)
		},
	}
	if tr != nil {
		opts.Sink = &spanSink{buf: &inst.sink, tr: tr, op: opID, parent: run}
	}
	sum, err := campaign.Run(context.Background(), spec, opts)
	tr.end(run)
	if err != nil {
		return opOutcome{fail: err.Error()}
	}

	inst.out.Reset()
	inst.out.Write(inst.sink.Bytes())
	id := tr.begin(opID, root, "campaign.summary")
	err = sum.WriteJSON(&inst.out)
	tr.end(id)
	if err != nil {
		return opOutcome{fail: err.Error()}
	}
	return opOutcome{
		out:    inst.out.Bytes(),
		totals: sum.MetricsTotals,
		fail:   checkCampaign(sum, runs, records, bytes.Count(inst.sink.Bytes(), []byte("\n"))),
	}
}

func (inst *campaignInstance) close() error { return nil }

// checkCampaign is the correctness check shared by the in-process and
// the daemon campaign: every run recorded, every run passed.
func checkCampaign(sum *campaign.Summary, runs, records, lines int) string {
	switch {
	case sum == nil:
		return "no summary"
	case records != runs || lines != runs:
		return fmt.Sprintf("records seen %d, lines %d, want %d", records, lines, runs)
	case sum.Completed != runs || sum.Passed != runs:
		return fmt.Sprintf("summary completed %d passed %d, want %d", sum.Completed, sum.Passed, runs)
	}
	return ""
}

// daemonInstance is a campaign service on a journal directory behind an
// HTTP server on loopback TCP, with one client on one connection.
type daemonInstance struct {
	seeds  int
	dir    string
	mgr    *service.Manager
	srv    *httptest.Server
	client *service.Client
	httpc  *http.Client
	out    bytes.Buffer
	spec   bytes.Buffer
	lastID string
	ops    int
	openNs float64
}

func newDaemonInstance(seeds int, outDir string) (*daemonInstance, error) {
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return nil, err
	}
	inst := &daemonInstance{seeds: seeds, dir: dir}
	inst.out.Grow(1 << 20)
	t0 := time.Now()
	inst.mgr, err = service.Open(service.Config{Dir: dir})
	inst.openNs = float64(time.Since(t0))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	inst.srv = httptest.NewServer(service.NewHandler(inst.mgr))
	inst.client = service.NewClient(inst.srv.URL)
	inst.httpc = http.DefaultClient // what service.Client uses
	return inst, nil
}

func (inst *daemonInstance) rawSpec(seed int64) ([]byte, int, error) {
	spec := matrixSpec(seed, inst.seeds)
	inst.spec.Reset()
	err := json.NewEncoder(&inst.spec).Encode(spec)
	return inst.spec.Bytes(), spec.Runs(), err
}

func (inst *daemonInstance) op(seed int64, opID int, tr *tracer) opOutcome {
	raw, runs, err := inst.rawSpec(seed) // input generation, before the clock
	if err != nil {
		return opOutcome{fail: err.Error()}
	}
	ctx := context.Background()
	root := tr.begin(opID, 0, "op")
	defer tr.end(root)
	start := time.Now()

	id := tr.begin(opID, root, "service.submit")
	st, err := inst.client.Submit(ctx, "bench", raw, 1)
	tr.end(id)
	if err != nil {
		return opOutcome{fail: err.Error()}
	}
	inst.lastID = st.ID
	inst.ops++

	inst.out.Reset()
	records := 0
	var first time.Duration
	stream := tr.begin(opID, root, "service.stream")
	firstSpan := tr.begin(opID, stream, "service.first_record")
	err = inst.client.StreamRecords(ctx, st.ID, &inst.out, func(campaign.RunRecord) {
		if records == 0 {
			first = time.Since(start)
			tr.end(firstSpan)
		}
		records++
	})
	tr.end(stream)
	if err != nil {
		return opOutcome{fail: err.Error()}
	}
	lines := bytes.Count(inst.out.Bytes(), []byte("\n"))

	id = tr.begin(opID, root, "service.summary")
	sum, err := inst.client.Summary(ctx, st.ID, true)
	tr.end(id)
	if err != nil {
		return opOutcome{fail: err.Error()}
	}
	o := opOutcome{out: inst.out.Bytes(), firstRecord: first, fail: checkCampaign(sum, runs, records, lines)}
	if sum != nil {
		o.totals = sum.MetricsTotals
	}
	return o
}

// verify is the daemon's determinism contract, checked outside the
// timed region: the bytes streamed for a spec equal the bytes an
// in-process campaign.Run of that spec writes.
func (inst *daemonInstance) verify(seed int64, opID int) string {
	o := inst.op(seed, opID, nil)
	if o.fail != "" {
		return o.fail
	}
	var local bytes.Buffer
	if _, err := campaign.Run(context.Background(), matrixSpec(seed, inst.seeds), campaign.Options{Workers: 1, Sink: &local}); err != nil {
		return err.Error()
	}
	if !bytes.Equal(o.out, local.Bytes()) {
		return fmt.Sprintf("streamed bytes (%d) differ from the in-process run's (%d)", len(o.out), local.Len())
	}
	return ""
}

func (inst *daemonInstance) close() error {
	inst.srv.Close()
	inst.mgr.Close()
	inst.httpc.CloseIdleConnections()
	return os.RemoveAll(inst.dir)
}

// get fetches a daemon URL and discards the body, returning its size.
func (inst *daemonInstance) get(path string) (int64, error) {
	resp, err := inst.httpc.Get(inst.srv.URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.Copy(io.Discard, resp.Body)
}
