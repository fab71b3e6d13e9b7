package campaign

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"testing"
)

// benchSpec is a 16-run quickstart matrix; small enough to iterate,
// large enough to exercise the pool, window and ordered collector.
func benchSpec() Spec {
	spec := quickstartSpec(8, []float64{0, 1e-6})
	spec.Workloads[0].Bytes = 8 * 1024
	return spec
}

// runBenchSpec is one iteration of the campaign benchmarks: the whole
// matrix into a discarding sink, every run passing.
func runBenchSpec(tb testing.TB, spec Spec, workers int) {
	sum, err := Run(context.Background(), spec, Options{Workers: workers, Sink: io.Discard})
	if err != nil {
		tb.Fatal(err)
	}
	if runs := spec.Runs(); sum.Passed != runs {
		tb.Fatalf("passed %d/%d", sum.Passed, runs)
	}
}

func benchCampaign(b *testing.B, workers int) {
	// Asking for more workers than CPUs measures goroutine interleaving
	// noise, not executor scaling: on a 1-CPU box an 8-worker figure once
	// read as a speedup that no real machine would see. Clamp, and record
	// the CPU count so persisted results carry the machine context.
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	spec := benchSpec()
	runs := spec.Runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBenchSpec(b, spec, workers)
	}
	b.ReportMetric(float64(runs*b.N)/b.Elapsed().Seconds(), "runs/s")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// TestCampaignSerialAllocs is the allocation gate on the executor, on
// what BenchmarkCampaignSerial runs. The executor compiles each scenario
// variant once and resets long-lived worker testbeds between runs; if a
// change quietly reverts to per-run testbed construction (or brings
// reflection or gob back to the record path), allocations jump an order
// of magnitude: 1 598 per 16-run matrix today (two testbed builds and 16
// runs), 45k before the reuse pipeline. The limit is today's count x 1.25.
func TestCampaignSerialAllocs(t *testing.T) {
	const limit = 1998
	spec := benchSpec()
	if n := testing.AllocsPerRun(3, func() { runBenchSpec(t, spec, 1) }); n > limit {
		t.Errorf("the %d-run matrix allocates %.0f times at one worker (limit %d)", spec.Runs(), n, limit)
	}
}

// BenchmarkCampaignSerial measures per-run cost without pool overhead.
func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel measures campaign throughput at the default
// worker count; runs/s versus the serial figure shows executor scaling.
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, runtime.GOMAXPROCS(0)) }

// The fixed-width worker benchmarks trace the scaling curve (compare
// runs/s against BenchmarkCampaignSerial). Worker testbeds are compiled
// once and reset between runs, so added workers cost goroutines, not
// testbed rebuilds; the curve flattens at the machine's core count.
func BenchmarkCampaignWorkers2(b *testing.B) { benchCampaign(b, 2) }
func BenchmarkCampaignWorkers4(b *testing.B) { benchCampaign(b, 4) }
func BenchmarkCampaignWorkers8(b *testing.B) { benchCampaign(b, 8) }

// BenchmarkRecordEncode encodes one two-host record the two ways there
// are: "append" is the collector's path, appendJSON into a line buffer
// it reuses; "marshal" is json.Marshal, which calls the same encoder
// through MarshalJSON and then runs encoding/json's own validating
// compaction over the result (most of its time) and copies it out.
func BenchmarkRecordEncode(b *testing.B) {
	var rec RunRecord
	spec := quickstartSpec(1, []float64{0})
	if _, err := Run(context.Background(), spec, Options{Workers: 1, OnRecord: func(r RunRecord) { rec = r }}); err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var line []byte
		for i := 0; i < b.N; i++ {
			var err error
			if line, err = rec.appendJSON(line[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(line)))
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// decodeLines reads a campaign's lines back through decode, as a client
// following a record stream does.
func decodeLines(tb testing.TB, lines [][]byte, decode func([]byte, *RunRecord) error) {
	var rec RunRecord
	for i, line := range lines {
		if err := decode(line, &rec); err != nil || rec.Index != i || rec.Report == nil {
			tb.Fatalf("line %d read back as record %d: %v", i, rec.Index, err)
		}
	}
}

// TestRecordDecodeAllocs is the work-count gate on the read side of a
// record, on what BenchmarkRecordDecode/template runs: a decoder that has
// met the stream's layers and names builds the record's own strings, its
// report, fault list, node rows and totals map — 14 allocations for a
// two-host record — where reflection through map[string]map[string]float64
// makes 429. A line that quietly stops fitting the template (an encoder change
// without its decoder) lands on the reference and trips this.
func TestRecordDecodeAllocs(t *testing.T) {
	const limit = 32
	lines := recordLines(t, quickstartSpec(8, []float64{0, 1e-6}))
	var dec RecordDecoder
	decodeLines(t, lines, dec.Decode)
	n := testing.AllocsPerRun(10, func() { decodeLines(t, lines, dec.Decode) }) / float64(len(lines))
	if n > limit {
		t.Errorf("a warmed decoder allocates %.1f times per record (limit %d)", n, limit)
	}
}

// BenchmarkRecordDecode reads the golden campaign's 16 lines the two ways
// there are: "reference" is json.Unmarshal, "template" RecordDecoder on
// lines this build wrote. One op is one record.
func BenchmarkRecordDecode(b *testing.B) {
	lines := recordLines(b, quickstartSpec(8, []float64{0, 1e-6}))
	var dec RecordDecoder
	for _, way := range []struct {
		name   string
		decode func([]byte, *RunRecord) error
	}{
		{"reference", func(line []byte, rec *RunRecord) error { *rec = RunRecord{}; return json.Unmarshal(line, rec) }},
		{"template", dec.Decode},
	} {
		b.Run(way.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(lines[0])))
			for i := 0; i < b.N; i += len(lines) {
				decodeLines(b, lines, way.decode)
			}
		})
	}
}
