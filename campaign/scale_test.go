package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// scaleSpec is a scriptless host-group campaign over a multi-switch
// fabric: the topology-scale shape that has no NODE_TABLE at all.
func scaleSpec(hosts, seeds int) Spec {
	return Spec{
		Name:      "scale-matrix",
		Seed:      7,
		SeedCount: seeds,
		Hosts:     hosts,
		Horizon:   Duration(5 * time.Second),
		Configs: []ConfigOverride{{
			Label:    "star",
			Topology: &TopologyOverride{Kind: "star", Switches: 3},
		}},
		Workloads: []WorkloadSpec{{
			Kind: "incast", Count: 8, Bytes: 4 << 10,
		}},
	}
}

// Scriptless host-group campaigns run, reuse worker testbeds across
// seeds, and stay deterministic across worker counts.
func TestHostGroupCampaign(t *testing.T) {
	spec := scaleSpec(24, 4)
	refSink, refSum := runToBytes(t, spec, 1)
	if got := bytes.Count(refSink, []byte("\n")); got != spec.Runs() {
		t.Fatalf("sink lines = %d, want %d", got, spec.Runs())
	}
	gotSink, gotSum := runToBytes(t, spec, 4)
	if !bytes.Equal(gotSink, refSink) {
		t.Error("JSONL with 4 workers differs from serial run")
	}
	if !bytes.Equal(gotSum, refSum) {
		t.Error("summary with 4 workers differs from serial run")
	}

	var sum Summary
	if err := json.Unmarshal(refSum, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Passed != spec.Runs() {
		t.Fatalf("passed %d/%d", sum.Passed, spec.Runs())
	}
	if sum.MetricsTotals["fabric/forwarded_frames"] <= 0 {
		t.Errorf("no fabric forwarding in rollup: %v", sum.MetricsTotals)
	}

	// Every incast completed: Received (completed transfers) == Sent
	// (senders) in each record.
	for _, line := range strings.Split(strings.TrimSpace(string(refSink)), "\n") {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Sent != 8 || rec.Received != 8 {
			t.Fatalf("record %d: %d/%d incast transfers completed", rec.Index, rec.Received, rec.Sent)
		}
		if rec.DeliveredBytes != 8*(4<<10) {
			t.Fatalf("record %d: delivered %d bytes", rec.Index, rec.DeliveredBytes)
		}
	}
}

// shardAxisSpec is a scriptless fabric campaign whose config label is
// pinned, so the emitted records carry no trace of the shard count: the
// JSONL stream and summary must come out byte-identical at any count.
func shardAxisSpec(shards int) Spec {
	sh := shards
	return Spec{
		Name:      "shard-identity",
		Seed:      11,
		SeedCount: 3,
		Hosts:     24,
		Horizon:   Duration(5 * time.Second),
		Configs: []ConfigOverride{{
			Label:    "star4",
			Shards:   &sh,
			Topology: &TopologyOverride{Kind: "star", Switches: 4},
		}},
		Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 12, Bytes: 2 << 10}},
	}
}

// TestShardAxisIdentity extends the determinism guarantee through the
// campaign layer: the same matrix produces byte-identical JSONL and
// summary whether each run executes at 1, 2 or 4 shards — or at 0, which
// is one shard — and regardless of executor worker count.
func TestShardAxisIdentity(t *testing.T) {
	spec := shardAxisSpec(1)
	refSink, refSum := runToBytes(t, spec, 1)
	if got := bytes.Count(refSink, []byte("\n")); got != spec.Runs() {
		t.Fatalf("sink lines = %d, want %d", got, spec.Runs())
	}
	for _, shards := range []int{0, 2, 4} {
		gotSink, gotSum := runToBytes(t, shardAxisSpec(shards), 1)
		if !bytes.Equal(gotSink, refSink) {
			t.Errorf("JSONL at %d shards differs from 1 shard", shards)
		}
		if !bytes.Equal(gotSum, refSum) {
			t.Errorf("summary at %d shards differs from 1 shard", shards)
		}
	}
	// Sharded runs under a parallel executor: the worker budget shrinks
	// but the bytes must not move.
	gotSink, gotSum := runToBytes(t, shardAxisSpec(4), 4)
	if !bytes.Equal(gotSink, refSink) {
		t.Error("JSONL from 4 workers x 4 shards differs from serial")
	}
	if !bytes.Equal(gotSum, refSum) {
		t.Error("summary from 4 workers x 4 shards differs from serial")
	}

	var sum Summary
	if err := json.Unmarshal(refSum, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Passed != spec.Runs() {
		t.Fatalf("passed %d/%d", sum.Passed, spec.Runs())
	}
}

// Topology and workload validation fails fast at expand time, before any
// run starts.
func TestScaleSpecValidation(t *testing.T) {
	bad := scaleSpec(24, 1)
	bad.Configs[0].Topology.Kind = "moebius"
	if _, err := Run(context.Background(), bad, Options{Workers: 1}); err == nil {
		t.Error("unknown topology kind accepted")
	}
	bad = scaleSpec(24, 1)
	bad.Hosts = 0
	if _, err := Run(context.Background(), bad, Options{Workers: 1}); err == nil {
		t.Error("scriptless spec with no hosts accepted")
	}
	bad = scaleSpec(24, 1)
	bad.Workloads[0].Kind = "stampede"
	if _, err := Run(context.Background(), bad, Options{Workers: 1}); err == nil {
		t.Error("unknown workload kind accepted")
	}
}
