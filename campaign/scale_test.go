package campaign

import (
	"context"
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
