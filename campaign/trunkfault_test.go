package campaign

import (
	"context"
	"testing"
	"time"
)

// trunkFaultSpec is a scriptless ring campaign with a trunk-failure
// axis: the first tree trunk dies mid-run, spanning-tree failover
// promotes the ring's redundant trunk. It runs at one shard, and the
// config label is pinned so the records carry no trace of the count.
func trunkFaultSpec() Spec {
	one := 1
	return Spec{
		Name:      "trunk-fault-identity",
		Seed:      19,
		SeedCount: 3,
		Hosts:     24,
		Horizon:   Duration(5 * time.Second),
		Configs: []ConfigOverride{{
			Label:    "ring4/kill+flap",
			Shards:   &one,
			Topology: &TopologyOverride{Kind: "ring", Switches: 4},
			TrunkFaults: []TrunkFault{
				{Kind: "trunk_down", Trunk: 0, At: Duration(100 * time.Millisecond)},
				{Kind: "trunk_flap", Trunk: 1, At: Duration(400 * time.Millisecond),
					Period: Duration(150 * time.Millisecond), Count: 2},
			},
		}},
		Workloads: []WorkloadSpec{{Kind: "manyflow", Flows: 12, Bytes: 2 << 10}},
	}
}

// Trunk-fault validation fails fast at expand time.
func TestTrunkFaultValidation(t *testing.T) {
	bad := trunkFaultSpec()
	bad.Configs[0].TrunkFaults[0].Kind = "melt"
	if _, err := Run(context.Background(), bad, Options{Workers: 1}); err == nil {
		t.Error("unknown trunk fault kind accepted")
	}
	bad = trunkFaultSpec()
	bad.Configs[0].Topology = nil
	if _, err := Run(context.Background(), bad, Options{Workers: 1}); err == nil {
		t.Error("trunk faults without a topology accepted")
	}
}
