package virtualwire

import (
	"reflect"
	"testing"

	"virtualwire/internal/sim"
)

// TestPlannedFabricDoesNotFlood: on the 1000-host fat-tree every switch
// knows the port toward every host from the Node Table and the spanning
// forest, so no frame of the 100 flows floods — not even each flow's
// first, which a learning fabric flooded to all 1000 hosts.
func TestPlannedFabricDoesNotFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host fabric")
	}
	r := fabricManyFlowRow()
	tb := r.build(t, 1, nil)
	r.run(t, tb, false)
	var ingress, flooded uint64
	for _, sw := range tb.fabric {
		ingress += sw.IngressFrames
		flooded += sw.FloodedFrames
	}
	if ingress == 0 || flooded != 0 {
		t.Errorf("fabric flooded %d of %d ingress frames, want none of some", flooded, ingress)
	}
}

// TestBusBurstsJoinRuns: on Figure 6's shared bus, every station's copy
// of a transmission is delivered at one instant, so a third of the
// scheduled events join a same-instant run instead of taking a heap
// entry of their own (6 364 of 18 583 at seed 3). The scheduler's
// unexported run counters give the join share and the mean heap depth
// per pop that docs/PERFORMANCE.md quotes; run with -v to see them.
func TestBusBurstsJoinRuns(t *testing.T) {
	var r identityRow
	for _, row := range identityRows(t) {
		if row.name == "fig6" {
			r = row
		}
	}
	tb := r.build(t, 3, nil)
	r.run(t, tb, false)
	field := func(s *sim.Scheduler, name string) uint64 {
		return reflect.ValueOf(s).Elem().FieldByName(name).Uint()
	}
	s := tb.sched
	joined := s.Scheduled() - field(s, "runs")
	share := float64(joined) / float64(s.Scheduled())
	t.Logf("%d of %d scheduled events joined a run (%.1f %%); mean heap depth %.1f over %d pops",
		joined, s.Scheduled(), 100*share, float64(field(s, "depth"))/float64(s.Executed()), s.Executed())
	if share < 0.3 {
		t.Errorf("join share %.3f, want at least 0.3: bus delivery bursts no longer share heap entries", share)
	}
}
