package virtualwire

import (
	"reflect"
	"testing"

	"virtualwire/internal/sim"
)

// TestFabricFloodsJoinRuns: on the 1000-host fat-tree, a switch flooding
// a frame schedules every port's copy at one instant, so most events join
// a same-instant run instead of taking a heap entry of their own. The
// scheduler's unexported run counters give the join share and the mean
// heap depth per pop that docs/PERFORMANCE.md quotes; run with -v to see
// them.
func TestFabricFloodsJoinRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host fabric")
	}
	r := fabricManyFlowRow()
	tb := r.build(t, 1, nil)
	r.run(t, tb, false)
	field := func(s *sim.Scheduler, name string) uint64 {
		return reflect.ValueOf(s).Elem().FieldByName(name).Uint()
	}
	s := tb.sched
	joined := s.Scheduled() - field(s, "runs")
	share := float64(joined) / float64(s.Scheduled())
	t.Logf("%d of %d scheduled events joined a run (%.1f %%); mean heap depth %.1f over %d pops",
		joined, s.Scheduled(), 100*share, float64(field(s, "depth"))/float64(s.Executed()), s.Executed())
	if share < 0.5 {
		t.Errorf("join share %.3f, want over half: flood bursts no longer share heap entries", share)
	}
}
