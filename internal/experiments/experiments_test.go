package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"virtualwire"
	"virtualwire/campaign"
)

// checkFig8Curves asserts what the paper reports of any Figure 8 sweep:
// the three curves are ordered (filters < +actions < +RLL), the overhead
// grows with the number of packet definitions, and the worst case stays
// in single digits ("never goes beyond 7%" in the paper; we allow a
// little slack for the simulated substrate).
func checkFig8Curves(t *testing.T, pts []Fig8Point) {
	t.Helper()
	for _, p := range pts {
		if !(p.PctFilters <= p.PctActions && p.PctActions <= p.PctRLL) {
			t.Errorf("curves out of order at n=%d: %+v", p.Filters, p)
		}
		if p.PctFilters < 0 {
			t.Errorf("negative overhead at n=%d: %+v", p.Filters, p)
		}
		if p.PctRLL > 9 {
			t.Errorf("overhead %0.2f%% at n=%d exceeds the single-digit band", p.PctRLL, p.Filters)
		}
	}
	// Monotone growth with filter count on every curve.
	for i := 1; i < len(pts); i++ {
		if pts[i].PctFilters <= pts[i-1].PctFilters {
			t.Errorf("curve (i) not growing: %+v then %+v", pts[i-1], pts[i])
		}
		if pts[i].PctActions <= pts[i-1].PctActions {
			t.Errorf("curve (ii) not growing: %+v then %+v", pts[i-1], pts[i])
		}
	}
}

// checkFig7Linear asserts what the paper reports of every Figure 7 point:
// up to 60 Mbps offered every mode carries the offered load, and no mode
// ever exceeds line rate.
func checkFig7Linear(t *testing.T, pts []Fig7Point) {
	t.Helper()
	for _, p := range pts {
		if p.OfferedMbps <= 60 {
			for name, v := range map[string]float64{
				"baseline": p.BaselineMbps, "vw": p.VWMbps, "vw+rll": p.VWRLLMbps,
			} {
				if v < p.OfferedMbps*0.95 || v > p.OfferedMbps*1.05 {
					t.Errorf("%s @%0.f Mbps offered: %0.1f Mbps", name, p.OfferedMbps, v)
				}
			}
		}
		if p.BaselineMbps > 100 || p.VWRLLMbps > 100 {
			t.Errorf("goodput above line rate: %+v", p)
		}
	}
}

func runFig7(t *testing.T, cfg Fig7Config) []Fig7Point {
	t.Helper()
	pts, _, err := RunFig7(context.Background(), cfg, campaign.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return pts
}

// TestFig8Shape asserts the properties the paper reports for Figure 8:
// checkFig8Curves' claims, and growth that is close to linear in the
// number of packet definitions.
func TestFig8Shape(t *testing.T) {
	pts, _, err := RunFig8(context.Background(), Fig8Config{Pings: 150, FilterCounts: []int{1, 10, 25}}, campaign.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	checkFig8Curves(t, pts)
	// Roughly linear: overhead at 25 filters is several times that at 1
	// (the linear-scan term dominates the fixed cost).
	if pts[2].PctFilters < 3*pts[0].PctFilters {
		t.Errorf("curve (i) not linear-ish: %0.2f%% @1 vs %0.2f%% @25",
			pts[0].PctFilters, pts[2].PctFilters)
	}
	out := FormatFig8(pts)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "+RLL") {
		t.Errorf("format:\n%s", out)
	}
}

// TestFig7Shape asserts Figure 7's properties: goodput tracks the
// offered rate in the linear region, plateaus near (not above) line
// rate, and the VirtualWire+RLL curve stays within ~10% of the baseline
// with a visible knee at high offered load.
func TestFig7Shape(t *testing.T) {
	pts := runFig7(t, Fig7Config{
		OfferedMbps: []float64{30, 60, 90, 100},
		Duration:    time.Second,
	})
	checkFig7Linear(t, pts)
	last := pts[len(pts)-1]
	if last.BaselineMbps < 80 {
		t.Errorf("baseline saturation %0.1f Mbps; switch model too lossy", last.BaselineMbps)
	}
	// The paper's headline: the RLL costs throughput at saturation, but
	// the loss stays around 10%.
	loss := (last.BaselineMbps - last.VWRLLMbps) / last.BaselineMbps * 100
	if loss <= 0 {
		t.Errorf("no RLL throughput penalty at saturation: %+v", last)
	}
	if loss > 15 {
		t.Errorf("RLL penalty %0.1f%% far exceeds the paper's ~10%%", loss)
	}
	// Knee: saturated goodput with RLL is below the 90 Mbps point's
	// offered load.
	if last.VWRLLMbps >= 90 {
		t.Errorf("no knee: vw+rll = %0.1f Mbps at saturation", last.VWRLLMbps)
	}
	out := FormatFig7(pts)
	if !strings.Contains(out, "Figure 7") {
		t.Errorf("format:\n%s", out)
	}
}

func TestScriptGenerators(t *testing.T) {
	s8 := fig8Script(25, 25, 9000)
	if strings.Count(s8, "decoy") != 24 {
		t.Errorf("fig8 script decoys:\n%s", s8)
	}
	if !strings.Contains(s8, "udp_req") || !strings.Contains(s8, "INCR_CNTR( J, 1 )") {
		t.Errorf("fig8 script:\n%s", s8)
	}
	s7 := fig7Script(25, 25)
	if !strings.Contains(s7, "TCP_data") {
		t.Errorf("fig7 script:\n%s", s7)
	}
	// Both must compile through the facade.
	if _, err := virtualwire.CompileScript(s8); err != nil {
		t.Fatalf("fig8 script does not compile: %v", err)
	}
	if _, err := virtualwire.CompileScript(s7); err != nil {
		t.Fatalf("fig7 script does not compile: %v", err)
	}
}

// TestFig7FullDuplexAblation: with full-duplex ports there is no shared
// segment for the RLL ACKs to contend on, so the knee flattens — the
// saturated RLL goodput must beat its half-duplex counterpart.
func TestFig7FullDuplexAblation(t *testing.T) {
	half := runFig7(t, Fig7Config{OfferedMbps: []float64{100}, Duration: time.Second})
	full := runFig7(t, Fig7Config{OfferedMbps: []float64{100}, Duration: time.Second, FullDuplex: true})
	h, f := half[0], full[0]
	if f.VWRLLMbps <= h.VWRLLMbps {
		t.Errorf("full duplex did not help the RLL: half=%.1f full=%.1f Mbps",
			h.VWRLLMbps, f.VWRLLMbps)
	}
	if f.BaselineMbps < 90 {
		t.Errorf("full-duplex baseline only %.1f Mbps", f.BaselineMbps)
	}
}
