package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"virtualwire/campaign"
)

// smallFig7 keeps the golden and identity tests fast: two rates, short
// pacing.
func smallFig7() Fig7Config {
	return Fig7Config{
		OfferedMbps: []float64{20, 60},
		Duration:    100 * time.Millisecond,
		Filters:     5,
		Actions:     5,
		Seed:        11,
	}
}

func smallFig8() Fig8Config {
	return Fig8Config{
		FilterCounts: []int{1, 10},
		Pings:        40,
		Interval:     time.Millisecond,
		Actions:      5,
		Seed:         23,
	}
}

// The points the deleted direct drivers (one hand-built testbed per
// sub-run, no campaign executor) returned for smallFig7 and smallFig8,
// printed with %x at commit 0cef8f8, the last to carry them.
var (
	driverFig7 = []Fig7Point{
		{20, 0x1.42f2c52d2bc0ap+04, 0x1.42f26322bc382p+04, 0x1.42f6d318e4a5bp+04}, // 20.1843 20.1842 20.1853
		{60, 0x1.e2523caf74144p+05, 0x1.e251aae5b194p+05, 0x1.e2524f6cd42b7p+05},  // 60.2902 60.2899 60.2902
	}
	driverFig8 = []Fig8Point{
		{1, 357419, 0x1.0d985672b37b3p-02, 0x1.71de99f7f4e0dp-02, 0x1.b4dfd6a12ebfap+01},  // 0.2633 0.3612 3.4131
		{10, 357419, 0x1.ac6308af984c9p+00, 0x1.c5749990e8a5ep+00, 0x1.078f89b2f4cd9p+02}, // 1.6734 1.7713 4.1181
	}
)

// TestFig7CampaignMatchesDriver: the campaign form of the Figure 7 sweep
// reproduces the direct driver's recorded points bit for bit, at several
// worker counts. The paper's claims are asserted first, so the table can
// never bless a wrong figure.
func TestFig7CampaignMatchesDriver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, sum, err := RunFig7(context.Background(), smallFig7(), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkFig7Linear(t, got)
		if !reflect.DeepEqual(got, driverFig7) {
			t.Errorf("workers=%d points = %x, want %x", workers, got, driverFig7)
		}
		if sum.Passed != sum.Runs || sum.Runs != 3*len(driverFig7) {
			t.Errorf("workers=%d summary: %d/%d passed", workers, sum.Passed, sum.Runs)
		}
	}
}

// TestFig8CampaignMatchesDriver: same guarantee for Figure 8.
func TestFig8CampaignMatchesDriver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, sum, err := RunFig8(context.Background(), smallFig8(), campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkFig8Curves(t, got)
		if !reflect.DeepEqual(got, driverFig8) {
			t.Errorf("workers=%d points = %x, want %x", workers, got, driverFig8)
		}
		if sum.Runs != 1+3*len(driverFig8) || sum.Passed != sum.Runs {
			t.Errorf("workers=%d summary: %d/%d passed", workers, sum.Passed, sum.Runs)
		}
	}
}

// labeledSeries is one record's label and its Series as encoded JSON.
type labeledSeries struct {
	Label string
	JSON  []byte
}

func seriesCollector(t *testing.T) (*[]labeledSeries, func(campaign.RunRecord)) {
	t.Helper()
	var got []labeledSeries
	return &got, func(r campaign.RunRecord) {
		if r.Series == nil || len(r.Series.Points) == 0 {
			t.Errorf("record %d (%s) carries no sampled series", r.Index, r.Label)
			return
		}
		b, err := json.Marshal(r.Series)
		if err != nil {
			t.Fatalf("encode series: %v", err)
		}
		got = append(got, labeledSeries{Label: r.Label, JSON: b})
	}
}

func checkSameSeries(t *testing.T, serial, parallel []labeledSeries) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("record counts diverge: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Label != parallel[i].Label {
			t.Errorf("record %d label: %q vs %q", i, serial[i].Label, parallel[i].Label)
		}
		if !bytes.Equal(serial[i].JSON, parallel[i].JSON) {
			t.Errorf("record %d (%s): metrics series bytes diverge", i, serial[i].Label)
		}
	}
}

// A Figure 7 sweep on four workers must be indistinguishable from the
// one-worker sweep: identical points and an identical record stream
// (labels, order, and byte-for-byte sampled series).
func TestFig7SerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([]Fig7Point, []labeledSeries) {
		collected, onRecord := seriesCollector(t)
		pts, _, err := RunFig7(context.Background(), Fig7Config{
			OfferedMbps:     []float64{20, 60, 95},
			Duration:        100 * time.Millisecond,
			Seed:            42,
			MetricsInterval: 20 * time.Millisecond,
		}, campaign.Options{Workers: workers, OnRecord: onRecord})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts, *collected
	}
	serialPts, serialRecs := run(1)
	parPts, parRecs := run(4)
	if !reflect.DeepEqual(serialPts, parPts) {
		t.Errorf("points diverge:\nserial:   %+v\nparallel: %+v", serialPts, parPts)
	}
	if len(serialRecs) != 9 {
		t.Errorf("%d sampled records, want 9", len(serialRecs))
	}
	checkSameSeries(t, serialRecs, parRecs)
}

// Same for Figure 8, whose shared baseline is the first record.
func TestFig8SerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([]Fig8Point, []labeledSeries) {
		collected, onRecord := seriesCollector(t)
		pts, _, err := RunFig8(context.Background(), Fig8Config{
			FilterCounts:    []int{1, 10, 25},
			Pings:           40,
			Seed:            7,
			MetricsInterval: 10 * time.Millisecond,
		}, campaign.Options{Workers: workers, OnRecord: onRecord})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return pts, *collected
	}
	serialPts, serialRecs := run(1)
	parPts, parRecs := run(4)
	if !reflect.DeepEqual(serialPts, parPts) {
		t.Errorf("points diverge:\nserial:   %+v\nparallel: %+v", serialPts, parPts)
	}
	if len(serialRecs) != 10 || serialRecs[0].Label != "baseline" {
		t.Errorf("%d sampled records, first %q; want 10 led by the shared baseline", len(serialRecs), serialRecs[0].Label)
	}
	checkSameSeries(t, serialRecs, parRecs)
}
