package experiments

import (
	"context"
	"fmt"
	"time"

	"virtualwire/campaign"
)

// The two figure sweeps are campaign specs run by the campaign executor:
// its worker pool, ordered records, JSONL streaming, retry policy and
// cancellation are the sweeps'. Per-variant seeds are pinned in the spec
// (base seed + 100 per sweep point + 1/2/3 per curve), not derived from
// the run index: they are the seeds the tables in EXPERIMENTS.md and the
// golden points in the tests were recorded under.

// Fig7CampaignSpec expands cfg into the Figure 7 matrix: for each
// offered rate, a baseline / vw / vw+rll variant triple.
func Fig7CampaignSpec(cfg Fig7Config) campaign.Spec {
	cfg.fill()
	spec := campaign.Spec{
		Name:    "fig7",
		Seed:    cfg.Seed,
		Script:  fig7Script(cfg.Filters, cfg.Actions),
		Nodes:   nodeTable,
		Horizon: campaign.Duration(cfg.Duration + 5*time.Second),
	}
	medium := ""
	if cfg.FullDuplex {
		medium = "fdswitch"
	}
	noScript := ""
	rllOn := true
	for i, rate := range cfg.OfferedMbps {
		seed := cfg.Seed + int64(i)*100
		wl := campaign.WorkloadSpec{
			Kind: "tcpbulk", From: "node1", To: "node2",
			SrcPort: 0x6000, DstPort: 0x4000,
			RateMbps: rate, Duration: campaign.Duration(cfg.Duration),
		}
		for _, v := range []struct {
			name   string
			script *string // nil inherits the fig7 script
			rll    *bool
			offset int64
		}{
			{"baseline", &noScript, nil, 1},
			{"vw", nil, nil, 2},
			{"vw+rll", nil, &rllOn, 3},
		} {
			vseed := seed + v.offset
			co := campaign.ConfigOverride{
				Medium:                medium,
				RLL:                   v.rll,
				MetricsSampleInterval: campaign.Duration(cfg.MetricsInterval),
			}
			if v.script == nil {
				co.Cost = cfg.Cost
			}
			spec.Variants = append(spec.Variants, campaign.Variant{
				Label:    fmt.Sprintf("%s@%vMbps", v.name, rate),
				Script:   v.script,
				Config:   co,
				Workload: &wl,
				Seed:     &vseed,
			})
		}
	}
	return spec
}

// RunFig7 executes the Figure 7 matrix through the campaign executor and
// folds the records back into one point per offered rate, bit-for-bit the
// same at any opts.Workers.
func RunFig7(ctx context.Context, cfg Fig7Config, opts campaign.Options) ([]Fig7Point, *campaign.Summary, error) {
	cfg.fill()
	spec := Fig7CampaignSpec(cfg)
	recs, sum, err := collectRecords(ctx, spec, opts)
	if err != nil {
		return nil, sum, err
	}
	points := make([]Fig7Point, len(cfg.OfferedMbps))
	for i, rate := range cfg.OfferedMbps {
		points[i] = Fig7Point{
			OfferedMbps:  rate,
			BaselineMbps: recs[3*i].GoodputMbps,
			VWMbps:       recs[3*i+1].GoodputMbps,
			VWRLLMbps:    recs[3*i+2].GoodputMbps,
		}
	}
	return points, sum, nil
}

// Fig8CampaignSpec expands cfg into the Figure 8 matrix: the shared
// baseline first, then a filters / actions / rll triple per filter
// count.
func Fig8CampaignSpec(cfg Fig8Config) campaign.Spec {
	cfg.fill()
	spec := campaign.Spec{
		Name:    "fig8",
		Seed:    cfg.Seed,
		Nodes:   nodeTable,
		Horizon: campaign.Duration(time.Duration(cfg.Pings)*cfg.Interval + 5*time.Second),
	}
	wl := campaign.WorkloadSpec{
		Kind: "udpecho", From: "node1", To: "node2",
		DstPort: fig8EchoPort,
		Size:    cfg.Size, Interval: campaign.Duration(cfg.Interval), Count: cfg.Pings,
	}
	rllOn := true
	addVariant := func(label, script string, rll *bool, seed int64) {
		src := script
		co := campaign.ConfigOverride{
			RLL:                   rll,
			MetricsSampleInterval: campaign.Duration(cfg.MetricsInterval),
		}
		if script != "" {
			co.Cost = cfg.Cost
		}
		s := seed
		spec.Variants = append(spec.Variants, campaign.Variant{
			Label: label, Script: &src, Config: co, Workload: &wl, Seed: &s,
		})
	}
	addVariant("baseline", "", nil, cfg.Seed+1)
	for i, n := range cfg.FilterCounts {
		seed := cfg.Seed + int64(i+1)*100
		scriptPlain := fig8Script(n, 0, fig8EchoPort)
		scriptActs := fig8Script(n, cfg.Actions, fig8EchoPort)
		addVariant(fmt.Sprintf("filters@n=%d", n), scriptPlain, nil, seed+1)
		addVariant(fmt.Sprintf("actions@n=%d", n), scriptActs, nil, seed+2)
		addVariant(fmt.Sprintf("rll@n=%d", n), scriptActs, &rllOn, seed+3)
	}
	return spec
}

// RunFig8 executes the Figure 8 matrix through the campaign executor and
// folds the records back into one point per filter count.
func RunFig8(ctx context.Context, cfg Fig8Config, opts campaign.Options) ([]Fig8Point, *campaign.Summary, error) {
	cfg.fill()
	spec := Fig8CampaignSpec(cfg)
	recs, sum, err := collectRecords(ctx, spec, opts)
	if err != nil {
		return nil, sum, err
	}
	baseRTT := recs[0].MeanRTT.D()
	if recs[0].Received < cfg.Pings {
		return nil, sum, fmt.Errorf("fig8 baseline echo received %d/%d", recs[0].Received, cfg.Pings)
	}
	pct := func(rtt time.Duration) float64 {
		return (float64(rtt) - float64(baseRTT)) / float64(baseRTT) * 100
	}
	points := make([]Fig8Point, len(cfg.FilterCounts))
	for i, n := range cfg.FilterCounts {
		row := recs[1+3*i : 1+3*i+3]
		for _, r := range row {
			if r.Received < cfg.Pings {
				return nil, sum, fmt.Errorf("fig8 %s echo received %d/%d", r.Label, r.Received, cfg.Pings)
			}
		}
		points[i] = Fig8Point{
			Filters:     n,
			BaselineRTT: baseRTT,
			PctFilters:  pct(row[0].MeanRTT.D()),
			PctActions:  pct(row[1].MeanRTT.D()),
			PctRLL:      pct(row[2].MeanRTT.D()),
		}
	}
	return points, sum, nil
}

// collectRecords runs the spec and gathers its records in index order,
// failing fast if any run did not pass.
func collectRecords(ctx context.Context, spec campaign.Spec, opts campaign.Options) ([]campaign.RunRecord, *campaign.Summary, error) {
	var recs []campaign.RunRecord
	user := opts.OnRecord
	opts.OnRecord = func(r campaign.RunRecord) {
		recs = append(recs, r)
		if user != nil {
			user(r)
		}
	}
	sum, err := campaign.Run(ctx, spec, opts)
	if err != nil {
		return nil, sum, err
	}
	for _, r := range recs {
		if r.Outcome != campaign.OutcomePass {
			return nil, sum, fmt.Errorf("campaign run %d (%s): %s: %s", r.Index, r.Label, r.Outcome, r.Error)
		}
	}
	return recs, sum, nil
}
