// Command vwbench regenerates the paper's evaluation figures on the
// simulated testbed and prints them as tables:
//
//	vwbench -fig 7          # TCP throughput vs offered load (Figure 7)
//	vwbench -fig 8          # UDP echo RTT overhead vs #filters (Figure 8)
//	vwbench -fig all        # both
//
// Flags tune the sweeps; defaults match the paper's parameters
// (25 packet definitions, 25 actions per packet, 10..100 Mbps offered).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/internal/experiments"
	"virtualwire/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vwbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	flags := flag.NewFlagSet("vwbench", flag.ExitOnError)
	fig := flags.String("fig", "all", "which figure to regenerate: 7, 8 or all")
	seed := flags.Int64("seed", 1, "simulation seed")
	duration := flags.Duration("duration", 2*time.Second, "fig 7: paced-transmission window per point")
	rates := flags.String("rates", "", "fig 7: comma-separated offered rates in Mbps (default 10..100)")
	pings := flags.Int("pings", 300, "fig 8: echo round trips per point")
	filters := flags.String("filters", "", "fig 8: comma-separated filter counts (default 1,5,10,15,20,25)")
	metricsOut := flags.String("metrics-out", "", "write per-sub-run metrics time series to this JSON file")
	metricsInterval := flags.Duration("metrics-interval", 50*time.Millisecond, "virtual-time sampling interval for -metrics-out")
	parallel := flags.Int("parallel", 1, "sweep points run concurrently (0 = GOMAXPROCS); results are identical to -parallel 1")
	var prof profiling.Flags
	prof.Register(flags)
	flags.Parse(args)

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	want7 := *fig == "7" || *fig == "all"
	want8 := *fig == "8" || *fig == "all"
	if !want7 && !want8 {
		return fmt.Errorf("unknown -fig %q (want 7, 8 or all)", *fig)
	}

	// With -metrics-out, every sub-run's record carries its sampled series;
	// they are reported under the record's label, like "vw+rll@90Mbps" or
	// "actions@n=10".
	type labeledSeries struct {
		Label  string                     `json:"label"`
		Series *virtualwire.MetricsSeries `json:"series"`
	}
	var collected []labeledSeries
	opts := campaign.Options{Workers: *parallel}
	var sample time.Duration
	if *metricsOut != "" {
		sample = *metricsInterval
		opts.OnRecord = func(r campaign.RunRecord) {
			collected = append(collected, labeledSeries{Label: r.Label, Series: r.Series})
		}
	}

	if want7 {
		cfg := experiments.Fig7Config{Seed: *seed, Duration: *duration, MetricsInterval: sample}
		if *rates != "" {
			rs, err := parseFloats(*rates)
			if err != nil {
				return fmt.Errorf("-rates: %w", err)
			}
			cfg.OfferedMbps = rs
		}
		pts, _, err := experiments.RunFig7(context.Background(), cfg, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFig7(pts))
	}
	if want8 {
		cfg := experiments.Fig8Config{Seed: *seed, Pings: *pings, MetricsInterval: sample}
		if *filters != "" {
			fs, err := parseInts(*filters)
			if err != nil {
				return fmt.Errorf("-filters: %w", err)
			}
			cfg.FilterCounts = fs
		}
		pts, _, err := experiments.RunFig8(context.Background(), cfg, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.FormatFig8(pts))
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Runs []labeledSeries `json:"runs"`
		}{Runs: collected}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s (%d sub-runs)\n", *metricsOut, len(collected))
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
