// Command vwcampaign executes a scenario matrix — a campaign — across a
// bounded worker pool, streaming one JSON record per run to a JSONL
// file and printing an aggregate summary. Equal specs and seeds give
// byte-identical output at any -workers value.
//
// The matrix comes either from a JSON spec file (-spec, see
// docs/CAMPAIGNS.md for the schema) or from quick flags that cross a
// script with a seed axis and an optional bit-error-rate axis:
//
//	# 1000 runs: 250 seeds x 4 bit error rates, 8 workers:
//	vwcampaign -script scripts/quickstart_drop.fsl \
//	    -tcp node1:0x6000-node2:0x4000:65536 \
//	    -seeds 250 -ber 0,1e-7,1e-6,1e-5 -workers 8 \
//	    -out runs.jsonl -summary text
//
//	# Same matrix from a spec file, JSON summary:
//	vwcampaign -spec campaign.json -out runs.jsonl -summary json
//
//	# The paper's Figures 7 and 8 at its parameters, as tables (each
//	# figure is one campaign; -metrics-interval puts a sampled metrics
//	# series on every record in -out):
//	vwcampaign -fig all -summary none -out figs.jsonl -metrics-interval 50ms
//
// With -addr the same campaign is submitted to a vwcampaignd daemon
// instead of running in-process; records stream back over HTTP into
// -out with the same bytes an in-process run would write (see
// docs/SERVICE.md):
//
//	vwcampaign -addr 127.0.0.1:8047 -spec campaign.json -out runs.jsonl
//	vwcampaign -addr 127.0.0.1:8047 -spec campaign.json -detach   # prints the job id
//	vwcampaign -addr 127.0.0.1:8047 -status j000001
//	vwcampaign -addr 127.0.0.1:8047 -attach j000001 -out runs.jsonl
//	vwcampaign -addr 127.0.0.1:8047 -cancel j000001
//
// -spec runs the spec as written and -fig the paper's parameters: a
// quick flag set beside either is refused by name, not ignored.
//
// The exit status is 0 when every run completed and passed, 1 on a
// campaign-level failure (with -fig, any run that did not pass), and 2
// when runs failed or were cut short.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/campaign/service"
	"virtualwire/internal/cliflag"
	"virtualwire/internal/experiments"
	"virtualwire/internal/profiling"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vwcampaign:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// quickFlags build a matrix from flags. -spec refuses every one that is
// set; -fig refuses all but -seed and -metrics-interval.
var quickFlags = []string{
	"script", "scenario", "nodes", "seed", "seeds", "ber", "rll", "medium",
	"tcp", "echo", "hosts", "topology", "incast", "manyflow", "horizon",
	"timeout", "retries", "shards", "trunk-fail", "trunk-flap", "metrics-interval",
}

func run(args []string, stdout, stderr io.Writer) (code int, retErr error) {
	flags := flag.NewFlagSet("vwcampaign", flag.ExitOnError)
	flags.SetOutput(stderr)
	specPath := flags.String("spec", "", "JSON campaign spec file (alternative to the quick flags)")
	fig := flags.String("fig", "", "regenerate the paper's figure 7, 8 or all at its parameters and print the tables (alternative to -spec and the quick flags)")
	scriptPath := flags.String("script", "", "FSL scenario file for a quick-flag campaign")
	scenario := flags.String("scenario", "", "scenario name from a multi-scenario script")
	nodesPath := flags.String("nodes", "", "FSL file supplying the NODE_TABLE (default: the script)")
	seed := flags.Int64("seed", 1, "campaign master seed")
	seeds := flags.Int("seeds", 1, "seed axis size (per-run seeds derive from -seed and the run index)")
	bers := flags.String("ber", "", "comma-separated bit error rates forming the config axis")
	rll := flags.Bool("rll", false, "insert the Reliable Link Layer in every run")
	medium := flags.String("medium", "", "testbed medium: switch, bus or fdswitch")
	tcpSpec := flags.String("tcp", "", "TCP bulk workload: from:port-to:port:bytes")
	echoSpec := flags.String("echo", "", "UDP echo workload: client-server:port:count")
	hosts := flags.Int("hosts", 0, "scriptless runs over this many generated hosts (alternative to -script)")
	topology := flags.String("topology", "", "multi-switch fabric: kind[:switches], kind = star, ring, fattree or random")
	incastSpec := flags.String("incast", "", "incast workload: senders:bytes (N-to-1 onto the first host)")
	manyflowSpec := flags.String("manyflow", "", "many-flow workload: flows:bytes (random pairs across all hosts)")
	horizon := flags.Duration("horizon", 60*time.Second, "virtual-time horizon per run")
	timeout := flags.Duration("timeout", 0, "wall-clock timeout per run (0 = none)")
	retries := flags.Int("retries", 0, "extra attempts for transiently failing runs")
	workers := flags.Int("workers", 0, "concurrent runs (0 = GOMAXPROCS; never affects output bytes)")
	outPath := flags.String("out", "", "write one JSON record per run to this JSONL file")
	summaryMode := flags.String("summary", "text", "summary format: text, json or none")
	summaryOut := flags.String("summary-out", "", "write the summary here instead of stdout")
	progress := flags.Bool("progress", false, "print per-run progress lines to stderr")
	shardsFlag := flags.String("shards", "", "shards per run for quick-flag campaigns: a shard count or auto (empty, 0 and 1 are all one shard)")
	trunkFail := flags.String("trunk-fail", "", "comma-separated trunk failures idx@at (e.g. 0@500ms; requires -topology)")
	trunkFlap := flags.String("trunk-flap", "", "comma-separated trunk flaps idx@at:period:count (e.g. 0@500ms:200ms:3; requires -topology)")
	metricsInterval := flags.Duration("metrics-interval", 0, "sample every run's metrics at this virtual-time interval; the series rides on its -out record (quick flags and -fig)")
	addr := flags.String("addr", "", "vwcampaignd address (host:port or URL): submit to the daemon instead of running in-process")
	tenant := flags.String("tenant", "", "tenant name for daemon submissions (requires -addr)")
	detach := flags.Bool("detach", false, "submit to the daemon and print the job id without waiting (requires -addr)")
	attachID := flags.String("attach", "", "attach to an existing daemon job: stream its records and summary (requires -addr)")
	statusID := flags.String("status", "", "print a daemon job's status as JSON and exit (requires -addr)")
	cancelID := flags.String("cancel", "", "cancel a daemon job and exit (requires -addr)")
	var prof profiling.Flags
	prof.Register(flags)
	flags.Parse(args)

	set := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *summaryMode {
	case "text", "json", "none":
	default:
		return 1, fmt.Errorf("unknown -summary %q (want text, json or none)", *summaryMode)
	}
	if *addr == "" && (*tenant != "" || *detach || *attachID != "" || *statusID != "" || *cancelID != "") {
		return 1, fmt.Errorf("-tenant, -detach, -attach, -status and -cancel require -addr")
	}
	switch {
	case *fig != "":
		if bad := setAmong(set, append([]string{"spec", "addr"}, quickFlags...), "seed", "metrics-interval"); bad != "" {
			return 1, fmt.Errorf("-fig runs the paper's parameters in process: it takes no %s", bad)
		}
	case *specPath != "":
		if bad := setAmong(set, quickFlags); bad != "" {
			return 1, fmt.Errorf("-spec runs the spec as written: it takes no %s", bad)
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		return 1, err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			code, retErr = 1, err
		}
	}()

	// SIGINT/SIGTERM cancel the campaign (or the remote stream);
	// finished records stay flushed.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	o := &output{stdout: stdout, stderr: stderr, progress: *progress, mode: *summaryMode, path: *summaryOut}
	defer o.close()
	if *fig != "" {
		return runFigures(ctx, o, *fig, *seed, *metricsInterval, *workers, *outPath)
	}
	if *addr != "" {
		// Job-management modes need no spec at all.
		c := service.NewClient(*addr)
		switch {
		case *cancelID != "":
			st, err := c.Cancel(ctx, *cancelID)
			if err != nil {
				return 1, err
			}
			return 0, o.printJobStatus(st)
		case *statusID != "":
			st, err := c.Status(ctx, *statusID)
			if err != nil {
				return 1, err
			}
			return 0, o.printJobStatus(st)
		case *attachID != "":
			return attachJob(ctx, o, c, *attachID, *outPath)
		}
	}

	// Either arm ends in the one admission pass (campaign.Spec.Plan): a
	// spec that cannot run is refused here, before -out is created or the
	// daemon is contacted, and what is admitted is what runs.
	var plan *campaign.Plan
	switch {
	case *specPath != "":
		raw, err := os.ReadFile(*specPath)
		if err != nil {
			return 1, err
		}
		if plan, err = campaign.ParsePlan(raw); err != nil {
			return 1, fmt.Errorf("%s: %w", *specPath, err)
		}
	case *scriptPath != "" || *hosts > 0:
		spec := campaign.Spec{
			Name:      strings.TrimSuffix(*scriptPath, ".fsl"),
			Seed:      *seed,
			SeedCount: *seeds,
			Scenario:  *scenario,
			Horizon:   campaign.Duration(*horizon),
			Timeout:   campaign.Duration(*timeout),
			Retries:   *retries,
			Hosts:     *hosts,
		}
		if *scriptPath != "" {
			src, err := os.ReadFile(*scriptPath)
			if err != nil {
				return 1, err
			}
			spec.Script = string(src)
		} else {
			spec.Name = fmt.Sprintf("hosts%d", *hosts)
		}
		if *nodesPath != "" {
			nsrc, err := os.ReadFile(*nodesPath)
			if err != nil {
				return 1, err
			}
			spec.Nodes = string(nsrc)
		}
		// eachConfig applies f to every config of the axis, first making
		// the one default config when no flag has made any.
		eachConfig := func(f func(*campaign.ConfigOverride)) {
			if len(spec.Configs) == 0 {
				spec.Configs = []campaign.ConfigOverride{{}}
			}
			for i := range spec.Configs {
				f(&spec.Configs[i])
			}
		}
		if *bers != "" {
			for _, f := range strings.Split(*bers, ",") {
				f = strings.TrimSpace(f)
				ber, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return 1, fmt.Errorf("-ber: %w", err)
				}
				spec.Configs = append(spec.Configs, campaign.ConfigOverride{Label: "ber=" + f, BitErrorRate: &ber})
			}
		}
		if *medium != "" {
			if _, err := virtualwire.ParseMedium(*medium); err != nil {
				return 1, fmt.Errorf("-medium: %w", err)
			}
			eachConfig(func(c *campaign.ConfigOverride) { c.Medium = *medium })
		}
		if *rll {
			on := true
			eachConfig(func(c *campaign.ConfigOverride) { c.RLL = &on })
		}
		if *topology != "" {
			topo, err := parseTopology(*topology)
			if err != nil {
				return 1, fmt.Errorf("-topology: %w", err)
			}
			eachConfig(func(c *campaign.ConfigOverride) { c.Topology = topo })
		}
		if *trunkFail != "" || *trunkFlap != "" {
			if *topology == "" {
				return 1, fmt.Errorf("-trunk-fail/-trunk-flap require -topology")
			}
			faults, err := parseTrunkFaults(*trunkFail, *trunkFlap)
			if err != nil {
				return 1, err
			}
			eachConfig(func(c *campaign.ConfigOverride) { c.TrunkFaults = faults })
		}
		if *shardsFlag != "" {
			k, err := parseShards(*shardsFlag)
			if err != nil {
				return 1, fmt.Errorf("-shards: %w", err)
			}
			eachConfig(func(c *campaign.ConfigOverride) { c.Shards = &k })
		}
		if *metricsInterval > 0 {
			eachConfig(func(c *campaign.ConfigOverride) { c.MetricsSampleInterval = campaign.Duration(*metricsInterval) })
		}
		if *tcpSpec != "" {
			c, err := cliflag.TCP(*tcpSpec)
			if err != nil {
				return 1, fmt.Errorf("-tcp: %w", err)
			}
			spec.Workloads = append(spec.Workloads, campaign.WorkloadSpec{
				Kind: "tcpbulk", From: c.From, To: c.To, SrcPort: c.SrcPort, DstPort: c.DstPort, Bytes: c.Bytes,
			})
		}
		if *echoSpec != "" {
			c, err := cliflag.Echo(*echoSpec)
			if err != nil {
				return 1, fmt.Errorf("-echo: %w", err)
			}
			spec.Workloads = append(spec.Workloads, campaign.WorkloadSpec{
				Kind: "udpecho", From: c.Client, To: c.Server, DstPort: c.ServerPort, Count: c.Count,
			})
		}
		if *incastSpec != "" {
			wl, err := parseCountBytes("incast", *incastSpec)
			if err != nil {
				return 1, fmt.Errorf("-incast: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if *manyflowSpec != "" {
			wl, err := parseCountBytes("manyflow", *manyflowSpec)
			if err != nil {
				return 1, fmt.Errorf("-manyflow: %w", err)
			}
			spec.Workloads = append(spec.Workloads, wl)
		}
		if plan, err = spec.Plan(); err != nil {
			return 1, err
		}
	default:
		flags.Usage()
		return 1, fmt.Errorf("one of -spec, -fig, -script or -hosts is required")
	}

	if *addr != "" {
		// The plan's spec is the normalized one, so the journal's spec hash
		// is stable however the spec arrived.
		raw, err := json.Marshal(plan.Spec())
		if err != nil {
			return 1, err
		}
		c := service.NewClient(*addr)
		st, err := c.Submit(ctx, *tenant, raw, *workers)
		if err != nil {
			return 1, err
		}
		if *detach {
			fmt.Fprintln(stdout, st.ID)
			return 0, nil
		}
		fmt.Fprintf(stderr, "vwcampaign: submitted %s (%d runs) to %s\n", st.ID, st.Runs, *addr)
		return attachJob(ctx, o, c, st.ID, *outPath)
	}

	opts := campaign.Options{Workers: *workers}
	if opts.Sink, err = createOut(*outPath); err != nil {
		return 1, err
	}
	defer closeOut(opts.Sink)
	opts.OnRecord = o.progressFunc(plan.Spec().Runs())
	sum, runErr := plan.Run(ctx, opts)
	if sum == nil {
		return 1, runErr
	}
	if err := o.writeSummary(sum); err != nil {
		return 1, err
	}

	if runErr != nil {
		return 2, fmt.Errorf("campaign interrupted: %w", runErr)
	}
	if sum.Passed != sum.Runs {
		return 2, nil
	}
	return 0, nil
}

// setAmong names, in -flag form, every flag of names that was set, bar
// the exceptions.
func setAmong(set map[string]bool, names []string, except ...string) string {
	var bad []string
	for _, n := range names {
		if set[n] && !slices.Contains(except, n) {
			bad = append(bad, "-"+n)
		}
	}
	return strings.Join(bad, ", ")
}

// runFigures regenerates Figure 7, 8 or both at the paper's parameters:
// each figure is one campaign (experiments.Fig7CampaignSpec,
// Fig8CampaignSpec) whose records stream to -out and whose table prints
// to stdout, followed by its summary. sample > 0 samples every run.
func runFigures(ctx context.Context, o *output, fig string, seed int64, sample time.Duration, workers int, outPath string) (int, error) {
	want7 := fig == "7" || fig == "all"
	want8 := fig == "8" || fig == "all"
	if !want7 && !want8 {
		return 1, fmt.Errorf("unknown -fig %q (want 7, 8 or all)", fig)
	}
	sink, err := createOut(outPath)
	if err != nil {
		return 1, err
	}
	defer closeOut(sink)
	opts := campaign.Options{Workers: workers, Sink: sink}
	if want7 {
		cfg := experiments.Fig7Config{Seed: seed, MetricsInterval: sample}
		spec := experiments.Fig7CampaignSpec(cfg)
		opts.OnRecord = o.progressFunc(spec.Runs())
		pts, sum, err := experiments.RunFig7(ctx, cfg, opts)
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(o.stdout, experiments.FormatFig7(pts))
		if err := o.writeSummary(sum); err != nil {
			return 1, err
		}
	}
	if want8 {
		cfg := experiments.Fig8Config{Seed: seed, MetricsInterval: sample}
		spec := experiments.Fig8CampaignSpec(cfg)
		opts.OnRecord = o.progressFunc(spec.Runs())
		pts, sum, err := experiments.RunFig8(ctx, cfg, opts)
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(o.stdout, experiments.FormatFig8(pts))
		if err := o.writeSummary(sum); err != nil {
			return 1, err
		}
	}
	return 0, nil
}

// createOut creates the -out file, or returns a nil sink when there is
// none.
func createOut(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func closeOut(w io.Writer) {
	if f, ok := w.(*os.File); ok {
		f.Close()
	}
}

// output is where a campaign reports: the summary in -summary's format
// to -summary-out or stdout, progress lines to stderr.
type output struct {
	stdout, stderr io.Writer
	progress       bool
	mode, path     string
	file           *os.File // -summary-out, created by the first summary
}

func (o *output) close() {
	if o.file != nil {
		o.file.Close()
	}
}

// printJobStatus writes one job status as indented JSON to stdout.
func (o *output) printJobStatus(st service.JobStatus) error {
	enc := json.NewEncoder(o.stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// progressFunc returns the -progress callback for a campaign of total
// runs: one line per finished run, to stderr. Nil when progress is off.
func (o *output) progressFunc(total int) func(campaign.RunRecord) {
	if !o.progress {
		return nil
	}
	return func(r campaign.RunRecord) {
		fmt.Fprintf(o.stderr, "[%d/%d] %-30s %s (seed %d, %d attempt(s))\n",
			r.Index+1, total, r.Label, r.Outcome, r.Seed, r.Attempts)
	}
}

// writeSummary prints sum in the -summary format.
func (o *output) writeSummary(sum *campaign.Summary) error {
	if o.mode == "none" {
		return nil
	}
	out := o.stdout
	if o.path != "" {
		if o.file == nil {
			f, err := os.Create(o.path)
			if err != nil {
				return err
			}
			o.file = f
		}
		out = o.file
	}
	if o.mode == "json" {
		return sum.WriteJSON(out)
	}
	_, err := fmt.Fprint(out, sum.Text())
	return err
}

// attachJob follows a daemon job to completion: records stream into
// -out (byte-identical to an in-process run), progress goes to stderr,
// and the final summary prints per -summary. Exit codes mirror the
// in-process path.
func attachJob(ctx context.Context, o *output, c *service.Client, id, outPath string) (int, error) {
	st, err := c.Status(ctx, id)
	if err != nil {
		return 1, err
	}
	sink, err := createOut(outPath)
	if err != nil {
		return 1, err
	}
	defer closeOut(sink)
	if err := c.StreamRecords(ctx, id, sink, o.progressFunc(st.Runs)); err != nil {
		return 1, err
	}
	sum, err := c.Summary(ctx, id, true)
	if err != nil {
		return 1, err
	}
	final, err := c.Status(ctx, id)
	if err != nil {
		return 1, err
	}
	if err := o.writeSummary(sum); err != nil {
		return 1, err
	}

	switch final.State {
	case service.StateDone:
		if final.Failed > 0 {
			return 2, nil
		}
		return 0, nil
	case service.StateFailed:
		return 1, fmt.Errorf("job %s failed: %s", id, final.Error)
	default:
		return 2, fmt.Errorf("campaign interrupted: job %s ended %s after %d/%d runs", id, final.State, final.Completed, final.Runs)
	}
}

// parseShards parses -shards: "auto" or a non-negative shard count.
func parseShards(s string) (int, error) {
	if s == "auto" {
		return virtualwire.ShardsAuto, nil
	}
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("want auto or a non-negative count, got %d", k)
	}
	return k, nil
}

// parseTopology parses kind[:switches].
func parseTopology(s string) (*campaign.TopologyOverride, error) {
	parts := strings.SplitN(s, ":", 2)
	topo := &campaign.TopologyOverride{Kind: parts[0]}
	if len(parts) == 2 {
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		if topo.Kind == "fattree" {
			topo.FatTreeK = n
		} else {
			topo.Switches = n
		}
	}
	return topo, nil
}

// parseTrunkFaults parses the -trunk-fail (idx@at) and -trunk-flap
// (idx@at:period:count) lists into one fault schedule.
func parseTrunkFaults(fail, flap string) ([]campaign.TrunkFault, error) {
	var out []campaign.TrunkFault
	split := func(item string) (int, []string, error) {
		halves := strings.SplitN(item, "@", 2)
		if len(halves) != 2 {
			return 0, nil, fmt.Errorf("want idx@at[:...], got %q", item)
		}
		idx, err := strconv.Atoi(halves[0])
		if err != nil {
			return 0, nil, fmt.Errorf("%q: %w", item, err)
		}
		return idx, strings.Split(halves[1], ":"), nil
	}
	if fail != "" {
		for _, item := range strings.Split(fail, ",") {
			idx, parts, err := split(strings.TrimSpace(item))
			if err != nil {
				return nil, fmt.Errorf("-trunk-fail: %w", err)
			}
			if len(parts) != 1 {
				return nil, fmt.Errorf("-trunk-fail: want idx@at, got %q", item)
			}
			at, err := time.ParseDuration(parts[0])
			if err != nil {
				return nil, fmt.Errorf("-trunk-fail: %q: %w", item, err)
			}
			out = append(out, campaign.TrunkFault{Kind: "trunk_down", Trunk: idx, At: campaign.Duration(at)})
		}
	}
	if flap != "" {
		for _, item := range strings.Split(flap, ",") {
			idx, parts, err := split(strings.TrimSpace(item))
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %w", err)
			}
			if len(parts) != 3 {
				return nil, fmt.Errorf("-trunk-flap: want idx@at:period:count, got %q", item)
			}
			at, err := time.ParseDuration(parts[0])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			period, err := time.ParseDuration(parts[1])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			count, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("-trunk-flap: %q: %w", item, err)
			}
			out = append(out, campaign.TrunkFault{
				Kind: "trunk_flap", Trunk: idx,
				At: campaign.Duration(at), Period: campaign.Duration(period), Count: count,
			})
		}
	}
	return out, nil
}

// parseCountBytes parses count:bytes into an incast/manyflow workload.
func parseCountBytes(kind, s string) (campaign.WorkloadSpec, error) {
	var wl campaign.WorkloadSpec
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return wl, fmt.Errorf("want count:bytes")
	}
	count, err := strconv.Atoi(parts[0])
	if err != nil {
		return wl, err
	}
	bytes, err := strconv.Atoi(parts[1])
	if err != nil {
		return wl, err
	}
	wl.Kind = kind
	wl.Bytes = bytes
	if kind == "manyflow" {
		wl.Flows = count
	} else {
		wl.Count = count
	}
	return wl, nil
}
