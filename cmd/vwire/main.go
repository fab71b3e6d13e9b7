// Command vwire runs an FSL scenario against a simulated testbed — the
// command-line face of the whole system. Hosts come from the script's
// NODE_TABLE; the workload and testbed shape come from flags.
//
// Examples:
//
//	# The paper's Section 6.1 TCP case study:
//	vwire -script scripts/fig5_tcp_ss_ca.fsl \
//	      -tcp node1:24576-node2:16384:81920
//
//	# The paper's Section 6.2 Rether case study:
//	vwire -script scripts/fig6_rether_failure.fsl -medium bus \
//	      -rether node1,node2,node3,node4 -rt 24576:16384 \
//	      -tcp node1:24576-node4:16384:4194304
//
//	# Compile a script and print its six tables and dispatch shape,
//	# without running it:
//	vwire -script scripts/fig5_tcp_ss_ca.fsl -tables
//
// The exit status is 0 when the scenario passes (started, no FLAG_ERR,
// and an explicit STOP if the script declares an inactivity timeout), or,
// with -tables, when every scenario compiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"virtualwire"
	"virtualwire/internal/cliflag"
	"virtualwire/internal/fsl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vwire:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("vwire", flag.ExitOnError)
	scriptPath := flags.String("script", "", "FSL scenario file (required)")
	medium := flags.String("medium", "switch", "testbed medium: switch, bus or fdswitch")
	seed := flags.Int64("seed", 1, "simulation seed")
	rll := flags.Bool("rll", false, "insert the Reliable Link Layer")
	ber := flags.Float64("ber", 0, "wire bit error rate (use with -rll)")
	horizon := flags.Duration("horizon", 60*time.Second, "maximum virtual run time")
	retherRing := flags.String("rether", "", "comma-separated ring order to run Rether on")
	rtStream := flags.String("rt", "", "srcport:dstport marked real-time for Rether (requires -rether)")
	tcpSpec := flags.String("tcp", "", "TCP bulk workload: from:port-to:port:bytes")
	echoSpec := flags.String("echo", "", "UDP echo workload: client-server:port:count")
	showTrace := flags.Bool("trace", false, "print the captured packet trace")
	showSummary := flags.Bool("summary", false, "print the per-node engine/protocol summary")
	scenario := flags.String("scenario", "", "scenario name to run from a multi-scenario script")
	pcapPath := flags.String("pcap", "", "write a tcpdump-compatible capture of the control node's interface to this file")
	showTables := flags.Bool("tables", false, "compile the script, print every scenario's six tables and dispatch shape (or -scenario's only), and exit without running")
	counters := flags.String("counters", "", "comma-separated node:counter values to print after the run")
	metricsOut := flags.String("metrics-out", "", "write the sampled metrics time series to this file (.json, .csv or .prom by extension)")
	metricsInterval := flags.Duration("metrics-interval", 50*time.Millisecond, "virtual-time sampling interval for -metrics-out")
	flags.Parse(args)

	// runFlags are the set flags that only a run reads.
	var runFlags []string
	flags.Visit(func(f *flag.Flag) {
		if f.Name != "script" && f.Name != "scenario" && f.Name != "tables" {
			runFlags = append(runFlags, "-"+f.Name)
		}
	})
	if *scriptPath == "" {
		flags.Usage()
		return fmt.Errorf("-script is required")
	}
	if *showTables && len(runFlags) > 0 {
		return fmt.Errorf("-tables runs nothing, so it takes no %s", strings.Join(runFlags, ", "))
	}
	if slices.Contains(runFlags, "-metrics-interval") && *metricsOut == "" {
		return fmt.Errorf("-metrics-interval requires -metrics-out")
	}
	if *rtStream != "" && *retherRing == "" {
		return fmt.Errorf("-rt requires -rether")
	}
	src, err := os.ReadFile(*scriptPath)
	if err != nil {
		return err
	}
	script := string(src)
	if *showTables {
		return printTables(stdout, *scriptPath, script, *scenario)
	}

	mk, err := virtualwire.ParseMedium(*medium)
	if err != nil {
		return fmt.Errorf("-medium: %w", err)
	}
	cfg := virtualwire.Config{Seed: *seed, Medium: mk, RLL: *rll, BitErrorRate: *ber}
	if *showTrace {
		cfg.TraceCapacity = 100000
	}
	if *metricsOut != "" {
		cfg.MetricsSampleInterval = *metricsInterval
	}
	var pcapFile *os.File
	if *pcapPath != "" {
		pcapFile, err = os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer pcapFile.Close()
		cfg.Pcap = pcapFile
	}
	tb, err := virtualwire.New(cfg)
	if err != nil {
		return err
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		return err
	}
	if *retherRing != "" {
		ring := strings.Split(*retherRing, ",")
		if err := tb.InstallRether(ring, virtualwire.RetherConfig{}); err != nil {
			return err
		}
	}
	if *rtStream != "" {
		sp, dp, err := parsePortPair(*rtStream)
		if err != nil {
			return fmt.Errorf("-rt: %w", err)
		}
		tb.AddRTStream(sp, dp)
	}
	if err := tb.LoadScriptScenario(script, *scenario); err != nil {
		return err
	}

	var bulk *virtualwire.TCPBulk
	if *tcpSpec != "" {
		bc, err := cliflag.TCP(*tcpSpec)
		if err != nil {
			return fmt.Errorf("-tcp: %w", err)
		}
		bulk, err = tb.AddTCPBulk(bc)
		if err != nil {
			return err
		}
	}
	var echo *virtualwire.UDPEcho
	if *echoSpec != "" {
		ec, err := cliflag.Echo(*echoSpec)
		if err != nil {
			return fmt.Errorf("-echo: %w", err)
		}
		echo, err = tb.AddUDPEcho(ec)
		if err != nil {
			return err
		}
	}

	rep, err := tb.Run(*horizon)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "scenario: %s\n", rep.Result)
	if rep.Result.LaunchFailed {
		fmt.Fprintf(stdout, "launch failed; unreachable nodes: %s\n", strings.Join(rep.Unreachable, ", "))
	}
	fmt.Fprintf(stdout, "virtual time: %v, events: %d\n", rep.Duration, rep.Events)
	for _, e := range rep.Result.Errors {
		fmt.Fprintf(stdout, "  error: %s\n", e)
	}
	if bulk != nil {
		fmt.Fprintf(stdout, "tcp: delivered %d bytes, goodput %.1f Mbps, retransmissions %d\n",
			bulk.DeliveredBytes(), bulk.GoodputBitsPerSecond()/1e6,
			bulk.SenderStats().Retransmissions)
	}
	if echo != nil {
		fmt.Fprintf(stdout, "echo: %d/%d round trips, mean RTT %v\n",
			echo.Received(), echo.Sent(), echo.MeanRTT())
	}
	if *counters != "" {
		for _, spec := range strings.Split(*counters, ",") {
			parts := strings.SplitN(strings.TrimSpace(spec), ":", 2)
			if len(parts) != 2 {
				return fmt.Errorf("-counters entry %q: want node:counter", spec)
			}
			node, ok := tb.Node(parts[0])
			if !ok {
				return fmt.Errorf("-counters: unknown node %q", parts[0])
			}
			v, ok := node.CounterValue(parts[1])
			if !ok {
				return fmt.Errorf("-counters: node %s has no counter %q", parts[0], parts[1])
			}
			fmt.Fprintf(stdout, "counter %s:%s = %d\n", parts[0], parts[1], v)
		}
	}
	if *showTrace {
		fmt.Fprintln(stdout, "--- trace ---")
		for _, e := range tb.Trace() {
			fmt.Fprintln(stdout, e)
		}
	}
	if *showSummary {
		fmt.Fprintln(stdout, "--- summary ---")
		fmt.Fprint(stdout, rep.Text())
	}
	if *metricsOut != "" {
		if err := writeMetrics(tb, *metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s (%d instruments, %d sampled points)\n",
			*metricsOut, rep.Metrics.Instruments, rep.Metrics.SampledPoints)
	}
	if pcapFile != nil {
		fmt.Fprintf(stdout, "pcap capture written to %s\n", *pcapPath)
	}
	if !rep.Passed {
		return fmt.Errorf("scenario FAILED")
	}
	fmt.Fprintln(stdout, "scenario PASSED")
	return nil
}

// printTables compiles every scenario of the script (or the named one)
// and prints its six tables (Figure 3 of the paper: filter, node,
// counter, term, condition, action) followed by the shape of the
// dispatch tree the engines classify with — the quickest way to validate
// a script before running it.
func printTables(stdout io.Writer, path, script, scenario string) error {
	progs, err := fsl.CompileAll(script)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	found := false
	for _, p := range progs {
		if scenario != "" && p.Name != scenario {
			continue
		}
		found = true
		fmt.Fprintf(stdout, "=== %s: %s ===\n\n%s\n%s\n", path, p.Name, p.Dump(), p.DumpDispatch())
	}
	if !found {
		return fmt.Errorf("%s: script has no scenario %q", path, scenario)
	}
	return nil
}

// writeMetrics exports the run's metrics series, choosing the format
// from the file extension (.csv, .prom/.prometheus/.txt, default JSON).
func writeMetrics(tb *virtualwire.Testbed, path string) error {
	format := "json"
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		format = "csv"
	case ".prom", ".prometheus", ".txt":
		format = "prom"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteMetricsFile(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parsePortPair(s string) (uint16, uint16, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want srcport:dstport")
	}
	sp, err := strconv.ParseUint(parts[0], 0, 16)
	if err != nil {
		return 0, 0, err
	}
	dp, err := strconv.ParseUint(parts[1], 0, 16)
	if err != nil {
		return 0, 0, err
	}
	return uint16(sp), uint16(dp), nil
}
