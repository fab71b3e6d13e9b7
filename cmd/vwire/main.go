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
// The exit status is 0 when the scenario passes (started, no FLAG_ERR,
// and an explicit STOP if the script declares an inactivity timeout).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"virtualwire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vwire:", err)
		os.Exit(1)
	}
}

func run() error {
	scriptPath := flag.String("script", "", "FSL scenario file (required)")
	medium := flag.String("medium", "switch", "testbed medium: switch, bus or fdswitch")
	seed := flag.Int64("seed", 1, "simulation seed")
	rll := flag.Bool("rll", false, "insert the Reliable Link Layer")
	ber := flag.Float64("ber", 0, "wire bit error rate (use with -rll)")
	horizon := flag.Duration("horizon", 60*time.Second, "maximum virtual run time")
	retherRing := flag.String("rether", "", "comma-separated ring order to run Rether on")
	rtStream := flag.String("rt", "", "srcport:dstport marked real-time for Rether")
	tcpSpec := flag.String("tcp", "", "TCP bulk workload: from:port-to:port:bytes")
	echoSpec := flag.String("echo", "", "UDP echo workload: client-server:port:count")
	showTrace := flag.Bool("trace", false, "print the captured packet trace")
	showSummary := flag.Bool("summary", false, "print the per-node engine/protocol summary")
	scenario := flag.String("scenario", "", "scenario name to run from a multi-scenario script")
	pcapPath := flag.String("pcap", "", "write a tcpdump-compatible capture of the control node's interface to this file")
	showTables := flag.Bool("tables", false, "print the compiled six tables before running")
	counters := flag.String("counters", "", "comma-separated node:counter values to print after the run")
	metricsOut := flag.String("metrics-out", "", "write the sampled metrics time series to this file (.json, .csv or .prom by extension)")
	metricsInterval := flag.Duration("metrics-interval", 50*time.Millisecond, "virtual-time sampling interval for -metrics-out")
	flag.Parse()

	if *scriptPath == "" {
		flag.Usage()
		return fmt.Errorf("-script is required")
	}
	src, err := os.ReadFile(*scriptPath)
	if err != nil {
		return err
	}
	script := string(src)

	cfg := virtualwire.Config{Seed: *seed, RLL: *rll, BitErrorRate: *ber}
	switch *medium {
	case "switch":
		cfg.Medium = virtualwire.MediumSwitch
	case "bus":
		cfg.Medium = virtualwire.MediumBus
	case "fdswitch":
		cfg.Medium = virtualwire.MediumSwitchFullDuplex
	default:
		return fmt.Errorf("unknown -medium %q", *medium)
	}
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
	if *showTables {
		fmt.Println(tb.DumpTables())
	}

	var bulk *virtualwire.TCPBulk
	if *tcpSpec != "" {
		bc, err := parseTCPSpec(*tcpSpec)
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
		ec, err := parseEchoSpec(*echoSpec)
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

	fmt.Printf("scenario: %s\n", rep.Result)
	if rep.Result.LaunchFailed {
		fmt.Printf("launch failed; unreachable nodes: %s\n", strings.Join(rep.Unreachable, ", "))
	}
	fmt.Printf("virtual time: %v, events: %d\n", rep.Duration, rep.Events)
	for _, e := range rep.Result.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	if bulk != nil {
		fmt.Printf("tcp: delivered %d bytes, goodput %.1f Mbps, retransmissions %d\n",
			bulk.DeliveredBytes(), bulk.GoodputBitsPerSecond()/1e6,
			bulk.SenderStats().Retransmissions)
	}
	if echo != nil {
		fmt.Printf("echo: %d/%d round trips, mean RTT %v\n",
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
			fmt.Printf("counter %s:%s = %d\n", parts[0], parts[1], v)
		}
	}
	if *showTrace {
		fmt.Println("--- trace ---")
		for _, e := range tb.Trace() {
			fmt.Println(e)
		}
	}
	if *showSummary {
		fmt.Println("--- summary ---")
		fmt.Print(rep.Text())
	}
	if *metricsOut != "" {
		if err := writeMetrics(tb, *metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s (%d instruments, %d sampled points)\n",
			*metricsOut, rep.Metrics.Instruments, rep.Metrics.SampledPoints)
	}
	if pcapFile != nil {
		fmt.Printf("pcap capture written to %s\n", *pcapPath)
	}
	if !rep.Passed {
		return fmt.Errorf("scenario FAILED")
	}
	fmt.Println("scenario PASSED")
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

// parseTCPSpec parses from:port-to:port:bytes.
func parseTCPSpec(s string) (virtualwire.TCPBulkConfig, error) {
	var cfg virtualwire.TCPBulkConfig
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return cfg, fmt.Errorf("want from:port-to:port:bytes")
	}
	fp := strings.Split(halves[0], ":")
	tp := strings.Split(halves[1], ":")
	if len(fp) != 2 || len(tp) != 3 {
		return cfg, fmt.Errorf("want from:port-to:port:bytes")
	}
	sport, err := strconv.ParseUint(fp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	dport, err := strconv.ParseUint(tp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	bytes, err := strconv.Atoi(tp[2])
	if err != nil {
		return cfg, err
	}
	cfg.From, cfg.To = fp[0], tp[0]
	cfg.SrcPort, cfg.DstPort = uint16(sport), uint16(dport)
	cfg.Bytes = bytes
	return cfg, nil
}

// parseEchoSpec parses client-server:port:count.
func parseEchoSpec(s string) (virtualwire.UDPEchoConfig, error) {
	var cfg virtualwire.UDPEchoConfig
	halves := strings.SplitN(s, "-", 2)
	if len(halves) != 2 {
		return cfg, fmt.Errorf("want client-server:port:count")
	}
	sp := strings.Split(halves[1], ":")
	if len(sp) != 3 {
		return cfg, fmt.Errorf("want client-server:port:count")
	}
	port, err := strconv.ParseUint(sp[1], 0, 16)
	if err != nil {
		return cfg, err
	}
	count, err := strconv.Atoi(sp[2])
	if err != nil {
		return cfg, err
	}
	cfg.Client, cfg.Server = halves[0], sp[0]
	cfg.ServerPort = uint16(port)
	cfg.Count = count
	return cfg, nil
}
