// Command vwregress is the paper's envisioned fully automated regression
// workflow (Section 8) as a tool: it *generates* fault scenarios for a
// target packet stream — one per (fault kind, occurrence) — and runs
// each, as one variant of a campaign, against a testbed carrying a TCP
// bulk transfer. A case passes when the stream keeps flowing after the injected fault (the
// generated script STOPs); it fails on an analysis error or when the
// connection goes quiet (inactivity timeout).
//
//	vwregress -prologue scripts/prologue_tcp.fsl \
//	    -type TCP_data -from node1 -to node2 -dir RECV \
//	    -srcport 0x6000 -dstport 0x4000 -bytes 262144 \
//	    -faults drop,delay,dup,modify,reorder -occurrences 1,2,10
//
// Exit status is non-zero if any case fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"virtualwire"
	"virtualwire/campaign"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vwregress:", err)
		os.Exit(1)
	}
}

func run() error {
	prologuePath := flag.String("prologue", "", "FSL file with FILTER_TABLE and NODE_TABLE (required)")
	pktType := flag.String("type", "", "target packet type (required)")
	from := flag.String("from", "", "stream source host (required)")
	to := flag.String("to", "", "stream destination host (required)")
	dir := flag.String("dir", "RECV", "observation side: SEND or RECV")
	faults := flag.String("faults", "drop,delay,dup,modify,reorder", "comma-separated fault kinds")
	occurrences := flag.String("occurrences", "1,2,10", "comma-separated packet indices to hit")
	continueCount := flag.Int("continue", 20, "packets that must flow after the fault to pass")
	srcPort := flag.Uint("srcport", 0x6000, "TCP workload source port")
	dstPort := flag.Uint("dstport", 0x4000, "TCP workload destination port")
	bytes := flag.Int("bytes", 256*1024, "TCP workload size")
	seed := flag.Int64("seed", 1, "base simulation seed")
	horizon := flag.Duration("horizon", 2*time.Minute, "per-case virtual time limit")
	flag.Parse()

	if *prologuePath == "" || *pktType == "" || *from == "" || *to == "" {
		flag.Usage()
		return fmt.Errorf("-prologue, -type, -from and -to are required")
	}
	prologue, err := os.ReadFile(*prologuePath)
	if err != nil {
		return err
	}
	var kinds []virtualwire.FaultKind
	for _, f := range strings.Split(*faults, ",") {
		kinds = append(kinds, virtualwire.FaultKind(strings.ToUpper(strings.TrimSpace(f))))
	}
	var occs []int
	for _, o := range strings.Split(*occurrences, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(o))
		if err != nil {
			return fmt.Errorf("-occurrences: %w", err)
		}
		occs = append(occs, v)
	}

	scenarios, err := virtualwire.GenerateScenarios(virtualwire.GenConfig{
		Prologue:      string(prologue),
		PacketType:    *pktType,
		From:          *from,
		To:            *to,
		Dir:           strings.ToUpper(*dir),
		Faults:        kinds,
		Occurrences:   occs,
		ContinueCount: *continueCount,
	})
	if err != nil {
		return err
	}
	fmt.Printf("generated %d scenarios for %s %s->%s %s\n\n",
		len(scenarios), *pktType, *from, *to, strings.ToUpper(*dir))

	// One campaign, one variant per generated case: the executor owns the
	// testbeds, the seeds and the order the records come back in.
	spec := campaign.Spec{Horizon: campaign.Duration(*horizon)}
	workload := campaign.WorkloadSpec{
		Kind: "tcpbulk", From: *from, To: *to,
		SrcPort: uint16(*srcPort), DstPort: uint16(*dstPort), Bytes: *bytes,
	}
	for i := range scenarios {
		caseSeed := *seed + int64(i)
		spec.Variants = append(spec.Variants, campaign.Variant{
			Label: scenarios[i].Name, Script: &scenarios[i].Script, Workload: &workload, Seed: &caseSeed,
		})
	}
	failures := 0
	var caseErr error
	_, err = campaign.Run(context.Background(), spec, campaign.Options{OnRecord: func(r campaign.RunRecord) {
		if r.Outcome == campaign.OutcomeError {
			if caseErr == nil {
				caseErr = fmt.Errorf("%s: %s", r.Label, r.Error)
			}
			return
		}
		verdict := "FAIL"
		if r.Report.Passed && r.Report.Result.Stopped {
			verdict = "PASS"
		} else {
			failures++
		}
		fmt.Printf("  %-30s %-5s (%d bytes, %d rtx, %v)\n",
			r.Label, verdict, r.DeliveredBytes, r.Retransmissions, r.Report.Result)
	}})
	if err == nil {
		err = caseErr
	}
	if err != nil {
		return err
	}
	fmt.Printf("\n%d/%d passed\n", len(scenarios)-failures, len(scenarios))
	if failures > 0 {
		return fmt.Errorf("%d case(s) failed", failures)
	}
	return nil
}
