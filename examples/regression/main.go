// Regression suite: the paper's envisioned fully automated workflow
// (Section 8). Scenarios are *generated* from a prologue — one per (fault
// kind, packet index) — and each runs, as one variant of a campaign,
// against the TCP implementation carrying a bulk transfer. A case passes
// when the stream keeps flowing after the fault (the generated script
// STOPs); it fails when the connection wedges (inactivity timeout) or an
// analysis rule flags an error. "This trace filtering capability makes it
// possible to run through a large number of test cases without human
// intervention" (Section 1).
//
// Run from the repository root; the prologue is scripts/prologue_tcp.fsl:
//
//	go run ./examples/regression
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"virtualwire"
	"virtualwire/campaign"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	prologue, err := os.ReadFile("scripts/prologue_tcp.fsl")
	if err != nil {
		return err
	}
	scenarios, err := virtualwire.GenerateScenarios(virtualwire.GenConfig{
		Prologue:      string(prologue),
		PacketType:    "TCP_data",
		From:          "node1",
		To:            "node2",
		Dir:           "RECV",
		Occurrences:   []int{1, 2, 10},
		ContinueCount: 20,
	})
	if err != nil {
		return err
	}
	fmt.Printf("generated %d scenarios for TCP_data node1->node2 RECV\n\n", len(scenarios))

	// One campaign, one variant per generated case: the executor owns the
	// testbeds, the seeds and the order the records come back in.
	spec := campaign.Spec{Horizon: campaign.Duration(2 * time.Minute)}
	workload := campaign.WorkloadSpec{
		Kind: "tcpbulk", From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000, Bytes: 256 * 1024,
	}
	for i := range scenarios {
		caseSeed := int64(1 + i)
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
