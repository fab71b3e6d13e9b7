// The paper's Section 6.2 case study, end to end: four Rether nodes pass
// a token on a shared bus while a real-time TCP stream flows from node1
// to node4. Once 1000 data packets have crossed, the Figure 6 script
// crashes node3 at the exact moment node2 receives the token. Rether must
// detect the dead successor after exactly 3 token transmissions,
// reconstruct the ring, and resume circulation among the survivors within
// the script's 1-second inactivity timeout — all verified by the script
// itself, which STOPs the scenario on the survivors' first full cycle.
//
//	go run ./examples/retherfailure
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"virtualwire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	script, err := os.ReadFile("scripts/fig6_rether_failure.fsl")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	tb, err := virtualwire.New(virtualwire.Config{Seed: 3, Medium: virtualwire.MediumBus})
	if err != nil {
		return err
	}
	if err := tb.AddNodesFromScript(string(script)); err != nil {
		return err
	}
	ring := []string{"node1", "node2", "node3", "node4"}
	if err := tb.InstallRether(ring, virtualwire.RetherConfig{}); err != nil {
		return err
	}
	// node1 <-> node4 carry the real-time stream (served from Rether's
	// reserved slots).
	tb.AddRTStream(0x6000, 0x4000)
	if err := tb.LoadScript(string(script)); err != nil {
		return err
	}
	bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
		From: "node1", To: "node4",
		SrcPort: 0x6000, DstPort: 0x4000,
		Bytes: 4 << 20,
	})
	if err != nil {
		return err
	}

	fmt.Println("=== Figure 6: Rether single-node-failure recovery ===")
	rep, err := tb.Run(2 * time.Minute)
	if err != nil {
		return err
	}

	node2, _ := tb.Node("node2")
	node3, _ := tb.Node("node3")
	node4, _ := tb.Node("node4")
	cntData, _ := node4.CounterValue("CNT_DATA")
	tokensFrom2, _ := node2.CounterValue("TokensFrom2")

	fmt.Printf("  data packets before trigger: %d (threshold 1000)\n", cntData)
	fmt.Printf("  node3 crashed by the script:  %v\n", node3.Failed())
	fmt.Printf("  token sends toward node3:     %d (the paper's 3-transmission detection)\n", tokensFrom2)
	for _, name := range ring {
		n, _ := tb.Node(name)
		sn, _ := n.Snapshot("rether")
		size, _ := sn.Get("ring_size")
		fmt.Printf("  %s ring membership size:   %.0f\n", name, size)
	}
	fmt.Printf("  scenario: %s\n", rep.Result)

	// The paper's stronger claim: real-time transport is unaffected.
	before := bulk.DeliveredBytes()
	if err := tb.RunFor(5 * time.Second); err != nil {
		return err
	}
	fmt.Printf("  real-time stream: %d bytes at STOP, %d bytes 5s later (still flowing)\n",
		before, bulk.DeliveredBytes())

	if rep.Passed {
		fmt.Println("  verdict: PASSED — ring reconstructed within the 1s timeout, no errors flagged")
	} else {
		fmt.Println("  verdict: FAILED")
	}
	return nil
}
