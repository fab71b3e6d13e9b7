// Quickstart: inject one fault into a live TCP transfer with a
// ten-line script and watch the implementation recover — no
// instrumentation of the TCP code, which is the paper's whole point.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"virtualwire"
)

// script names two hosts, defines one packet type (TCP data from node1
// to node2), and drops the fifth such packet at the receiver.
const script = `
FILTER_TABLE
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END

NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END

SCENARIO quickstart_drop_fifth
DATA: (TCP_data, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( DATA );
((DATA = 5)) >> DROP TCP_data, node1, node2, RECV;
END
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tb, err := virtualwire.New(virtualwire.Config{Seed: 1, TraceCapacity: 50000})
	if err != nil {
		return err
	}
	if err := tb.AddNodesFromScript(script); err != nil {
		return err
	}
	if err := tb.LoadScript(script); err != nil {
		return err
	}
	bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
		From: "node1", To: "node2",
		SrcPort: 0x6000, DstPort: 0x4000,
		Bytes: 64 * 1024,
	})
	if err != nil {
		return err
	}

	rep, err := tb.Run(30 * time.Second)
	if err != nil {
		return err
	}

	fmt.Println("quickstart: drop the 5th data packet of a TCP transfer")
	fmt.Printf("  scenario:        %s\n", rep.Result)
	fmt.Printf("  delivered:       %d bytes (all of them, despite the drop)\n",
		bulk.DeliveredBytes())
	fmt.Printf("  retransmissions: %d (TCP recovered the injected loss)\n",
		bulk.SenderStats().Retransmissions)

	node2, _ := tb.Node("node2")
	engine, _ := node2.Snapshot("engine")
	matched, _ := engine.Get("packets_matched")
	drops, _ := engine.Get("drops")
	fmt.Printf("  engine at node2: %.0f packets matched, %.0f dropped by the fault\n", matched, drops)

	fmt.Println("\nfirst data packets on the wire (tcpdump-style trace):")
	n := 0
	for _, e := range tb.TraceFilter("node2", "recv", "tcp") {
		fmt.Println("   ", e)
		n++
		if n == 8 {
			break
		}
	}
	return nil
}
