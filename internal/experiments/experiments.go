// Package experiments regenerates the paper's evaluation section: the
// Figure 7 TCP-throughput-vs-offered-load sweep and the Figure 8
// UDP-echo-latency-overhead sweep, each a campaign spec run by the public
// campaign executor the way a tester would run it.
//
// Absolute numbers come from the simulated substrate, not the authors'
// Pentium-4 testbed; what must (and does) reproduce is the shape — see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"virtualwire"
)

// DefaultCost is the calibrated engine cost model used by both figures.
// It encodes the paper's measured per-packet kernel costs: a fixed
// interception cost, a per-tuple charge for the linear filter scan, and
// per-update/per-action charges for the table walks (Section 7).
var DefaultCost = virtualwire.CostModel{
	Base:             200 * time.Nanosecond,
	PerTuple:         70 * time.Nanosecond,
	PerCounterUpdate: 40 * time.Nanosecond,
	PerAction:        30 * time.Nanosecond,
}

const (
	node1MAC = "00:46:61:af:fe:01"
	node2MAC = "00:46:61:af:fe:02"
	node1IP  = "192.168.1.1"
	node2IP  = "192.168.1.2"
)

// nodeTable is the two-host Node Table shared by the experiment scripts.
const nodeTable = `
NODE_TABLE
node1 ` + node1MAC + ` ` + node1IP + `
node2 ` + node2MAC + ` ` + node2IP + `
END
`

// decoyFilters emits n-1 non-matching packet definitions so that the
// engine's linear scan visits n entries before (or without) matching —
// the knob on Figure 8's x axis. Decoys match UDP destination ports that
// carry no traffic.
func decoyFilters(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "decoy%d: (23 1 0x11), (36 2 0x%04x)\n", i, 0x1f40+i)
	}
}

// junkActions emits count-1 INCR_CNTR actions on the scratch counter J.
func junkActions(b *strings.Builder, count int) {
	for i := 0; i < count; i++ {
		b.WriteString("          INCR_CNTR( J, 1 );\n")
	}
}

// fig8Script builds the echo-measurement scenario: nFilters packet
// definitions (the echo-request filter last, so the scan length is
// nFilters) and, when nActions > 0, a rule firing nActions actions for
// every request received at node2.
func fig8Script(nFilters, nActions int, echoPort uint16) string {
	var b strings.Builder
	b.WriteString("FILTER_TABLE\n")
	decoyFilters(&b, nFilters-1)
	fmt.Fprintf(&b, "udp_req: (23 1 0x11), (36 2 0x%04x)\n", echoPort)
	b.WriteString("END\n")
	b.WriteString(nodeTable)
	b.WriteString("SCENARIO fig8_echo\n")
	b.WriteString("REQ: (udp_req, node1, node2, RECV)\n")
	b.WriteString("J: (node2)\n")
	b.WriteString("(TRUE) >> ENABLE_CNTR( REQ );\n")
	if nActions > 0 {
		b.WriteString("((REQ = 1)) >> RESET_CNTR( REQ );\n")
		junkActions(&b, nActions-1)
	}
	b.WriteString("END\n")
	return b.String()
}

// fig7Script builds the throughput-measurement scenario: nFilters packet
// definitions with the TCP-data filter last plus a rule firing nActions
// actions per data packet received at node2 ("allowed 25 actions to be
// triggered for each packet", Section 7).
func fig7Script(nFilters, nActions int) string {
	var b strings.Builder
	b.WriteString("FILTER_TABLE\n")
	decoyFilters(&b, nFilters-1)
	b.WriteString("TCP_data: (23 1 0x06), (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n")
	b.WriteString("END\n")
	b.WriteString(nodeTable)
	b.WriteString("SCENARIO fig7_load\n")
	b.WriteString("DATA: (TCP_data, node1, node2, RECV)\n")
	b.WriteString("J: (node2)\n")
	b.WriteString("(TRUE) >> ENABLE_CNTR( DATA );\n")
	if nActions > 0 {
		b.WriteString("((DATA = 1)) >> RESET_CNTR( DATA );\n")
		junkActions(&b, nActions-1)
	}
	b.WriteString("END\n")
	return b.String()
}
