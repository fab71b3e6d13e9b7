package experiments

import (
	"fmt"
	"strings"
	"time"

	"virtualwire"
)

// Fig8Config parametrizes the Figure 8 reproduction: percentage increase
// in UDP echo round-trip latency as a function of the number of packet
// type definitions, for three configurations — (i) filters only, (ii)
// filters plus 25 actions per matched packet, (iii) case (ii) with the
// RLL turned on.
type Fig8Config struct {
	// FilterCounts are the swept x values (default 1,5,10,15,20,25).
	FilterCounts []int
	// Pings per measurement (default 300).
	Pings int
	// Size is the echo payload in bytes (default 512).
	Size int
	// Interval paces the pings (default 1 ms).
	Interval time.Duration
	// Actions is the per-packet action count of curve (ii) (default 25).
	Actions int
	// Seed drives the simulations.
	Seed int64
	// Cost is the engine cost model (default DefaultCost).
	Cost *virtualwire.CostModel
	// MetricsInterval, when positive, samples each sub-run's metrics
	// registry at this virtual-time cadence; the series rides on the
	// run's record (vwcampaign -fig's -metrics-interval).
	MetricsInterval time.Duration
}

func (c *Fig8Config) fill() {
	if len(c.FilterCounts) == 0 {
		c.FilterCounts = []int{1, 5, 10, 15, 20, 25}
	}
	if c.Pings <= 0 {
		c.Pings = 300
	}
	if c.Size <= 0 {
		c.Size = 1024
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Actions <= 0 {
		c.Actions = 25
	}
	if c.Cost == nil {
		cost := DefaultCost
		c.Cost = &cost
	}
}

// Fig8Point is one x value of the Figure 8 curves.
type Fig8Point struct {
	Filters     int
	BaselineRTT time.Duration
	// PctFilters is curve (i): packet matching rules only.
	PctFilters float64
	// PctActions is curve (ii): matching plus 25 actions per packet.
	PctActions float64
	// PctRLL is curve (iii): case (ii) with the RLL on.
	PctRLL float64
}

const fig8EchoPort = 9000

// FormatFig8 renders the sweep as the table Figure 8 plots.
func FormatFig8(points []Fig8Point) string {
	var b strings.Builder
	b.WriteString("Figure 8: % increase in UDP echo RTT vs number of packet definitions\n")
	if len(points) > 0 {
		fmt.Fprintf(&b, "baseline RTT (no VirtualWire): %v\n", points[0].BaselineRTT)
	}
	b.WriteString("filters   (i) matching only   (ii) +25 actions   (iii) +RLL\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%7d   %17.2f%%   %16.2f%%   %9.2f%%\n",
			p.Filters, p.PctFilters, p.PctActions, p.PctRLL)
	}
	return b.String()
}
