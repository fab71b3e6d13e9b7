package main

import (
	"bytes"
	"embed"
	"fmt"
	"time"

	"virtualwire"
)

// The FSL inputs are frozen copies: a change to scripts/ must not move
// the benchmark.
//
//go:embed testdata/*.fsl
var testdata embed.FS

func mustScript(name string) string {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		panic(err) // the file is embedded; only a build mistake gets here
	}
	return string(b)
}

// Ports of the paper's scripts (Figures 5 and 6 and the quickstart
// script all filter on 0x6000 -> 0x4000), and Figure 8's echo port.
const (
	tcpSrcPort = 0x6000
	tcpDstPort = 0x4000
	echoPort   = 9000
)

// scenario describes one simulated experiment the way a user of the
// facade would set it up. One op is reset + arm + run + report.
type scenario struct {
	script  string // FSL source; "" runs scriptless on generated hosts
	hosts   int    // scriptless host count
	cfg     virtualwire.Config
	horizon time.Duration
	// prepare runs once per testbed, before it is built.
	prepare func(tb *virtualwire.Testbed) error
	// arm stages the op's traffic and returns the check applied to the
	// finished run ("" = passed).
	arm func(tb *virtualwire.Testbed) (func(rep *virtualwire.RunReport) string, error)
	// Ladder inputs: the two hosts the traffic runs between and whether
	// it is TCP; the medium and the RLL come from cfg.
	from, to string
	tcp      bool
}

// simInstance is one built testbed that runs the scenario repeatedly.
type simInstance struct {
	sc  *scenario
	cs  *virtualwire.CompiledScript
	tb  *virtualwire.Testbed
	ran bool
	out bytes.Buffer
}

// newSimInstance compiles the script and assembles the testbed under
// seed; the first op runs it as built, every later op resets it.
func newSimInstance(sc *scenario, seed int64) (*simInstance, error) {
	inst := &simInstance{sc: sc}
	inst.out.Grow(1 << 20)
	if sc.script != "" {
		cs, err := virtualwire.CompileScript(sc.script)
		if err != nil {
			return nil, err
		}
		inst.cs = cs
	}
	tb, err := assemble(sc, inst.cs, seed)
	if err != nil {
		return nil, err
	}
	inst.tb = tb
	return inst, nil
}

// assemble creates the scenario's testbed without running anything.
func assemble(sc *scenario, cs *virtualwire.CompiledScript, seed int64) (*virtualwire.Testbed, error) {
	cfg := sc.cfg
	cfg.Seed = seed
	tb, err := virtualwire.New(cfg)
	if err != nil {
		return nil, err
	}
	if cs != nil {
		if err := tb.AddNodesFromCompiled(cs); err != nil {
			return nil, err
		}
	} else if _, err := tb.AddHostGroup("h", sc.hosts); err != nil {
		return nil, err
	}
	if sc.prepare != nil {
		if err := sc.prepare(tb); err != nil {
			return nil, err
		}
	}
	if cs != nil {
		if err := tb.LoadCompiled(cs); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

func (inst *simInstance) op(seed int64, opID int, tr *tracer) opOutcome {
	root := tr.begin(opID, 0, "op")
	defer tr.end(root)
	fail := func(err error) opOutcome { return opOutcome{fail: err.Error()} }

	if inst.ran {
		id := tr.begin(opID, root, "facade.reset")
		err := inst.tb.Reset(seed)
		tr.end(id)
		if err != nil {
			return fail(err)
		}
	}
	inst.ran = true

	id := tr.begin(opID, root, "facade.arm")
	check, err := inst.sc.arm(inst.tb)
	tr.end(id)
	if err != nil {
		return fail(err)
	}

	id = tr.begin(opID, root, "facade.run")
	rep, err := inst.tb.Run(inst.sc.horizon)
	tr.end(id)
	if err != nil {
		return fail(err)
	}

	id = tr.begin(opID, root, "facade.report")
	inst.out.Reset()
	err = rep.WriteJSON(&inst.out)
	tr.end(id)
	if err != nil {
		return fail(err)
	}

	o := opOutcome{out: inst.out.Bytes(), totals: rep.Metrics.Totals}
	if rep.Seed != seed {
		o.fail = fmt.Sprintf("report seed %d, want %d", rep.Seed, seed)
	} else if inst.cs != nil && !rep.Passed {
		o.fail = fmt.Sprintf("scenario not passed: verdict %s", rep.Verdict)
	} else {
		o.fail = check(&rep)
	}
	return o
}

func (inst *simInstance) close() error { return nil }

// tcpScripted is the paper's Figure 5 case study: a SYN-ACK drop and
// the slow-start analysis script over a 1 MiB transfer.
func tcpScripted() *scenario {
	const bytes = 1 << 20
	return &scenario{
		script:  mustScript("fig5_tcp_ss_ca.fsl"),
		horizon: 60 * time.Second,
		from:    "node1", to: "node2", tcp: true,
		arm: func(tb *virtualwire.Testbed) (func(*virtualwire.RunReport) string, error) {
			bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
				From: "node1", To: "node2", SrcPort: tcpSrcPort, DstPort: tcpDstPort, Bytes: bytes,
			})
			if err != nil {
				return nil, err
			}
			return func(rep *virtualwire.RunReport) string {
				if got := bulk.DeliveredBytes(); got != bytes {
					return fmt.Sprintf("delivered %d bytes, want %d", got, bytes)
				}
				if len(rep.Faults) != 1 {
					return fmt.Sprintf("%d faults injected, want the one SYN-ACK drop", len(rep.Faults))
				}
				return ""
			}, nil
		},
	}
}

// udpEchoFilters is the paper's Figure 8 case (iii): 25 filters with the
// matching one last, 25 actions per matched packet, the RLL on, and
// minimum-size frames.
func udpEchoFilters() *scenario {
	const echoes = 2000
	return &scenario{
		script:  mustScript("fig8_filters25_actions25.fsl"),
		cfg:     virtualwire.Config{RLL: true},
		horizon: 60 * time.Second,
		from:    "node1", to: "node2",
		arm: func(tb *virtualwire.Testbed) (func(*virtualwire.RunReport) string, error) {
			echo, err := tb.AddUDPEcho(virtualwire.UDPEchoConfig{
				Client: "node1", Server: "node2", ServerPort: echoPort,
				Size: 18, Interval: 100 * time.Microsecond, Count: echoes,
			})
			if err != nil {
				return nil, err
			}
			return func(*virtualwire.RunReport) string {
				if echo.Sent() != echoes || echo.Received() != echoes {
					return fmt.Sprintf("echoes sent %d received %d, want %d", echo.Sent(), echo.Received(), echoes)
				}
				return ""
			}, nil
		},
	}
}

// retherBus is the paper's Figure 6 case study: Rether on a shared bus,
// a node failure and the ring's recovery under a TCP transfer. The
// script STOPs once the survivors have seen the token again, so the
// transfer is cut short by design; the check is the verdict.
func retherBus() *scenario {
	ring := []string{"node1", "node2", "node3", "node4"}
	return &scenario{
		script:  mustScript("fig6_rether_failure.fsl"),
		cfg:     virtualwire.Config{Medium: virtualwire.MediumBus},
		horizon: 2 * time.Minute,
		from:    "node1", to: "node4", tcp: true,
		prepare: func(tb *virtualwire.Testbed) error {
			if err := tb.InstallRether(ring, virtualwire.RetherConfig{}); err != nil {
				return err
			}
			tb.AddRTStream(tcpSrcPort, tcpDstPort)
			return nil
		},
		arm: func(tb *virtualwire.Testbed) (func(*virtualwire.RunReport) string, error) {
			bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
				From: "node1", To: "node4", SrcPort: tcpSrcPort, DstPort: tcpDstPort, Bytes: 4 << 20,
			})
			if err != nil {
				return nil, err
			}
			return func(rep *virtualwire.RunReport) string {
				if rep.Verdict != "stopped" {
					return "verdict " + rep.Verdict + ", want stopped (the explicit STOP)"
				}
				if bulk.DeliveredBytes() == 0 {
					return "no bytes delivered before the failure"
				}
				if n, ok := tb.Node("node3"); !ok || !n.Failed() {
					return "node3 was not failed"
				}
				return ""
			}, nil
		},
	}
}

// fabricManyflow is the scale case: a 1000-host fat-tree on the
// windowed engine at one shard, 100 TCP flows across it, no script.
func fabricManyflow(shards int) *scenario {
	const flows = 100
	return &scenario{
		hosts: 1000,
		cfg: virtualwire.Config{
			Shards: shards,
			Topology: &virtualwire.TopologySpec{
				Kind:             virtualwire.TopoFatTree,
				TrunkPropagation: 10 * time.Microsecond,
			},
		},
		horizon: 5 * time.Second,
		tcp:     true,
		arm: func(tb *virtualwire.Testbed) (func(*virtualwire.RunReport) string, error) {
			mf, err := tb.AddManyFlow(virtualwire.ManyFlowConfig{Flows: flows, Bytes: 16 << 10})
			if err != nil {
				return nil, err
			}
			return func(*virtualwire.RunReport) string {
				if mf.Completed() != flows || mf.Failed() != 0 {
					return fmt.Sprintf("flows completed %d failed %d, want %d/0", mf.Completed(), mf.Failed(), flows)
				}
				if got, want := mf.DeliveredBytes(), flows*(16<<10); got != want {
					return fmt.Sprintf("delivered %d bytes, want %d", got, want)
				}
				return ""
			}, nil
		},
	}
}

// quickstartBulk is the scenario each run of the campaign workloads
// simulates: the quickstart drop script over a 16 KiB transfer. It is
// not a workload of its own; the campaign layer metrics time it through
// the facade to separate the campaign's overhead from the simulation.
func quickstartBulk(ber float64) *scenario {
	const bytes = 16 << 10
	return &scenario{
		script:  mustScript("quickstart_drop.fsl"),
		cfg:     virtualwire.Config{BitErrorRate: ber},
		horizon: 30 * time.Second,
		from:    "node1", to: "node2", tcp: true,
		arm: func(tb *virtualwire.Testbed) (func(*virtualwire.RunReport) string, error) {
			bulk, err := tb.AddTCPBulk(virtualwire.TCPBulkConfig{
				From: "node1", To: "node2", SrcPort: tcpSrcPort, DstPort: tcpDstPort, Bytes: bytes,
			})
			if err != nil {
				return nil, err
			}
			return func(*virtualwire.RunReport) string {
				if got := bulk.DeliveredBytes(); got != bytes {
					return fmt.Sprintf("delivered %d bytes, want %d", got, bytes)
				}
				return ""
			}, nil
		},
	}
}
