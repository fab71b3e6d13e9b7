package virtualwire

import (
	"fmt"

	"virtualwire/internal/core"
	"virtualwire/internal/fsl"
)

// CompiledScript is an FSL script compiled exactly once: the immutable
// execution tables plus the pre-encoded INIT distribution blob. A
// CompiledScript is read-only after construction and safe to share
// across any number of testbeds and goroutines, so a campaign compiles
// each scenario variant once and every worker installs the shared tables
// with Testbed.LoadCompiled instead of re-parsing the source per run.
type CompiledScript struct {
	src      string
	prog     *core.Program
	initBlob []byte
}

// CompileScript compiles an FSL script with exactly one SCENARIO block.
// Failures wrap ErrScriptParse.
func CompileScript(src string) (*CompiledScript, error) {
	prog, err := fsl.Compile(src)
	if err != nil {
		return nil, scriptErr(err)
	}
	return newCompiledScript(src, prog)
}

// CompileScriptScenario compiles a (possibly multi-scenario) FSL script
// and selects the named scenario; an empty name requires exactly one
// SCENARIO block, like CompileScript. Failures wrap ErrScriptParse.
func CompileScriptScenario(src, scenario string) (*CompiledScript, error) {
	if scenario == "" {
		return CompileScript(src)
	}
	progs, err := fsl.CompileAll(src)
	if err != nil {
		return nil, scriptErr(err)
	}
	for _, p := range progs {
		if p.Name == scenario {
			return newCompiledScript(src, p)
		}
	}
	return nil, scriptErr(fmt.Errorf("script has no scenario %q", scenario))
}

func newCompiledScript(src string, prog *core.Program) (*CompiledScript, error) {
	blob, err := core.EncodeProgram(prog)
	if err != nil {
		return nil, err
	}
	// Build the classifier dispatch tree eagerly, alongside the INIT
	// blob: compile-once artifacts both, shared read-only by every engine
	// that adopts this program.
	prog.CompiledDispatch()
	return &CompiledScript{src: src, prog: prog, initBlob: blob}, nil
}

// Scenario returns the compiled scenario's name.
func (cs *CompiledScript) Scenario() string { return cs.prog.Name }

// Source returns the FSL source the script was compiled from.
func (cs *CompiledScript) Source() string { return cs.src }

// AddNodesFromCompiled creates one host per NODE_TABLE row of a compiled
// script — AddNodesFromScript without the re-parse.
func (tb *Testbed) AddNodesFromCompiled(cs *CompiledScript) error {
	for _, nd := range cs.prog.Nodes {
		if _, err := tb.addHost(nd.Name, nd.MAC, nd.IP); err != nil {
			return err
		}
	}
	return nil
}

// LoadScript compiles an FSL script with exactly one SCENARIO block and
// stages it: CompileScript followed by LoadCompiled.
func (tb *Testbed) LoadScript(src string) error {
	return tb.LoadScriptScenario(src, "")
}

// LoadScriptScenario compiles a (possibly multi-scenario) script and
// stages the named scenario: CompileScriptScenario followed by
// LoadCompiled.
func (tb *Testbed) LoadScriptScenario(src, scenario string) error {
	cs, err := CompileScriptScenario(src, scenario)
	if err != nil {
		return err
	}
	return tb.LoadCompiled(cs)
}

// LoadCompiled stages a compiled scenario — the one way a script reaches
// the engines. Every node of the script's NODE_TABLE must already exist
// with matching identity. The staged tables stay shared: the testbed
// never mutates them, the controller distributes the script's pre-encoded
// INIT blob, and every engine adopts the one program and its one dispatch
// tree.
func (tb *Testbed) LoadCompiled(cs *CompiledScript) error {
	for _, nd := range cs.prog.Nodes {
		n, ok := tb.byName[nd.Name]
		if !ok {
			return fmt.Errorf("virtualwire: script node %q not in testbed", nd.Name)
		}
		if n.mac != nd.MAC || n.ip != nd.IP {
			return fmt.Errorf("virtualwire: script node %q identity mismatch (script %s/%s, testbed %s/%s)",
				nd.Name, nd.MAC, nd.IP, n.MAC(), n.IP())
		}
	}
	tb.script = cs
	return nil
}

// Reset rewinds a built testbed to its pristine pre-run state under a
// new seed: the scheduler (cancelling every outstanding event and timer),
// the media, every host's protocol layers, the engines and controller,
// all metrics and any trace buffer. The compiled tables, layer wiring,
// static ARP and registered metric sources survive, so a reused testbed
// runs the same scenario again without re-parsing, re-encoding or
// re-wiring anything — the core of the campaign executor's
// compile-once/reset-to-reuse pipeline.
//
// Registered workloads are cleared (re-add them before the next Run); a
// Config.Pcap writer, being an external stream, keeps whatever was
// already written. Reset before the first Run/RunFor is an error.
func (tb *Testbed) Reset(seed int64) error {
	if !tb.built {
		if tb.buildErr != nil {
			return tb.buildErr
		}
		return fmt.Errorf("virtualwire: Reset before the testbed was built (call Run first)")
	}
	// A TCPBulk handle outlives the run; its connection is recycled by
	// the stack resets below.
	for _, w := range tb.workloads {
		if bulk, ok := w.(*TCPBulk); ok {
			bulk.detach()
		}
	}
	tb.cfg.Seed = seed
	tb.sched.Reset(seed)
	for i := 1; i < tb.shards.count; i++ {
		tb.shards.scheds[i].Reset(deriveStreamSeed(seed, uint64(i)))
	}
	tb.shards.set.ResetWindows()
	for _, sw := range tb.fabric {
		// Clears counters and fault state (down switches, failed ports,
		// failed/degraded trunk media); trunk wiring survives.
		// Spanning-tree blocking and the routes are restored to the
		// build-time layout below — reconvergence may have moved them
		// during the run.
		sw.Reset()
	}
	for i := range tb.trunks {
		tr := &tb.trunks[i]
		tr.failed = false
		if tb.trunkBlocked(i) == tr.inTree {
			tb.setTrunkBlocked(i, !tr.inTree)
		}
		tr.ch.SetProfile(tr.baseProp, tr.baseBER)
	}
	tb.forest.walk(never, never)
	tb.resetTopoFaults()
	if tb.bus != nil {
		tb.bus.Reset()
	}
	for _, n := range tb.nodes {
		n.host.Reset()
		if n.tcp != nil {
			n.tcp.Reset()
		}
		if n.rll != nil {
			n.rll.Reset()
		}
		n.engine.Reset()
		if n.rether != nil {
			n.rether.Reset()
		}
	}
	// The pool resets only after every layer above drained its leftover
	// frames back (NIC transmit queues, RLL windows): those Puts belong
	// to the run being discarded, not the next one.
	tb.pool.Reset()
	// Extra shard pools reset under the same ordering rule; trunk mailbox
	// frames were recycled by the switch resets above (a trunk wire's reset
	// returns undelivered deposits to their source pool). The workload
	// start flag clears with the discarded run.
	for i := 1; i < tb.shards.count; i++ {
		tb.shards.pools[i].Reset()
	}
	tb.shards.startPending = false
	if tb.ctl != nil {
		tb.ctl.Reset()
	}
	for _, h := range tb.echoRTT {
		h.Reset()
	}
	if tb.sampler != nil {
		tb.sampler.Reset(tb.sched.Now())
	}
	if tb.tracing != nil {
		tb.tracing.Reset()
	}
	tb.workloads = tb.workloads[:0]
	tb.start(seed)
	return nil
}

// start is the one start state, entered by build and by every Reset once
// all else is pristine: component generators seeded in place, the
// lookahead derived from the live trunks, and the token ring started
// with every member at zero — the last schedules events.
func (tb *Testbed) start(seed int64) {
	tb.assignComponentRands(seed)
	tb.recomputeShardLookahead()
	for _, name := range tb.retherRing {
		tb.byName[name].rether.Start()
	}
}
