package core_test

// Chaos tests for the control plane: the testbed injects faults into the
// very medium INIT/START/STOP travel over, so the launch protocol must
// survive lossy wires, dead nodes and duplicated distributions — and
// every run must reach a terminal, reported outcome.

import (
	"fmt"
	"testing"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/packet"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// lossyCtl is a stack layer that drops control-plane frames (the gob
// control ethertype and RLL encapsulations) with a fixed probability in
// both directions, drawing from the scheduler's deterministic RNG. With
// blackhole set it drops everything, simulating a node dead from t=0.
type lossyCtl struct {
	base      stack.Base
	sched     *sim.Scheduler
	drop      float64
	blackhole bool
	dropped   int
}

func (l *lossyCtl) SetBelow(d stack.Down) { l.base.SetBelow(d) }
func (l *lossyCtl) SetAbove(u stack.Up)   { l.base.SetAbove(u) }

func (l *lossyCtl) eats(fr *ether.Frame) bool {
	if l.blackhole {
		l.dropped++
		return true
	}
	if l.drop <= 0 {
		return false
	}
	switch fr.EtherType() {
	case packet.EtherTypeVWCtl, rll.EtherType:
		if l.sched.Rand().Float64() < l.drop {
			l.dropped++
			return true
		}
	}
	return false
}

func (l *lossyCtl) SendDown(fr *ether.Frame) {
	if !l.eats(fr) {
		l.base.PassDown(fr)
	}
}

func (l *lossyCtl) DeliverUp(fr *ether.Frame) {
	if !l.eats(fr) {
		l.base.PassUp(fr)
	}
}

// chaosRig builds n hosts on a shared bus with a lossyCtl layer under
// each engine (index 0 is the control node and is never lossy), plus an
// optional RLL layer between the loss point and the wire.
type chaosRig struct {
	rig
	loss []*lossyCtl
	rlls []*rll.RLL
}

func newChaosRig(t testing.TB, seed int64, nHosts int, script string, drop float64, withRLL bool) *chaosRig {
	t.Helper()
	prog, err := fsl.Compile(script)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.NewScheduler(seed)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	cr := &chaosRig{rig: rig{sched: s, prog: prog}}
	for i := 0; i < nHosts; i++ {
		mac := packet.MAC{0, 0, 0, 0, 0, byte(i + 1)}
		ip := packet.IP{10, 0, 0, byte(i + 1)}
		h := stack.NewHost(s, fmt.Sprintf("node%d", i+1), mac, ip)
		bus.Attach(h.NIC)
		eng := core.NewEngine(s, mac)
		lc := &lossyCtl{sched: s}
		if i != 0 {
			lc.drop = drop
		}
		if withRLL {
			// The loss point is the wire itself: NIC ← lossy ← RLL ← engine,
			// so link retransmission sits above the loss and can mask it.
			rl := rll.New(s, mac, rll.Config{RTO: time.Millisecond})
			h.Build(lc, rl, eng)
			cr.rlls = append(cr.rlls, rl)
		} else {
			h.Build(lc, eng)
		}
		cr.hosts = append(cr.hosts, h)
		cr.engines = append(cr.engines, eng)
		cr.loss = append(cr.loss, lc)
	}
	for _, a := range cr.hosts {
		for _, b := range cr.hosts {
			a.Neighbors[b.IP] = b.MAC
		}
	}
	ctl, err := core.NewController(s, prog, cr.engines[0], 0)
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	cr.ctl = ctl
	return cr
}

const chaosScript = `
SCENARIO chaos 100ms
C: (node1)
(TRUE) >> ASSIGN_CNTR( C, 1 );
END`

// TestLaunchSurvivesControlLoss: at 50% control-frame drop the INIT
// distribution must still complete, via the retry loop.
func TestLaunchSurvivesControlLoss(t *testing.T) {
	r := newChaosRig(t, 41, 3, header(3, 1)+chaosScript, 0.50, false)
	r.ctl.InitRetryInterval = 2 * time.Millisecond
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.run(t, time.Second)
	res := r.ctl.Result()
	if !res.Started {
		t.Fatalf("scenario did not start under 50%% control loss: %v", res)
	}
	if res.LaunchFailed {
		t.Errorf("launch reported failed despite starting: %v", res)
	}
	// The run started and then (no workload) went quiet: it must have
	// ended through the inactivity path, proving the engines came up.
	if !res.Inactivity {
		t.Errorf("started run did not reach the inactivity terminal: %v", res)
	}
	if r.ctl.Stats.ChunksResent == 0 || r.ctl.Stats.Retries == 0 {
		t.Errorf("no retries recorded (resent=%d retries=%d); seed produced no loss?",
			r.ctl.Stats.ChunksResent, r.ctl.Stats.Retries)
	}
	if r.ctl.Stats.AcksRcvd != 2 {
		t.Errorf("AcksRcvd = %d, want one per remote node", r.ctl.Stats.AcksRcvd)
	}
}

// TestLaunchFailsOnDeadNode: a node blackholed from t=0 must not stall
// the launch forever; the run ends with a reported degraded outcome.
func TestLaunchFailsOnDeadNode(t *testing.T) {
	r := newChaosRig(t, 42, 3, header(3, 1)+chaosScript, 0, false)
	r.loss[2].blackhole = true
	r.ctl.InitRetryInterval = time.Millisecond
	r.ctl.InitMaxAttempts = 3
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.run(t, time.Second)
	res := r.ctl.Result()
	if !r.ctl.Finished() {
		t.Fatal("run never reached a terminal state with a dead node")
	}
	if res.Started {
		t.Errorf("scenario started without node3's ack: %v", res)
	}
	if !res.LaunchFailed {
		t.Errorf("LaunchFailed not reported: %v", res)
	}
	if len(res.Unreachable) != 1 || res.Unreachable[0] != core.NodeID(2) {
		t.Errorf("Unreachable = %v, want [2]", res.Unreachable)
	}
	if res.Passed(false) {
		t.Error("a failed launch must not pass")
	}
	// The live node acked and was seen; the dead one was never seen.
	if _, ok := r.ctl.LastSeen(core.NodeID(1)); !ok {
		t.Error("live node2 has no liveness record")
	}
	if _, ok := r.ctl.LastSeen(core.NodeID(2)); ok {
		t.Error("dead node3 has a liveness record")
	}
}

// TestDeadlineBoundsLaunch: with retries that never run out before the
// deadline, the launch deadline itself must produce the terminal state.
func TestDeadlineBoundsLaunch(t *testing.T) {
	r := newChaosRig(t, 43, 2, header(2, 1)+chaosScript, 0, false)
	r.loss[1].blackhole = true
	r.ctl.InitRetryInterval = 5 * time.Millisecond
	r.ctl.InitMaxAttempts = 1 << 20 // attempts never exhaust
	r.ctl.LaunchDeadline = 50 * time.Millisecond
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.run(t, time.Second)
	res := r.ctl.Result()
	if !res.LaunchFailed || res.Started {
		t.Fatalf("deadline did not bound the launch: %v", res)
	}
	if res.StoppedAt > 60*time.Millisecond {
		t.Errorf("terminal at %v, want ~50ms deadline", res.StoppedAt)
	}
	if r.sched.Pending() > 64 {
		t.Errorf("%d events still queued after abandon; retry loop not disarmed?", r.sched.Pending())
	}
}

// TestDuplicateLaunchAndInitTolerated: a second Launch while the first
// distribution is still in flight re-sends everything; engines must
// re-acknowledge duplicates idempotently and the run still starts once.
func TestDuplicateLaunchAndInitTolerated(t *testing.T) {
	r := newChaosRig(t, 44, 3, header(3, 1)+chaosScript, 0, false)
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	// No virtual time has passed: nothing is acked yet, so this re-sends
	// the full chunk sequence to every remote node.
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("second launch: %v", err)
	}
	r.run(t, time.Second)
	res := r.ctl.Result()
	if !res.Started {
		t.Fatalf("duplicate distribution prevented the start: %v", res)
	}
	if r.ctl.Stats.ChunksResent == 0 {
		t.Error("second Launch re-sent nothing")
	}
	var dups uint64
	for _, e := range r.engines[1:] {
		dups += e.Stats.InitDupChunks
	}
	if dups == 0 {
		t.Error("engines saw no duplicate INIT chunks")
	}
	if r.ctl.Stats.DupAcks == 0 {
		t.Error("controller saw no duplicate acks")
	}
	// A third Launch after the start must be a no-op.
	before := r.ctl.Stats.ChunksResent
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("post-start launch: %v", err)
	}
	if r.ctl.Stats.ChunksResent != before {
		t.Error("Launch after start re-sent chunks")
	}
}

// TestRLLMasksControlLoss: with the RLL under the loss point, wire-level
// drops are masked by link retransmission and the controller never needs
// its own retry loop.
func TestRLLMasksControlLoss(t *testing.T) {
	r := newChaosRig(t, 45, 3, header(3, 1)+chaosScript, 0.25, true)
	// Take the controller's own retry loop out of play: only the RLL may
	// recover the lost frames here.
	r.ctl.InitRetryInterval = 500 * time.Millisecond
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.run(t, time.Second)
	if !r.ctl.Result().Started {
		t.Fatalf("scenario did not start with RLL masking loss: %v", r.ctl.Result())
	}
	if r.ctl.Stats.ChunksResent != 0 {
		t.Errorf("controller retried (%d chunks) although the RLL should mask loss",
			r.ctl.Stats.ChunksResent)
	}
	var retrans uint64
	for _, rl := range r.rlls {
		retrans += rl.Stats.DataRetrans
	}
	if retrans == 0 {
		t.Error("RLL retransmitted nothing; loss layer inert?")
	}
}

// TestDisabledRLLFallsBackToControllerRetries: the Figure 8 testbeds
// without the RLL (series (i) and (ii)) carry control frames bare; the
// control plane must then survive loss on its own.
func TestDisabledRLLFallsBackToControllerRetries(t *testing.T) {
	r := newChaosRig(t, 46, 3, header(3, 1)+chaosScript, 0.25, false)
	r.ctl.InitRetryInterval = 2 * time.Millisecond
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	r.run(t, time.Second)
	if !r.ctl.Result().Started {
		t.Fatalf("scenario did not start without the RLL: %v", r.ctl.Result())
	}
	if r.ctl.Stats.ChunksResent == 0 {
		t.Error("no controller retries without the RLL; who masked the loss?")
	}
}

// TestControlPlaneAlwaysTerminates is the property test: for any seed and
// any control-frame drop rate — including total blackout — the run
// reaches a terminal reported state (started-then-inactive, or launch
// failed) and never hangs.
func TestControlPlaneAlwaysTerminates(t *testing.T) {
	for _, drop := range []float64{0, 0.25, 0.5, 1.0} {
		for seed := int64(1); seed <= 20; seed++ {
			r := newChaosRig(t, seed, 3, header(3, 1)+chaosScript, drop, false)
			r.ctl.InitRetryInterval = time.Millisecond
			r.ctl.InitMaxAttempts = 4
			r.ctl.LaunchDeadline = 200 * time.Millisecond
			if err := r.ctl.Launch(); err != nil {
				t.Fatalf("drop=%v seed=%d launch: %v", drop, seed, err)
			}
			// 5 virtual seconds is far past every bound in play (retry
			// attempts, launch deadline, 100ms inactivity timeout).
			if err := r.sched.RunUntil(5 * time.Second); err != nil {
				t.Fatalf("drop=%v seed=%d run: %v", drop, seed, err)
			}
			res := r.ctl.Result()
			if !r.ctl.Finished() {
				t.Fatalf("drop=%v seed=%d: run not terminal after 5s: %v", drop, seed, res)
			}
			switch {
			case res.Started:
				if !res.Stopped && !res.Inactivity {
					t.Errorf("drop=%v seed=%d: started but ended with neither STOP nor inactivity: %v",
						drop, seed, res)
				}
			case res.LaunchFailed:
				if len(res.Unreachable) == 0 {
					t.Errorf("drop=%v seed=%d: launch failed with empty Unreachable", drop, seed)
				}
			default:
				t.Errorf("drop=%v seed=%d: terminal but neither started nor launch-failed: %v",
					drop, seed, res)
			}
			if drop == 0 && !res.Started {
				t.Errorf("seed=%d: lossless launch did not start: %v", seed, res)
			}
			if drop == 1.0 && res.Started {
				t.Errorf("seed=%d: started under total control blackout", seed)
			}
		}
	}
}

type discard struct{}

func (discard) SendDown(*ether.Frame)  {}
func (discard) DeliverUp(*ether.Frame) {}

// TestForgedEmptyInitChunkCountsOnce: the controller never sends an
// empty INIT chunk, but a forged or MODIFY-corrupted control frame can,
// and the retry loop delivers every frame more than once. A second copy
// is a duplicate however short it is, so a distribution whose last
// chunk has not arrived does not load from a hole.
func TestForgedEmptyInitChunkCountsOnce(t *testing.T) {
	prog, err := fsl.Compile(header(2, 1) + chaosScript)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	ctl, self := prog.Nodes[0].MAC, prog.Nodes[1].MAC
	e := core.NewEngine(sim.NewScheduler(1), self)
	e.SetBelow(discard{})
	e.SetAbove(discard{})
	chunk := func(index int, data []byte) {
		e.DeliverUp(core.ControlFrame(ctl, self, &core.Msg{
			Kind: core.MsgInitChunk, ChunkIndex: index, ChunkTotal: 3, ChunkData: data,
			NodeID: 1, ControlNode: 0,
		}))
	}
	chunk(0, blob) // the whole program; chunks 1 and 2 are empty
	chunk(1, nil)
	chunk(1, nil)
	if e.Node() != -1 {
		t.Fatalf("engine loaded as node %d from a distribution still missing chunk 2", e.Node())
	}
	if e.Stats.InitDupChunks != 1 {
		t.Errorf("InitDupChunks = %d, want 1 for the repeated empty chunk", e.Stats.InitDupChunks)
	}
	chunk(2, nil)
	if e.Node() != 1 {
		t.Fatalf("engine is node %d after the whole distribution, want 1", e.Node())
	}
}
