package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
)

// rig is a small testbed: n hosts on a shared bus, each with exactly the
// engine between NIC and IP, plus UDP endpoints to generate traffic.
// Bus, engines and hosts share a frame pool, as on a real testbed, so
// every test here also runs with received frames being recycled.
type rig struct {
	sched   *sim.Scheduler
	pool    *ether.FramePool
	hosts   []*stack.Host
	engines []*core.Engine
	ctl     *core.Controller
	prog    *core.Program
}

// header returns the FILTER_TABLE/NODE_TABLE prologue for n hosts. The
// filter pN matches UDP packets with destination port 7000+N (UDP ports
// share offsets 34/36 with TCP).
func header(nHosts, nFilters int) string {
	var b strings.Builder
	b.WriteString("FILTER_TABLE\n")
	for i := 0; i < nFilters; i++ {
		fmt.Fprintf(&b, "p%d: (23 1 0x11), (36 2 0x%04x)\n", i, 7000+i)
	}
	b.WriteString("END\nNODE_TABLE\n")
	for i := 0; i < nHosts; i++ {
		fmt.Fprintf(&b, "node%d 00:00:00:00:00:%02x 10.0.0.%d\n", i+1, i+1, i+1)
	}
	b.WriteString("END\n")
	return b.String()
}

func newRig(t testing.TB, seed int64, nHosts int, script string) *rig {
	t.Helper()
	prog, err := fsl.Compile(script)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := sim.NewScheduler(seed)
	pool := ether.NewFramePool()
	bus := ether.NewSharedBus(s, ether.BusConfig{Pool: pool})
	r := &rig{sched: s, pool: pool, prog: prog}
	for i := 0; i < nHosts; i++ {
		mac := packet.MAC{0, 0, 0, 0, 0, byte(i + 1)}
		ip := packet.IP{10, 0, 0, byte(i + 1)}
		h := stack.NewHost(s, fmt.Sprintf("node%d", i+1), mac, ip)
		bus.Attach(h.NIC)
		eng := core.NewEngine(s, mac)
		eng.SetPool(pool)
		h.Build(eng)
		r.hosts = append(r.hosts, h)
		r.engines = append(r.engines, eng)
	}
	for _, a := range r.hosts {
		for _, b := range r.hosts {
			a.Neighbors[b.IP] = b.MAC
		}
	}
	ctl, err := core.NewController(s, prog, r.engines[0], 0)
	if err != nil {
		t.Fatalf("controller: %v", err)
	}
	r.ctl = ctl
	return r
}

// launch starts the scenario and waits (in virtual time) until started.
func (r *rig) launch(t testing.TB) {
	t.Helper()
	if err := r.ctl.Launch(); err != nil {
		t.Fatalf("launch: %v", err)
	}
	// Step only until the START broadcast so scenario timers (e.g. the
	// inactivity timeout) don't burn down before traffic begins.
	for !r.ctl.Result().Started && r.sched.Step() {
	}
	if !r.ctl.Result().Started {
		t.Fatal("scenario did not start")
	}
	// Let the START broadcast reach every engine.
	r.run(t, 5*time.Millisecond)
}

// sendUDP sends one datagram from host i to host j on dst port.
func (r *rig) sendUDP(t testing.TB, i, j int, dstPort uint16, payload []byte) {
	t.Helper()
	h := r.hosts[i]
	dst := r.hosts[j]
	fr := r.pool.Get(packet.UDPFrameLen(len(payload)))
	packet.PutUDPFrame(fr.Data, h.MAC, dst.MAC, h.IP, dst.IP,
		packet.UDP{SrcPort: 5000, DstPort: dstPort}, payload)
	h.SendFrame(fr)
}

// bindSink binds a UDP port on host j and counts deliveries.
func (r *rig) bindSink(t testing.TB, j int, port uint16) *int {
	t.Helper()
	sock, err := r.hosts[j].UDP.Bind(port)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	n := new(int)
	sock.OnDatagram = func(packet.IP, uint16, []byte) { *n++ }
	return n
}

func (r *rig) run(t testing.TB, d time.Duration) {
	t.Helper()
	if err := r.sched.RunUntil(r.sched.Now() + d); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestInitDistributionAndStart(t *testing.T) {
	script := header(3, 1) + `
SCENARIO init_test
C: (node1)
(TRUE) >> ASSIGN_CNTR( C, 42 );
END`
	r := newRig(t, 1, 3, script)
	r.launch(t)
	// Every engine received the tables over the control plane and the
	// initialization rule ran on node1's engine.
	for i, e := range r.engines {
		if !e.Active() {
			t.Errorf("engine %d not active", i)
		}
		if e.Node() != core.NodeID(i) {
			t.Errorf("engine %d identity = %d", i, e.Node())
		}
	}
	if v, _ := r.engines[0].CounterValueByName("C"); v != 42 {
		t.Errorf("C = %d, want 42 ((TRUE) rule must fire exactly once)", v)
	}
	if r.engines[1].Stats.CtlRcvd == 0 {
		t.Error("engine 1 received no control traffic; INIT went around the wire?")
	}
}

func TestEventCounterMatchesExactly(t *testing.T) {
	script := header(3, 2) + `
SCENARIO counting
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
END`
	r := newRig(t, 2, 3, script)
	sink := r.bindSink(t, 1, 7000)
	other := r.bindSink(t, 1, 7001)
	sink3 := r.bindSink(t, 2, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("match"))    // counts
	r.sendUDP(t, 0, 1, 7001, []byte("nomatch"))  // different filter
	r.sendUDP(t, 0, 2, 7000, []byte("wrongdst")) // different node pair
	r.sendUDP(t, 1, 0, 7000, []byte("reverse"))  // wrong direction pair
	r.run(t, time.Second)
	if v, _ := r.engines[1].CounterValueByName("C"); v != 1 {
		t.Errorf("C = %d, want 1", v)
	}
	if *sink != 1 || *other != 1 || *sink3 != 1 {
		t.Errorf("deliveries: %d %d %d (engine must not consume)", *sink, *other, *sink3)
	}
}

func TestEdgeTriggeredRules(t *testing.T) {
	script := header(2, 1) + `
SCENARIO edges
C: (p0, node1, node2, RECV)
D: (node2)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> RESET_CNTR( C ); INCR_CNTR( D, 1 );
END`
	r := newRig(t, 2, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	for i := 0; i < 5; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 10*time.Millisecond)
	}
	if v, _ := r.engines[1].CounterValueByName("D"); v != 5 {
		t.Errorf("D = %d, want 5 (rule must re-fire after each reset)", v)
	}
}

func TestInlineDropFigure5Pattern(t *testing.T) {
	script := header(2, 1) + `
SCENARIO dropfirst
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C > 0) && (C < 2)) >> DROP p0, node1, node2, RECV;
END`
	r := newRig(t, 2, 2, script)
	sink := r.bindSink(t, 1, 7000)
	r.launch(t)
	for i := 0; i < 3; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 10*time.Millisecond)
	}
	// Packet 1 is counted, then consumed inline; packets 2 and 3 pass.
	if *sink != 2 {
		t.Errorf("delivered %d, want 2 (first dropped inline)", *sink)
	}
	if v, _ := r.engines[1].CounterValueByName("C"); v != 3 {
		t.Errorf("C = %d, want 3 (dropped packet still counted)", v)
	}
	if r.engines[1].Stats.Drops != 1 {
		t.Errorf("drops = %d", r.engines[1].Stats.Drops)
	}
}

func TestDelayJiffyRounding(t *testing.T) {
	script := header(2, 1) + `
SCENARIO delayone
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> DELAY( p0, node1, node2, RECV, 12ms );
END`
	r := newRig(t, 3, 2, script)
	sock, _ := r.hosts[1].UDP.Bind(7000)
	var arrivals []time.Duration
	sock.OnDatagram = func(packet.IP, uint16, []byte) {
		arrivals = append(arrivals, r.sched.Now())
	}
	r.launch(t)
	t0 := r.sched.Now()
	r.sendUDP(t, 0, 1, 7000, []byte("a"))
	r.run(t, 100*time.Millisecond)
	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	d := arrivals[0] - t0
	// 12 ms rounds up to the 20 ms jiffy boundary.
	if d < 20*time.Millisecond || d > 21*time.Millisecond {
		t.Errorf("delayed delivery after %v, want ~20ms (jiffy rounding)", d)
	}
}

func TestDupAndModify(t *testing.T) {
	script := header(2, 2) + `
SCENARIO dupmod
C: (p0, node1, node2, RECV)
M: (p1, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C ); ENABLE_CNTR( M );
((C = 1)) >> DUP( p0, node1, node2, RECV );
((M = 1)) >> MODIFY( p1, node1, node2, RECV, 42, 0xdead );
END`
	r := newRig(t, 3, 2, script)
	dup := r.bindSink(t, 1, 7000)
	sock, _ := r.hosts[1].UDP.Bind(7001)
	var payload []byte
	sock.OnDatagram = func(_ packet.IP, _ uint16, p []byte) {
		payload = append([]byte(nil), p...)
	}
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("dupme"))
	r.sendUDP(t, 0, 1, 7001, []byte("modifyme"))
	r.run(t, time.Second)
	if *dup != 2 {
		t.Errorf("DUP delivered %d copies, want 2", *dup)
	}
	// Frame offset 42 is UDP payload byte 0 (14+20+8).
	if len(payload) < 2 || payload[0] != 0xde || payload[1] != 0xad {
		t.Errorf("MODIFY payload = %x, want 0xdead prefix", payload)
	}
}

// TestDupOnReceiveDeliversIntactCopies: the receiving stack recycles a
// frame as soon as its handler returns, so the engine must take the DUP
// copy before it passes the original up. Taken afterwards, the copy is
// of a dead (emptied, possibly reused) frame and the second datagram
// arrives mangled or not at all.
func TestDupOnReceiveDeliversIntactCopies(t *testing.T) {
	script := header(2, 1) + `
SCENARIO dup_recv
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> DUP( p0, node1, node2, RECV );
END`
	for _, cost := range []time.Duration{0, time.Microsecond} { // inline and delayed-cost path
		r := newRig(t, 3, 2, script)
		r.engines[1].Cost = core.CostModel{Base: cost}
		sock, err := r.hosts[1].UDP.Bind(7000)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		sock.OnDatagram = func(_ packet.IP, _ uint16, p []byte) { got = append(got, string(p)) }
		r.launch(t)
		const payload = "a datagram that must arrive twice, byte for byte"
		r.sendUDP(t, 0, 1, 7000, []byte(payload))
		r.run(t, time.Second)
		if len(got) != 2 || got[0] != payload || got[1] != payload {
			t.Errorf("cost %v: DUP delivered %q, want two copies of %q", cost, got, payload)
		}
	}
}

func TestModifyRandomPerturbs(t *testing.T) {
	script := header(2, 1) + `
SCENARIO modrand
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> MODIFY( p0, node1, node2, RECV );
END`
	r := newRig(t, 4, 2, script)
	// Random modification may hit the IP header (checksum then fails —
	// "the checksum must be set correctly by the user"), so observe the
	// raw frame at the engine level instead of the UDP payload.
	r.bindSink(t, 1, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("perturbme-perturbme"))
	r.run(t, time.Second)
	if r.engines[1].Stats.Modifies != 1 {
		t.Errorf("modifies = %d", r.engines[1].Stats.Modifies)
	}
}

func TestReorderPermutation(t *testing.T) {
	script := header(2, 1) + `
SCENARIO reord
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> REORDER( p0, node1, node2, RECV, 3, [3 1 2] );
END`
	r := newRig(t, 5, 2, script)
	sock, _ := r.hosts[1].UDP.Bind(7000)
	var order []byte
	sock.OnDatagram = func(_ packet.IP, _ uint16, p []byte) { order = append(order, p[0]) }
	r.launch(t)
	for i := byte(1); i <= 4; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte{i})
		r.run(t, 5*time.Millisecond)
	}
	r.run(t, time.Second)
	want := []byte{3, 1, 2, 4} // window of 3 permuted, 4th passes through
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFailSilencesNode(t *testing.T) {
	script := header(2, 1) + `
SCENARIO failnode
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 2)) >> FAIL( node2 );
END`
	r := newRig(t, 6, 2, script)
	sink := r.bindSink(t, 1, 7000)
	r.launch(t)
	for i := 0; i < 5; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 10*time.Millisecond)
	}
	if *sink != 1 {
		// Packet 2 is counted, the FAIL fires inline during its
		// processing at node2, and like a fault action it takes effect
		// immediately: only packet 1 is delivered.
		t.Errorf("delivered %d, want 1 (node crashed at packet 2)", *sink)
	}
	if !r.engines[1].Failed() {
		t.Error("node2 engine not failed")
	}
}

func TestDistributedRuleExecution(t *testing.T) {
	// A counter observed at node2 arms a DROP executed at node1 — the
	// paper's Section 6.2 distributed pattern in miniature.
	script := header(2, 1) + `
SCENARIO distrib
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 3)) >> DROP( p0, node1, node2, SEND );
END`
	r := newRig(t, 7, 2, script)
	sink := r.bindSink(t, 1, 7000)
	r.launch(t)
	for i := 0; i < 6; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 20*time.Millisecond) // let the status message cross the wire
	}
	// Packets 1..3 delivered; on packet 3 the term status travels to
	// node1 which arms the one-shot DROP on its SEND side; packet 4 is
	// consumed there (never even reaching the wire); 5 and 6 pass.
	if *sink != 5 {
		t.Errorf("delivered %d, want 5", *sink)
	}
	if r.engines[0].Stats.Drops != 1 {
		t.Errorf("node1 drops = %d, want 1", r.engines[0].Stats.Drops)
	}
	if v, _ := r.engines[1].CounterValueByName("C"); v != 5 {
		t.Errorf("C = %d, want 5 (packet 4 dropped before the wire)", v)
	}
}

func TestRemoteCounterValuePropagation(t *testing.T) {
	// A term comparing two counters homed on different nodes exercises
	// the eager value-push path of Section 5.2.
	script := header(2, 2) + `
SCENARIO remoteval
A: (p0, node1, node2, RECV)
B: (p1, node2, node1, RECV)
D: (node2)
(TRUE) >> ENABLE_CNTR( A ); ENABLE_CNTR( B );
((B > A)) >> INCR_CNTR( D, 1 );
END`
	r := newRig(t, 8, 2, script)
	r.bindSink(t, 1, 7000)
	r.bindSink(t, 0, 7001)
	r.launch(t)
	// A=1 (to node2), then B must exceed A: B counts at node1, pushed
	// to node2 where the term lives? No: term home is B's home (LHS) =
	// node1; A's value must be pushed from node2 to node1, and the
	// INCR(D) action lives at node2, so the status flows back. Either
	// way both control paths are exercised.
	r.sendUDP(t, 0, 1, 7000, []byte("a")) // A=1
	r.run(t, 50*time.Millisecond)
	r.sendUDP(t, 1, 0, 7001, []byte("b")) // B=1
	r.run(t, 50*time.Millisecond)
	r.sendUDP(t, 1, 0, 7001, []byte("b")) // B=2 > A=1
	r.run(t, 100*time.Millisecond)
	if v, _ := r.engines[1].CounterValueByName("D"); v != 1 {
		t.Errorf("D = %d, want 1 (B>A must fire once)", v)
	}
}

func TestStopEndsScenario(t *testing.T) {
	script := header(2, 1) + `
SCENARIO stopper 5sec
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 2)) >> STOP;
END`
	r := newRig(t, 9, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, 10*time.Millisecond)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, 100*time.Millisecond)
	res := r.ctl.Result()
	if !res.Stopped || res.Inactivity {
		t.Errorf("result = %+v, want explicit stop", res)
	}
	if !res.Passed(true) {
		t.Error("Passed(requireStop) = false")
	}
	for i, e := range r.engines {
		if e.Active() {
			t.Errorf("engine %d still active after shutdown", i)
		}
	}
}

func TestInactivityTimeout(t *testing.T) {
	script := header(2, 1) + `
SCENARIO quiet 200ms
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 100)) >> STOP;
END`
	r := newRig(t, 10, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, time.Second)
	res := r.ctl.Result()
	if !res.Inactivity || res.Stopped {
		t.Errorf("result = %+v, want inactivity termination", res)
	}
	if res.Passed(true) {
		t.Error("inactivity must not count as a pass when STOP is required")
	}
}

func TestActivityDefersInactivity(t *testing.T) {
	script := header(2, 1) + `
SCENARIO busy 100ms
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 20)) >> STOP;
END`
	r := newRig(t, 11, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	// Send one packet every 20 ms: far slower than the line rate but
	// well within the 100 ms inactivity budget; the scenario must
	// survive to the explicit STOP at packet 20.
	for i := 0; i < 20; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 20*time.Millisecond)
	}
	r.run(t, 300*time.Millisecond)
	res := r.ctl.Result()
	if !res.Stopped {
		t.Errorf("result = %+v, want STOP at packet 20", res)
	}
}

func TestFlagErrCollected(t *testing.T) {
	script := header(2, 1) + `
SCENARIO flagging
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
((C = 2)) >> FLAG_ERR;
END`
	r := newRig(t, 12, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	for i := 0; i < 3; i++ {
		r.sendUDP(t, 0, 1, 7000, []byte("x"))
		r.run(t, 10*time.Millisecond)
	}
	r.run(t, 100*time.Millisecond)
	res := r.ctl.Result()
	if len(res.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly 1", res.Errors)
	}
	if res.Errors[0].Node != 1 {
		t.Errorf("error from node %d, want node2", res.Errors[0].Node)
	}
	if res.Passed(false) {
		t.Error("Passed = true despite a flagged error")
	}
}

func TestSetCurTimeAndElapsed(t *testing.T) {
	script := header(2, 1) + `
SCENARIO timing
C: (p0, node1, node2, RECV)
T: (node2)
(TRUE) >> ENABLE_CNTR( C );
((C = 1)) >> SET_CURTIME( T );
((C = 2)) >> ELAPSED_TIME( T );
END`
	r := newRig(t, 13, 2, script)
	r.bindSink(t, 1, 7000)
	r.launch(t)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, 50*time.Millisecond)
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, 50*time.Millisecond)
	v, _ := r.engines[1].CounterValueByName("T")
	// The two packets are ~50 ms apart; ELAPSED_TIME stores ms.
	if v < 45 || v > 60 {
		t.Errorf("elapsed = %d ms, want ~50", v)
	}
}

func TestCostModelDelaysForwarding(t *testing.T) {
	script := header(2, 1) + `
SCENARIO costly
C: (p0, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( C );
END`
	r := newRig(t, 14, 2, script)
	sock, _ := r.hosts[1].UDP.Bind(7000)
	var at time.Duration
	sock.OnDatagram = func(packet.IP, uint16, []byte) { at = r.sched.Now() }
	r.engines[1].Cost = core.CostModel{Base: 2 * time.Millisecond}
	r.launch(t)
	t0 := r.sched.Now()
	r.sendUDP(t, 0, 1, 7000, []byte("x"))
	r.run(t, 100*time.Millisecond)
	if at-t0 < 2*time.Millisecond {
		t.Errorf("delivery after %v, want >= 2ms of modeled processing", at-t0)
	}
}

func TestInactiveEngineIsTransparent(t *testing.T) {
	// Before INIT/START, engines must pass everything through.
	s := sim.NewScheduler(15)
	bus := ether.NewSharedBus(s, ether.BusConfig{})
	h1 := stack.NewHost(s, "a", packet.MAC{0, 0, 0, 0, 0, 1}, packet.IP{10, 0, 0, 1})
	h2 := stack.NewHost(s, "b", packet.MAC{0, 0, 0, 0, 0, 2}, packet.IP{10, 0, 0, 2})
	for _, h := range []*stack.Host{h1, h2} {
		h.Neighbors[h1.IP] = h1.MAC
		h.Neighbors[h2.IP] = h2.MAC
	}
	bus.Attach(h1.NIC)
	bus.Attach(h2.NIC)
	h1.Build(core.NewEngine(s, h1.MAC))
	h2.Build(core.NewEngine(s, h2.MAC))
	sock, _ := h2.UDP.Bind(9)
	got := 0
	sock.OnDatagram = func(packet.IP, uint16, []byte) { got++ }
	cli, _ := h1.UDP.Bind(10)
	if err := cli.SendTo(h2.IP, 9, []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != 1 {
		t.Error("inactive engine swallowed traffic")
	}
}

func TestResultString(t *testing.T) {
	r := core.Result{Stopped: true, StoppedAt: time.Second}
	if !strings.Contains(r.String(), "stopped") {
		t.Errorf("String() = %q", r.String())
	}
	r = core.Result{Inactivity: true}
	if !strings.Contains(r.String(), "inactivity") {
		t.Errorf("String() = %q", r.String())
	}
}
