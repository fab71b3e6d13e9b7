package main

import (
	"fmt"
	"time"

	"virtualwire"
	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/packet"
	"virtualwire/internal/rether"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
)

// The ladder gives each layer a unit cost. It drives the layers through
// their public constructors, outside any testbed, replaying a frame mix
// shaped like the workload's in steady state. Each rung adds one layer
// to the rung below it:
//
//	r0 scheduler event
//	r1 NIC -> medium -> NIC (switch, bus, or two switches and a trunk)
//	r2 + RLL                    (if the workload runs the RLL)
//	r3 + engine                 (loaded with the workload's script)
//	r4 + IP/UDP                 (the frames now come from sockets)
//	r5 + TCP                    (a bulk transfer over the same chain)
//
// and a layer's cost is the difference between its rung and the one
// below. Rungs are timed per frame delivered, and each also reports the
// scheduler events it ran and the frame copies it made per frame, so
// that the scheduler's and the wire's share can be taken out of every
// layer above them.

// Frame sizes of the mix: a minimum frame, a full TCP segment of this
// stack (MSS 1400), and Ethernet's largest.
const (
	smallFrame = ether.MinFrame
	largeFrame = packet.EthHeaderLen + 20 + 20 + tcp.MSS
	maxFrame   = 1514
	udpHeaders = packet.EthHeaderLen + 20 + 8
)

const (
	mediumSwitch = "switch"
	mediumBus    = "bus"
	mediumTrunk  = "trunk" // two switches joined by a mailbox trunk
)

// ladderSpec is what the ladder needs to know about a workload.
type ladderSpec struct {
	medium string
	rll    bool
	// prog is the workload's compiled script (nil when it has none; the
	// engine rung is then skipped, as the engine only passes frames on).
	prog     *core.Program
	a, b     core.NodeEntry // the two hosts the traffic runs between
	aID, bID core.NodeID
	// largeShare is the share of frames that are full-size; the rest are
	// minimum-size. Full-size frames run a -> b, as data does.
	largeShare float64
	tcp        bool
}

// Each rung times ladderFrames frames, ladderRounds times over (the
// smoke test shrinks both).
var ladderFrames, ladderRounds = 20000, 5

// newLadderSpec derives the spec from a scenario and the mean frame
// size its traced ops put on the wire.
func newLadderSpec(sc *scenario, meanFrame float64) (*ladderSpec, error) {
	ls := &ladderSpec{medium: mediumSwitch, rll: sc.cfg.RLL, tcp: sc.tcp}
	switch {
	case sc.cfg.Medium == virtualwire.MediumBus:
		ls.medium = mediumBus
	case sc.cfg.Topology != nil:
		ls.medium = mediumTrunk
	}
	ls.largeShare = (meanFrame - smallFrame) / (largeFrame - smallFrame)
	if ls.largeShare < 0 {
		ls.largeShare = 0
	} else if ls.largeShare > 1 {
		ls.largeShare = 1
	}
	if sc.script == "" {
		ls.a = core.NodeEntry{Name: "a", MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.IP{10, 0, 0, 1}}
		ls.b = core.NodeEntry{Name: "b", MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.IP{10, 0, 0, 2}}
		return ls, nil
	}
	prog, err := fsl.Compile(sc.script)
	if err != nil {
		return nil, err
	}
	ls.prog = prog
	var okA, okB bool
	ls.aID, okA = prog.NodeByName(sc.from)
	ls.bID, okB = prog.NodeByName(sc.to)
	if !okA || !okB {
		return nil, fmt.Errorf("ladder: script has no node %q or %q", sc.from, sc.to)
	}
	ls.a, ls.b = prog.Nodes[ls.aID], prog.Nodes[ls.bID]
	return ls, nil
}

// rungResult is one rung's measurement.
type rungResult struct {
	nsPerFrame     float64
	eventsPerFrame float64
	// getsPerFrame is the frame-pool Gets per frame delivered: every
	// copy a medium or the RLL makes to carry the frame.
	getsPerFrame float64
}

// schedulerRung is r0: the cost of scheduling and firing one event with
// depth events pending, the queue depth held constant.
func schedulerRung(depth, events int) float64 {
	s := sim.NewScheduler(1)
	var fired int
	var tick func()
	tick = func() {
		fired++
		s.After(time.Duration(depth)*time.Microsecond, "tick", tick)
	}
	for i := 0; i < depth; i++ {
		s.After(time.Duration(i)*time.Microsecond, "tick", tick)
	}
	for fired < events/10 { // warm the free list and the heap
		s.Step()
	}
	fired = 0
	t0 := time.Now()
	for fired < events {
		s.Step()
	}
	return float64(time.Since(t0)) / float64(events)
}

// wire is the medium of a rung with two attachment points.
type wire struct {
	sched *sim.Scheduler
	pool  *ether.FramePool
	// attach connects the a-side (0) or b-side (1) NIC.
	attach func(side int, n *ether.NIC)
	// run advances the simulation until done reports true or nothing is
	// left to do.
	run func(done func() bool)
}

func newWire(medium string) *wire {
	w := &wire{sched: sim.NewScheduler(1), pool: ether.NewFramePool()}
	w.run = func(done func() bool) {
		for !done() && w.sched.Step() {
		}
	}
	switch medium {
	case mediumBus:
		bus := ether.NewSharedBus(w.sched, ether.BusConfig{Pool: w.pool})
		w.attach = func(_ int, n *ether.NIC) { bus.Attach(n) }
	case mediumSwitch:
		sw := ether.NewSwitch(w.sched, ether.SwitchConfig{Pool: w.pool})
		w.attach = func(_ int, n *ether.NIC) { sw.AttachHost(n) }
	case mediumTrunk:
		sws := [2]*ether.Switch{
			ether.NewSwitch(w.sched, ether.SwitchConfig{Pool: w.pool, ID: 1}),
			ether.NewSwitch(w.sched, ether.SwitchConfig{Pool: w.pool, ID: 2}),
		}
		lc := ether.LinkConfig{BitsPerSecond: 1e9, Propagation: 10 * time.Microsecond, Pool: w.pool}
		ch, _, _ := ether.ConnectTrunkChannel(sws[0], sws[1], lc, lc)
		w.attach = func(side int, n *ether.NIC) { sws[side].AttachHost(n) }
		// The trunk deposits into a mailbox that only a window loop
		// drains; this one is the facade's, cut down to a single trunk.
		w.run = func(done func() bool) {
			for !done() {
				m, ok := w.sched.PeekTime()
				if !ok {
					return
				}
				end := m + ch.Lookahead()
				if t, ok := ch.EarliestPending(); ok && t < end {
					end = t
				}
				if end <= m {
					end = m + 1
				}
				if err := w.sched.RunWindow(end, end); err != nil {
					return
				}
				ch.Drain()
			}
		}
	}
	return w
}

// startClock starts timing a stretch of the rung; the function it
// returns stops the clock and divides by the frames the stretch moved.
func (w *wire) startClock() func(frames float64) rungResult {
	ev0, g0, t0 := w.sched.Executed(), w.pool.Gets, time.Now()
	return func(frames float64) rungResult {
		el := time.Since(t0)
		return rungResult{
			nsPerFrame:     float64(el) / frames,
			eventsPerFrame: float64(w.sched.Executed()-ev0) / frames,
			getsPerFrame:   float64(w.pool.Gets-g0) / frames,
		}
	}
}

// counter is the top of a replay rung's chain: it reports deliveries.
type counter struct{ onFrame func() }

func (c *counter) DeliverUp(*ether.Frame) { c.onFrame() }

// mix decides, frame by frame, whether the next one is full-size,
// spreading the full-size share evenly.
type mix struct {
	share float64
	acc   float64
}

func (m *mix) nextLarge() bool {
	m.acc += m.share
	if m.acc >= 1 {
		m.acc--
		return true
	}
	return false
}

// loop is the closed loop that drives r1..r4: one frame in flight, the
// next one emitted when the last is delivered (or, if a fault rule
// consumed it, when the wire falls idle). Full-size frames leave side 0
// (a), minimum-size ones side 1 (b), as data and acknowledgements do; a
// mix with no full-size frames alternates sides, as echoes do.
type loop struct {
	w    *wire
	mix  mix
	emit func(side int, large bool)

	delivered, sent, target int
}

func (l *loop) send() {
	l.sent++
	switch {
	case l.mix.nextLarge():
		l.emit(0, true)
	case l.mix.share == 0 && l.sent%2 == 0:
		l.emit(0, false)
	default:
		l.emit(1, false)
	}
}

// onDelivery is what the receiving end calls for every frame.
func (l *loop) onDelivery() {
	l.delivered++
	if l.sent < l.target {
		l.send()
	}
}

func (l *loop) drive(n int) {
	l.target = l.sent + n
	goal := l.delivered + n
	for l.sent < l.target && l.delivered < goal {
		l.send() // the first frame, and again after one was dropped
		l.w.run(func() bool { return l.delivered >= goal })
	}
}

// measure warms the rung up (MAC learning, the pool, the RLL streams)
// and then times ladderFrames frames.
func (l *loop) measure() rungResult {
	l.drive(ladderFrames / 10)
	stop := l.w.startClock()
	d0 := l.delivered
	l.drive(ladderFrames)
	return stop(float64(l.delivered - d0))
}

// udpTemplate builds the frame the replay rungs copy: a UDP datagram on
// the workload's ports. The scripts' TCP filters match on ports and on
// the flags byte at offset 47 without checking the protocol, so setting
// that byte (payload byte 5) to ACK makes the datagram classify exactly
// as the workload's TCP segment would, on every rung alike.
func udpTemplate(src, dst core.NodeEntry, sport, dport uint16, size int) []byte {
	payload := make([]byte, size-udpHeaders)
	if len(payload) > 5 {
		payload[5] = packet.TCPAck
	}
	return packet.BuildUDPFrame(src.MAC, dst.MAC, src.IP, dst.IP,
		packet.UDP{SrcPort: sport, DstPort: dport}, payload)
}

func (ls *ladderSpec) ports() (uint16, uint16) {
	if ls.tcp {
		return tcpSrcPort, tcpDstPort
	}
	return echoPort + 1, echoPort
}

// layersFor returns a fresh a-side or b-side layer stack for the rung:
// RLL from rung 2 (if the workload has it), engine from rung 3.
func (ls *ladderSpec) layersFor(level int, w *wire, side int, nic *ether.NIC) []stack.Layer {
	self, id := ls.a, ls.aID
	if side == 1 {
		self, id = ls.b, ls.bID
	}
	var layers []stack.Layer
	if ls.rll && level >= 2 {
		l := rll.New(w.sched, self.MAC, rll.Config{})
		l.SetPool(w.pool)
		nic.DeliverCorrupt = true
		layers = append(layers, l)
	}
	if ls.prog != nil && level >= 3 {
		e := core.NewEngine(w.sched, self.MAC)
		e.LoadLocal(ls.prog, id, ls.aID)
		e.Activate()
		layers = append(layers, e)
	}
	return layers
}

// replayRung is r1..r3: copies of prebuilt frames pushed into the top
// of each side's chain.
func (ls *ladderSpec) replayRung(level int, share float64, large int) rungResult {
	w := newWire(ls.medium)
	sport, dport := ls.ports()
	tmpl := [2][2][]byte{ // [side][large]
		{udpTemplate(ls.a, ls.b, sport, dport, smallFrame), udpTemplate(ls.a, ls.b, sport, dport, large)},
		{udpTemplate(ls.b, ls.a, dport, sport, smallFrame), nil},
	}
	var down [2]stack.Down
	l := &loop{w: w, mix: mix{share: share}}
	l.emit = func(side int, large bool) {
		data := tmpl[side][0]
		if large {
			data = tmpl[side][1]
		}
		fr := w.pool.Get(len(data))
		copy(fr.Data, data)
		down[side].SendDown(fr)
	}
	top := &counter{onFrame: l.onDelivery}
	for side, nd := range [2]core.NodeEntry{ls.a, ls.b} {
		nic := ether.NewNIC(w.sched, nd.MAC, 0)
		w.attach(side, nic)
		down[side] = stack.Chain(nic, top, ls.layersFor(level, w, side, nic)...)
	}
	return l.measure()
}

// hostPair builds two full hosts over the rung's wire, layers included.
func (ls *ladderSpec) hostPair(w *wire) [2]*stack.Host {
	var hs [2]*stack.Host
	for side, nd := range [2]core.NodeEntry{ls.a, ls.b} {
		h := stack.NewHost(w.sched, nd.Name, nd.MAC, nd.IP)
		w.attach(side, h.NIC)
		h.Build(ls.layersFor(5, w, side, h.NIC)...)
		h.Neighbors[ls.a.IP], h.Neighbors[ls.b.IP] = ls.a.MAC, ls.b.MAC
		hs[side] = h
	}
	return hs
}

// udpRung is r4: the replay rung's traffic, generated and consumed by
// UDP sockets on full hosts.
func (ls *ladderSpec) udpRung() (rungResult, error) {
	w := newWire(ls.medium)
	hs := ls.hostPair(w)
	sport, dport := ls.ports()
	ports := [2]uint16{sport, dport}
	payload := [2][]byte{make([]byte, smallFrame-udpHeaders), make([]byte, largeFrame-udpHeaders)}
	payload[0][5], payload[1][5] = packet.TCPAck, packet.TCPAck // see udpTemplate

	var socks [2]*stack.UDPSocket
	l := &loop{w: w, mix: mix{share: ls.largeShare}}
	l.emit = func(side int, large bool) {
		data := payload[0]
		if large {
			data = payload[1]
		}
		// A send the stack refuses shows as a stall, which drive retries.
		_ = socks[side].SendTo(hs[1-side].IP, ports[1-side], data)
	}
	for side := range socks {
		s, err := hs[side].UDP.Bind(ports[side])
		if err != nil {
			return rungResult{}, err
		}
		s.OnDatagram = func(packet.IP, uint16, []byte) { l.onDelivery() }
		socks[side] = s
	}
	return l.measure(), nil
}

// tcpRung is r5: one bulk transfer over the same hosts, timed per frame
// the two NICs put on the wire (segments and acknowledgements alike).
func (ls *ladderSpec) tcpRung() (rungResult, error) {
	w := newWire(ls.medium)
	hs := ls.hostPair(w)
	stacks := [2]*tcp.Stack{tcp.NewStack(hs[0]), tcp.NewStack(hs[1])}
	// Size the transfer so the rung puts about ladderFrames frames on
	// the wire, as the rungs below do: one segment and one
	// acknowledgement per MSS.
	total := ladderFrames / 2 * tcp.MSS
	lst, err := stacks[1].Listen(tcpDstPort)
	if err != nil {
		return rungResult{}, err
	}
	got := 0
	lst.OnAccept = func(c *tcp.Conn) { c.OnData = func(d []byte) { got += len(d) } }
	conn, err := stacks[0].Connect(tcpSrcPort, ls.b.IP, tcpDstPort)
	if err != nil {
		return rungResult{}, err
	}
	failed := false
	conn.OnFail = func() { failed = true }
	conn.OnConnected = func() { conn.Send(make([]byte, total)) }

	frames := func() float64 { return float64(hs[0].NIC.Stats.TxFrames + hs[1].NIC.Stats.TxFrames) }
	// The handshake and slow start are the warm-up: timing starts once a
	// tenth of the transfer has arrived.
	w.run(func() bool { return failed || got >= total/10 })
	stop := w.startClock()
	f0 := frames()
	w.run(func() bool { return failed || got >= total })
	res := stop(frames() - f0)
	if failed || got < total {
		return rungResult{}, fmt.Errorf("ladder: TCP rung delivered %d of %d bytes", got, total)
	}
	return res, nil
}

// classifyRung times the workload's classifier alone over the replay
// mix: ns and tuple comparisons per packet.
func (ls *ladderSpec) classifyRung() (ns, tuples float64) {
	c := core.NewClassifier(ls.prog)
	sport, dport := ls.ports()
	frames := [2]*ether.Frame{
		{Data: udpTemplate(ls.a, ls.b, sport, dport, largeFrame)},
		{Data: udpTemplate(ls.b, ls.a, dport, sport, smallFrame)},
	}
	m := mix{share: ls.largeShare}
	n := ladderFrames * 4
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fr := frames[1]
		if m.nextLarge() {
			fr = frames[0]
		}
		c.Classify(fr)
	}
	el := time.Since(t0)
	return float64(el) / float64(n), float64(c.TuplesCompared+c.NodeTests) / float64(n)
}

// tokenRung times Rether alone: an idle four-station ring on a bus
// passing the token for a stretch of virtual time, per token sent.
func tokenRung(virtual time.Duration) rungResult {
	w := newWire(mediumBus)
	ring := make([]packet.MAC, 4)
	for i := range ring {
		ring[i] = packet.MAC{2, 0, 0, 0, 1, byte(i + 1)}
	}
	top := &counter{onFrame: func() {}} // no data frames reach it
	layers := make([]*rether.Layer, len(ring))
	for i, mac := range ring {
		nic := ether.NewNIC(w.sched, mac, 0)
		w.attach(0, nic)
		layers[i] = rether.New(w.sched, mac, rether.Config{Ring: ring})
		stack.Chain(nic, top, layers[i])
	}
	for _, l := range layers {
		l.Start()
	}
	tokens := func() (n uint64) {
		for _, l := range layers {
			n += l.Stats.TokensSent
		}
		return n
	}
	_ = w.sched.RunUntil(virtual / 10) // errors only on Stop or an event limit; neither is set
	stop := w.startClock()
	n0 := tokens()
	_ = w.sched.RunUntil(virtual)
	return stop(float64(tokens() - n0))
}

// rungSet measures a set of rungs in interleaved rounds and keeps each
// rung's fastest round: what another tenant of the box adds to a round
// is never negative, so the minimum is the steadiest estimate, and
// interleaving lets a slow spell hit every rung alike.
type rungSet struct {
	names []string
	run   map[string]func() (rungResult, error)
	best  map[string]rungResult
}

func (rs *rungSet) add(name string, run func() (rungResult, error)) {
	if rs.run == nil {
		rs.run, rs.best = make(map[string]func() (rungResult, error)), make(map[string]rungResult)
	}
	rs.names = append(rs.names, name)
	rs.run[name] = run
}

func (rs *rungSet) measure(rounds int) error {
	for i := 0; i < rounds; i++ {
		for _, name := range rs.names {
			r, err := rs.run[name]()
			if err != nil {
				return fmt.Errorf("ladder rung %s: %w", name, err)
			}
			if b, ok := rs.best[name]; !ok || r.nsPerFrame < b.nsPerFrame {
				rs.best[name] = r
			}
		}
	}
	return nil
}
