package ether

import (
	"math/rand"
	"time"

	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// SwitchConfig parametrizes a store-and-forward switch.
type SwitchConfig struct {
	// BitsPerSecond is the per-port bandwidth (default 100 Mbps).
	BitsPerSecond float64
	// Propagation is the per-port cable propagation delay.
	Propagation time.Duration
	// Latency is the internal store-and-forward processing delay per
	// frame (default 5 µs).
	Latency time.Duration
	// QueueFrames bounds each output port's queue (default 64).
	QueueFrames int
	// FullDuplex selects full-duplex port links instead of the default
	// half-duplex segments. The paper's Figure 7 throughput knee comes
	// from RLL ACKs contending on half-duplex segments; full duplex is
	// provided for the ablation benchmark.
	FullDuplex bool
	// BitErrorRate is applied per port segment.
	BitErrorRate float64
	// Pool, when non-nil, recycles frames across the switch and all its
	// port segments (see BusConfig.Pool).
	Pool *FramePool
	// ID distinguishes switches in a multi-switch fabric; it is baked
	// into port MAC addresses so every port NIC in a 1000-node testbed
	// stays unique, and it names the switch in Routes. Single-switch
	// testbeds can leave it zero.
	ID int
	// Routes, when non-nil, is the forwarding plan the switch shares with
	// the rest of its fabric; nil gives the switch a plan of its own,
	// which knows only the hosts attached to it.
	Routes *Routes
}

func (c *SwitchConfig) fill() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 100e6
	}
	if c.Propagation <= 0 {
		c.Propagation = 500 * time.Nanosecond
	}
	if c.Latency <= 0 {
		c.Latency = 5 * time.Microsecond
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 64
	}
}

type switchPort struct {
	segment Medium
	nic     *NIC // the switch's own NIC on this segment
	// trunk marks an inter-switch port (ConnectTrunkChannel).
	trunk bool
	// blocked removes the port from forwarding (spanning-tree style):
	// ingress frames are discarded and floods skip it. Blocking is
	// topology state, not run state — Reset preserves it.
	blocked bool
	// failed marks a dead port (trunk failure injection): like blocked,
	// but fault state rather than spanning-tree state — Reset clears it.
	failed bool
}

// Routes is the forwarding plan the switches of one fabric share: the
// switch and port every host hangs off (the Node Table's attachment
// column, filled as hosts attach) and, for a host on another switch, the
// port toward that switch. A broadcast, a
// MAC no host owns, and a host the live forest does not reach are
// unknown and flood. A plan changes only while every switch is idle: at
// build, at reset and at a reconvergence barrier.
type Routes struct {
	hosts map[packet.MAC]hostPort
	// Toward reports the port switch from leaves by toward switch to, or
	// -1 when no live path joins them. Nil knows no other switch.
	Toward func(from, to int) int
}

type hostPort struct{ sw, port int32 }

// NewRoutes returns a plan that knows no host yet.
func NewRoutes() *Routes { return &Routes{hosts: make(map[packet.MAC]hostPort)} }

// port is the port switch sw unicasts a frame for dst out of, or false
// when dst is unknown there.
func (r *Routes) port(sw int, dst packet.MAC) (int, bool) {
	h, ok := r.hosts[dst]
	switch {
	case !ok:
		return 0, false
	case int(h.sw) == sw:
		return int(h.port), true
	case r.Toward == nil:
		return 0, false
	}
	out := r.Toward(sw, int(h.sw))
	return out, out >= 0
}

// Switch is a store-and-forward Ethernet switch that forwards by a plan
// (Routes) and learns nothing from the frames it sees. Each attached
// host gets a dedicated segment (half-duplex by default) between its NIC
// and an internal switch port NIC.
type Switch struct {
	cfg    SwitchConfig
	sched  *sim.Scheduler
	ports  []*switchPort
	nextID uint64
	// down marks a crashed switch (fault injection): every ingress frame
	// is discarded and the forwarding pipeline drops at fire time. Like
	// port failure it is run state — Reset clears it.
	down bool

	// The four outcome counters below partition IngressFrames exactly:
	// once the pipeline drains, IngressFrames == ForwardedFrames +
	// FloodedFrames + BlockedFrames + DroppedFrames (each ingress frame
	// lands in exactly one bucket).

	// IngressFrames counts every frame received on any port.
	IngressFrames uint64
	// FloodedFrames counts ingress frames flooded because the
	// destination was a broadcast or unknown (once per frame, however
	// many copies).
	FloodedFrames uint64
	// ForwardedFrames counts ingress frames unicast out a known port.
	ForwardedFrames uint64
	// BlockedFrames counts frames discarded at ingress: the ingress
	// port was blocked or failed, or the switch was down.
	BlockedFrames uint64
	// DroppedFrames counts frames discarded in the forwarding path at
	// fire time: egress blocked/failed/self, no eligible flood port, or
	// the switch went down while the frame sat in the pipeline.
	DroppedFrames uint64
}

// NewSwitch returns an empty switch; attach hosts with AttachHost.
func NewSwitch(sched *sim.Scheduler, cfg SwitchConfig) *Switch {
	cfg.fill()
	if cfg.Routes == nil {
		cfg.Routes = NewRoutes()
	}
	return &Switch{cfg: cfg, sched: sched}
}

// AttachHost connects a host NIC to a new switch port, enters the host's
// MAC into the switch's Routes, and returns the port index.
func (sw *Switch) AttachHost(host *NIC) int {
	var seg Medium
	if sw.cfg.FullDuplex {
		seg = NewLink(sw.sched, LinkConfig{
			BitsPerSecond: sw.cfg.BitsPerSecond,
			Propagation:   sw.cfg.Propagation,
			BitErrorRate:  sw.cfg.BitErrorRate,
			Pool:          sw.cfg.Pool,
		})
	} else {
		seg = NewSharedBus(sw.sched, BusConfig{
			BitsPerSecond: sw.cfg.BitsPerSecond,
			Propagation:   sw.cfg.Propagation,
			BitErrorRate:  sw.cfg.BitErrorRate,
			Pool:          sw.cfg.Pool,
		})
	}
	seg.Attach(host)
	idx := sw.addPort(seg, false)
	sw.cfg.Routes.hosts[host.MAC] = hostPort{int32(sw.cfg.ID), int32(idx)}
	return idx
}

// addPort creates the switch-side NIC on a segment and registers it as a
// port.
func (sw *Switch) addPort(seg Medium, trunk bool) int {
	idx := len(sw.ports)
	sw.nextID++
	// 0x02:0x53:0x57 (locally administered "SW") + switch ID + 16-bit
	// port counter: unique across a 1000-node multi-switch fabric. Port
	// NICs never source frames, but unique identities keep debugging and
	// pcap traces honest.
	portMAC := packet.MAC{0x02, 0x53, 0x57, byte(sw.cfg.ID), byte(sw.nextID >> 8), byte(sw.nextID)}
	pn := NewNIC(sw.sched, portMAC, sw.cfg.QueueFrames)
	pn.Promiscuous = true
	seg.Attach(pn)
	port := &switchPort{segment: seg, nic: pn, trunk: trunk}
	pn.SetRecv(func(fr *Frame) { sw.ingress(idx, fr) })
	sw.ports = append(sw.ports, port)
	return idx
}

// SetPortBlocked marks a port blocked (spanning-tree style): ingress
// frames are discarded and forwarding skips it. Blocking is part of the
// wiring and survives Reset.
func (sw *Switch) SetPortBlocked(idx int, blocked bool) {
	sw.ports[idx].blocked = blocked
}

// PortBlocked reports a port's spanning-tree block state.
func (sw *Switch) PortBlocked(idx int) bool { return sw.ports[idx].blocked }

// SetPortFailed marks a port dead (trunk failure injection). A failed
// port discards ingress frames like a blocked one and is skipped by
// forwarding; unlike blocking it is fault state and clears on Reset.
func (sw *Switch) SetPortFailed(idx int, failed bool) {
	sw.ports[idx].failed = failed
}

// SetDown crashes or restarts the whole switch. A down switch discards
// every ingress frame and drops anything still in its forwarding
// pipeline at fire time; frames already committed to egress queues
// drain (they left the forwarding plane before the crash).
func (sw *Switch) SetDown(down bool) { sw.down = down }

// Down reports whether the switch is crashed.
func (sw *Switch) Down() bool { return sw.down }

// ingress handles a frame received on port idx after full reassembly.
// The ingress frame is owned by the switch (the segment handed it to
// the port NIC and nothing else holds it): a unicast forward
// hands it onward without a copy, a flood clones per output port, and
// whatever is left is recycled.
func (sw *Switch) ingress(idx int, fr *Frame) {
	sw.IngressFrames++
	if sw.down || sw.ports[idx].blocked || sw.ports[idx].failed {
		// Spanning-tree / fault discard: nothing is forwarded from a
		// blocked, failed or crashed port.
		sw.BlockedFrames++
		sw.cfg.Pool.Put(fr)
		return
	}
	sw.sched.AfterCall(sw.cfg.Latency, "switch.forward", switchForward, sw, fr, idx)
}

func switchForward(recv, arg any, idx int) {
	recv.(*Switch).forward(idx, arg.(*Frame))
}

// forward fires after the store-and-forward latency. The forwarding
// decision is taken here, not at ingress: during the latency the switch
// can crash, a trunk can fail, and a reconvergence can re-plan the
// routes or re-block the planned out-port. A decision snapshotted at
// ingress would forward into a dead port.
func (sw *Switch) forward(idx int, fr *Frame) {
	if sw.down {
		sw.DroppedFrames++
		sw.cfg.Pool.Put(fr)
		return
	}
	dst := fr.Dst()
	if out, known := sw.cfg.Routes.port(sw.cfg.ID, dst); known && !dst.IsBroadcast() {
		p := sw.ports[out]
		if out == idx || p.blocked || p.failed {
			sw.DroppedFrames++
			sw.cfg.Pool.Put(fr)
			return
		}
		sw.ForwardedFrames++
		p.nic.Send(fr)
		return
	}
	sent := false
	for i, p := range sw.ports {
		if i == idx || p.blocked || p.failed {
			continue
		}
		sent = true
		p.nic.Send(sw.cfg.Pool.Clone(fr))
	}
	if sent {
		sw.FloodedFrames++
	} else {
		// Every egress was blocked/failed: the frame went nowhere
		// and must still be accounted for.
		sw.DroppedFrames++
	}
	sw.cfg.Pool.Put(fr)
}

// Reset clears the forwarding counters, fault state (down, failed ports)
// and every port's NIC and segment state. Port wiring (NICs, segments,
// MAC assignments), the Routes' host entries and spanning-tree blocking
// persist, so a reset switch forwards for the same topology without
// reconstruction; whoever re-plans the fabric's routes does so beside
// it. Callers reset the scheduler first, which cancels any in-flight
// forward/deliver events.
func (sw *Switch) Reset() {
	sw.IngressFrames = 0
	sw.FloodedFrames = 0
	sw.ForwardedFrames = 0
	sw.BlockedFrames = 0
	sw.DroppedFrames = 0
	sw.down = false
	for _, p := range sw.ports {
		p.failed = false
		p.nic.Reset()
		p.segment.reset()
	}
}

// NumPorts reports how many ports the switch has.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetPortRand pins the random source used by port idx's segment. The
// testbed derives one generator per segment from (seed, segment
// construction order) so random draws do not depend on event
// interleaving across shards. Segments fall back to their scheduler's
// generator when unset.
func (sw *Switch) SetPortRand(idx int, r *rand.Rand) {
	sw.ports[idx].segment.setRand(r)
}

// PortQueueDrops sums the egress-queue drops over the switch's ports
// (the port_queue_drops reading, for a caller that wants only that).
func (sw *Switch) PortQueueDrops() uint64 {
	var drops uint64
	for _, p := range sw.ports {
		drops += p.nic.Stats.QueueDrops
	}
	return drops
}

// Snapshot implements the uniform metrics hook: forwarding counters,
// port-aggregate drops, and a downlink utilization gauge (fraction of the
// aggregate switch→host capacity spent serializing frames so far).
func (sw *Switch) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("ingress_frames", sw.IngressFrames)
	sn.Counter("forwarded_frames", sw.ForwardedFrames)
	sn.Counter("flooded_frames", sw.FloodedFrames)
	sn.Counter("dropped_frames", sw.DroppedFrames)
	var drops, txBytes uint64
	var queued int
	for _, p := range sw.ports {
		drops += p.nic.Stats.QueueDrops
		txBytes += p.nic.Stats.TxBytes
		queued += len(p.nic.txq)
	}
	sn.Counter("port_queue_drops", drops)
	sn.Gauge("port_queued_frames", float64(queued))
	sn.Gauge("ports", float64(len(sw.ports)))
	var trunks, blocked, failed int
	for _, p := range sw.ports {
		if p.trunk {
			trunks++
		}
		if p.blocked {
			blocked++
		}
		if p.failed {
			failed++
		}
	}
	if trunks > 0 || blocked > 0 {
		sn.Counter("blocked_frames", sw.BlockedFrames)
		sn.Gauge("trunk_ports", float64(trunks))
		sn.Gauge("blocked_ports", float64(blocked))
		sn.Gauge("failed_ports", float64(failed))
	}
	now := sw.sched.Now().Seconds()
	if now > 0 && len(sw.ports) > 0 {
		busy := float64(txBytes*8) / sw.cfg.BitsPerSecond
		sn.Gauge("utilization", busy/(float64(len(sw.ports))*now))
	} else {
		sn.Gauge("utilization", 0)
	}
}

// Link is a full-duplex point-to-point medium between exactly two NICs:
// two wires, one per direction, on one scheduler. Each direction
// serializes independently; there are no collisions. Both directions
// draw bit errors from one generator, in txEnd order.
type Link struct {
	w    [2]wire // w[i] transmits from the i-th attached NIC to the other
	ends int     // NICs attached so far
}

var _ Medium = (*Link)(nil)

// NewLink returns an empty link; attach exactly two NICs.
func NewLink(sched *sim.Scheduler, cfg LinkConfig) *Link {
	cfg.fill()
	l := new(Link)
	for i := range l.w {
		l.w[i].cfg, l.w[i].sched = cfg, sched
	}
	return l
}

// Attach implements Medium. A link has exactly two ends: a third
// attachment is a wiring bug that would silently eat the NIC's traffic.
func (l *Link) Attach(n *NIC) {
	if l.ends == 2 {
		panic("ether: Link.Attach: a link has exactly two ends")
	}
	n.medium = l
	n.pool = l.w[0].cfg.Pool
	l.w[l.ends].src = n
	l.w[1-l.ends].dst = n
	l.ends++
}

// kick implements Medium. A half-wired link transmits nothing.
func (l *Link) kick(n *NIC) {
	if l.ends < 2 {
		return
	}
	if n == l.w[0].src {
		l.w[0].pump()
	} else {
		l.w[1].pump()
	}
}

func (l *Link) reset() {
	l.w[0].reset()
	l.w[1].reset()
}

func (l *Link) setRand(r *rand.Rand) {
	l.w[0].setRand(r)
	l.w[1].setRand(r)
}
