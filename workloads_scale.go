package virtualwire

import (
	"fmt"
	"time"

	"virtualwire/internal/sim"
	"virtualwire/internal/tcp"
)

// Scale workloads for generated topologies: Incast (N senders converge
// on one receiver — the classic many-to-one switch-buffer stress) and
// ManyFlow (hundreds of independent TCP transfers spread over the
// fabric). Both derive their host sets from the testbed so campaigns can
// say "incast over 500 hosts" without naming 500 nodes, and both are one
// flowSet: they differ only in how many flows share a listener.

// flowSet is the TCP core of Incast and ManyFlow: bulk flows of a fixed
// size, each one connect-send-close from its source to a listener that
// counts what arrives. Result slots are single-owner so shards never
// share a counter: a listener's delivered/completed are written by its
// destination's shard, a flow's failed slot by its source's shard.
type flowSet struct {
	bytes     int // per-flow transfer size
	listeners []flowListener
	failed    []int // per flow, in connect order
}

type flowListener struct{ delivered, completed int }

// begin starts a run's flow set, sized for its flows and listeners. It
// runs at the barrier, as listen and connect do.
func (s *flowSet) begin(flows, listeners int) {
	s.listeners = make([]flowListener, 0, listeners)
	s.failed = make([]int, 0, flows)
}

// listen installs a counting listener on dst:port, for any number of
// connects to it.
func (s *flowSet) listen(dst *Node, port uint16) error {
	lst, err := dst.tcp.Listen(port)
	if err != nil {
		return err
	}
	li := len(s.listeners)
	s.listeners = append(s.listeners, flowListener{})
	lst.OnAccept = func(c *tcp.Conn) {
		got := 0
		c.OnData = func(d []byte) {
			l := &s.listeners[li]
			l.delivered += len(d)
			before := got
			got += len(d)
			if before < s.bytes && got >= s.bytes {
				l.completed++
			}
		}
		c.OnClose = func() { c.Close() }
	}
	return nil
}

// connect adds one flow from src:srcPort to dst:dstPort, where a listener
// of this set waits: an event at the workload's start on the source's
// shard that schedules the connect delay later. The connect closure
// touches only source-local TCP state and the flow's own failure slot;
// the payload is cut here, while the workload is being started.
func (s *flowSet) connect(src, dst *Node, srcPort, dstPort uint16, at, delay time.Duration) {
	f := len(s.failed)
	s.failed = append(s.failed, 0)
	payload := src.tb.zeroPayload(s.bytes)
	connect := func() {
		conn, err := src.tcp.Connect(srcPort, dst.ip, dstPort)
		if err != nil {
			s.failed[f]++
			return
		}
		conn.OnFail = func() { s.failed[f]++ }
		conn.OnConnected = func() {
			conn.Send(payload)
			conn.Close()
		}
	}
	sched := src.host.Sched
	sched.AtCall(at, "vw.workload", flowStart, connect, sched, int(delay))
}

// flowStart is a flow's event at the workload's start: it schedules the
// connect (recv) delay (n) later on the source's scheduler (arg).
func flowStart(recv, arg any, delay int) {
	arg.(*sim.Scheduler).After(time.Duration(delay), "flow.connect", recv.(func()))
}

func (s *flowSet) deliveredBytes() (n int) {
	for i := range s.listeners {
		n += s.listeners[i].delivered
	}
	return n
}

func (s *flowSet) completedFlows() (n int) {
	for i := range s.listeners {
		n += s.listeners[i].completed
	}
	return n
}

func (s *flowSet) failedFlows() (n int) {
	for _, v := range s.failed {
		n += v
	}
	return n
}

// IncastConfig describes an N-to-1 TCP convergence workload.
type IncastConfig struct {
	// To names the receiver; default is the first host.
	To string
	// Senders names the sending hosts explicitly; empty means every
	// other host (capped by Count).
	Senders []string
	// Count caps the number of senders drawn from the default all-hosts
	// set (0 = no cap). Ignored when Senders is explicit.
	Count int
	// DstPort is the receiver's listening port (default 0x5000).
	DstPort uint16
	// SrcPort is every sender's source port (default 0x6000; senders are
	// distinct hosts, so the shared port is unambiguous).
	SrcPort uint16
	// Bytes is the per-sender transfer size (default 64 KiB).
	Bytes int
	// Stagger spaces the connection attempts (default 100 µs) so a
	// 500-way incast does not serialize every SYN into one burst.
	Stagger time.Duration
}

// Incast is a running N-to-1 workload handle.
type Incast struct {
	cfg     IncastConfig
	senders []string
	set     flowSet
}

// AddIncast stages an N-to-1 TCP incast workload.
func (tb *Testbed) AddIncast(cfg IncastConfig) (*Incast, error) {
	if cfg.To == "" {
		if len(tb.nodes) == 0 {
			return nil, fmt.Errorf("virtualwire: incast needs hosts")
		}
		cfg.To = tb.nodes[0].name
	}
	if _, ok := tb.byName[cfg.To]; !ok {
		return nil, rejectf("to", "unknown host %q", cfg.To)
	}
	if cfg.DstPort == 0 {
		cfg.DstPort = 0x5000
	}
	if cfg.SrcPort == 0 {
		cfg.SrcPort = 0x6000
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 64 << 10
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = 100 * time.Microsecond
	}
	w := &Incast{cfg: cfg, set: flowSet{bytes: cfg.Bytes}}
	if len(cfg.Senders) > 0 {
		for _, name := range cfg.Senders {
			if _, ok := tb.byName[name]; !ok {
				return nil, fmt.Errorf("virtualwire: unknown host %q", name)
			}
			if name == cfg.To {
				return nil, fmt.Errorf("virtualwire: incast sender %q is the receiver", name)
			}
		}
		w.senders = append([]string(nil), cfg.Senders...)
	} else {
		for _, n := range tb.nodes {
			if n.name == cfg.To {
				continue
			}
			w.senders = append(w.senders, n.name)
			if cfg.Count > 0 && len(w.senders) >= cfg.Count {
				break
			}
		}
		if len(w.senders) == 0 {
			return nil, fmt.Errorf("virtualwire: incast needs at least one sender")
		}
	}
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

// start installs the receiver's one listener at the barrier; each sender
// gets one event on its own shard that schedules the staggered connect
// locally.
func (w *Incast) start(tb *Testbed, at time.Duration) error {
	to := tb.byName[w.cfg.To]
	w.set.begin(len(w.senders), 1)
	if err := w.set.listen(to, w.cfg.DstPort); err != nil {
		return err
	}
	for i, name := range w.senders {
		w.set.connect(tb.byName[name], to, w.cfg.SrcPort, w.cfg.DstPort,
			at, time.Duration(i)*w.cfg.Stagger)
	}
	return nil
}

// Senders reports how many senders the workload targets.
func (w *Incast) Senders() int { return len(w.senders) }

// Completed reports senders whose full transfer arrived at the receiver.
func (w *Incast) Completed() int { return w.set.completedFlows() }

// DeliveredBytes reports total application bytes received.
func (w *Incast) DeliveredBytes() int { return w.set.deliveredBytes() }

// Failed reports connections that failed to establish or aborted.
func (w *Incast) Failed() int { return w.set.failedFlows() }

// ManyFlowConfig describes a fabric-wide mesh of independent TCP flows.
type ManyFlowConfig struct {
	// Hosts names the participating hosts; empty means all hosts.
	Hosts []string
	// Flows is the number of random (src, dst) pairs (default one per
	// host, capped at 4096).
	Flows int
	// BasePort is the first destination port; flow f listens on
	// BasePort+f on its destination and connects from BasePort+f on its
	// source, keeping every flow's demux key unique (default 0x7000).
	BasePort uint16
	// Bytes is the per-flow transfer size (default 16 KiB).
	Bytes int
	// PairSeed drives the pair selection (default 1). Like topology
	// wiring, pair choice is deliberately independent of the run seed so
	// reset and fresh testbeds replay the same flow matrix.
	PairSeed int64
	// Stagger spaces the connection attempts (default 50 µs).
	Stagger time.Duration
}

// ManyFlow is a running flow-mesh workload handle.
type ManyFlow struct {
	conf  ManyFlowConfig
	hosts []*Node // read-only; without ManyFlowConfig.Hosts, the testbed's own list
	flows int
	set   flowSet
}

// AddManyFlow stages a mesh of independent point-to-point TCP flows over
// random host pairs.
func (tb *Testbed) AddManyFlow(cfg ManyFlowConfig) (*ManyFlow, error) {
	w := &ManyFlow{conf: cfg}
	if len(cfg.Hosts) > 0 {
		w.hosts = make([]*Node, len(cfg.Hosts))
		for i, name := range cfg.Hosts {
			n, ok := tb.byName[name]
			if !ok {
				return nil, fmt.Errorf("virtualwire: unknown host %q", name)
			}
			w.hosts[i] = n
		}
	} else {
		w.hosts = tb.nodes[:len(tb.nodes):len(tb.nodes)]
	}
	if len(w.hosts) < 2 {
		return nil, fmt.Errorf("virtualwire: manyflow needs at least two hosts")
	}
	w.flows = cfg.Flows
	if w.flows <= 0 {
		w.flows = len(w.hosts)
	}
	if w.flows > 4096 {
		w.flows = 4096
	}
	if w.conf.BasePort == 0 {
		w.conf.BasePort = 0x7000
	}
	if w.conf.Bytes <= 0 {
		w.conf.Bytes = 16 << 10
	}
	if w.conf.PairSeed == 0 {
		w.conf.PairSeed = 1
	}
	if w.conf.Stagger <= 0 {
		w.conf.Stagger = 50 * time.Microsecond
	}
	w.set = flowSet{bytes: w.conf.Bytes}
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

// start selects pairs (from PairSeed) and installs every flow's own
// listener at the barrier; each flow gets one event on its source's
// shard that schedules the staggered connect locally.
func (w *ManyFlow) start(tb *Testbed, at time.Duration) error {
	w.set.begin(w.flows, w.flows)
	rng := tb.pairRand(w.conf.PairSeed)
	n := len(w.hosts)
	for f := 0; f < w.flows; f++ {
		si := rng.Intn(n)
		di := rng.Intn(n - 1)
		if di >= si {
			di++
		}
		src, dst := w.hosts[si], w.hosts[di]
		port := w.conf.BasePort + uint16(f)
		if err := w.set.listen(dst, port); err != nil {
			return err
		}
		w.set.connect(src, dst, port, port, at, time.Duration(f)*w.conf.Stagger)
	}
	return nil
}

// Flows reports the number of staged flows.
func (w *ManyFlow) Flows() int { return w.flows }

// Completed reports flows whose full transfer arrived.
func (w *ManyFlow) Completed() int { return w.set.completedFlows() }

// DeliveredBytes reports total application bytes received across flows.
func (w *ManyFlow) DeliveredBytes() int { return w.set.deliveredBytes() }

// Failed reports flows that failed to establish or aborted.
func (w *ManyFlow) Failed() int { return w.set.failedFlows() }
