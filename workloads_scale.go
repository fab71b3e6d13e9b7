package virtualwire

import (
	"fmt"
	"math/rand"
	"time"

	"virtualwire/internal/tcp"
)

// Scale workloads for generated topologies: Incast (N senders converge
// on one receiver — the classic many-to-one switch-buffer stress) and
// ManyFlow (hundreds of independent TCP transfers spread over the
// fabric). Both derive their host sets from the testbed so campaigns can
// say "incast over 500 hosts" without naming 500 nodes.

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
	cfg       IncastConfig
	senders   []string
	delivered int
	completed int
	// senderFail holds one failure counter per sender: each sender's
	// shard writes only its own slot (a shared counter would be a
	// cross-shard race).
	senderFail []int
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
		return nil, fmt.Errorf("virtualwire: unknown host %q", cfg.To)
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
	w := &Incast{cfg: cfg}
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

// setupReceiver installs the listener and allocates the per-sender
// failure slots.
func (w *Incast) setupReceiver(tb *Testbed) error {
	to := tb.byName[w.cfg.To]
	lst, err := to.tcp.Listen(w.cfg.DstPort)
	if err != nil {
		return err
	}
	lst.OnAccept = func(c *tcp.Conn) {
		got := 0
		c.OnData = func(d []byte) {
			w.delivered += len(d)
			before := got
			got += len(d)
			if before < w.cfg.Bytes && got >= w.cfg.Bytes {
				w.completed++
			}
		}
		c.OnClose = func() { c.Close() }
	}
	w.senderFail = make([]int, len(w.senders))
	return nil
}

// connectFunc returns sender i's connect-and-send closure. It touches
// only sender-local TCP state and the sender's own failure slot; the
// payload is cut here, while the workload is being started.
func (w *Incast) connectFunc(i int, from, to *Node) func() {
	payload := from.tb.zeroPayload(w.cfg.Bytes)
	return func() {
		conn, err := from.tcp.Connect(w.cfg.SrcPort, to.host.IP, w.cfg.DstPort)
		if err != nil {
			w.senderFail[i]++
			return
		}
		conn.OnFail = func() { w.senderFail[i]++ }
		conn.OnConnected = func() {
			conn.Send(payload)
			conn.Close()
		}
	}
}

// parts decomposes the incast: the receiver's listener is installed at
// the barrier; each sender gets one part on its own shard that schedules
// the staggered connect locally.
func (w *Incast) parts(tb *Testbed) ([]workloadPart, error) {
	if err := w.setupReceiver(tb); err != nil {
		return nil, err
	}
	to := tb.byName[w.cfg.To]
	parts := make([]workloadPart, 0, len(w.senders))
	for i, name := range w.senders {
		from := tb.byName[name]
		delay := time.Duration(i) * w.cfg.Stagger
		connect := w.connectFunc(i, from, to)
		sched := from.host.Sched
		parts = append(parts, workloadPart{node: from, run: func() {
			sched.After(delay, "incast.connect", connect)
		}})
	}
	return parts, nil
}

// Senders reports how many senders the workload targets.
func (w *Incast) Senders() int { return len(w.senders) }

// Completed reports senders whose full transfer arrived at the receiver.
func (w *Incast) Completed() int { return w.completed }

// DeliveredBytes reports total application bytes received.
func (w *Incast) DeliveredBytes() int { return w.delivered }

// Failed reports connections that failed to establish or aborted.
func (w *Incast) Failed() int {
	n := 0
	for _, f := range w.senderFail {
		n += f
	}
	return n
}

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
	hosts []string
	flows int
	// Per-flow result slots: delivered/completed are written by the
	// flow's destination shard, failed by its source shard. Distinct
	// slots keep every write single-owner.
	flowDelivered []int
	flowCompleted []int
	flowFailed    []int
}

// AddManyFlow stages a mesh of independent point-to-point TCP flows over
// random host pairs.
func (tb *Testbed) AddManyFlow(cfg ManyFlowConfig) (*ManyFlow, error) {
	w := &ManyFlow{conf: cfg}
	if len(cfg.Hosts) > 0 {
		for _, name := range cfg.Hosts {
			if _, ok := tb.byName[name]; !ok {
				return nil, fmt.Errorf("virtualwire: unknown host %q", name)
			}
		}
		w.hosts = append([]string(nil), cfg.Hosts...)
	} else {
		for _, n := range tb.nodes {
			w.hosts = append(w.hosts, n.name)
		}
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
	tb.workloads = append(tb.workloads, w)
	return w, nil
}

func (w *ManyFlow) allocSlots() {
	w.flowDelivered = make([]int, w.flows)
	w.flowCompleted = make([]int, w.flows)
	w.flowFailed = make([]int, w.flows)
}

// setupFlowListener installs flow f's listener on its destination; the
// accept callbacks write only flow f's destination-owned slots.
func (w *ManyFlow) setupFlowListener(f int, dst *Node, port uint16) error {
	lst, err := dst.tcp.Listen(port)
	if err != nil {
		return err
	}
	lst.OnAccept = func(c *tcp.Conn) {
		got := 0
		c.OnData = func(d []byte) {
			w.flowDelivered[f] += len(d)
			before := got
			got += len(d)
			if before < w.conf.Bytes && got >= w.conf.Bytes {
				w.flowCompleted[f]++
			}
		}
		c.OnClose = func() { c.Close() }
	}
	return nil
}

// connectFunc returns flow f's connect-and-send closure, touching only
// source-local TCP state and flow f's failure slot; the payload is cut
// here, while the workload is being started.
func (w *ManyFlow) connectFunc(f int, src, dst *Node, port uint16) func() {
	payload := src.tb.zeroPayload(w.conf.Bytes)
	return func() {
		conn, err := src.tcp.Connect(port, dst.host.IP, port)
		if err != nil {
			w.flowFailed[f]++
			return
		}
		conn.OnFail = func() { w.flowFailed[f]++ }
		conn.OnConnected = func() {
			conn.Send(payload)
			conn.Close()
		}
	}
}

// parts decomposes the mesh: pair selection (from PairSeed) and every
// listener registration happen at the barrier; each flow gets one part
// on its source's shard that schedules the staggered connect locally.
func (w *ManyFlow) parts(tb *Testbed) ([]workloadPart, error) {
	w.allocSlots()
	rng := rand.New(rand.NewSource(w.conf.PairSeed))
	n := len(w.hosts)
	parts := make([]workloadPart, 0, w.flows)
	for f := 0; f < w.flows; f++ {
		si := rng.Intn(n)
		di := rng.Intn(n - 1)
		if di >= si {
			di++
		}
		src := tb.byName[w.hosts[si]]
		dst := tb.byName[w.hosts[di]]
		port := w.conf.BasePort + uint16(f)
		if err := w.setupFlowListener(f, dst, port); err != nil {
			return nil, err
		}
		delay := time.Duration(f) * w.conf.Stagger
		connect := w.connectFunc(f, src, dst, port)
		sched := src.host.Sched
		parts = append(parts, workloadPart{node: src, run: func() {
			sched.After(delay, "manyflow.connect", connect)
		}})
	}
	return parts, nil
}

// Flows reports the number of staged flows.
func (w *ManyFlow) Flows() int { return w.flows }

// Completed reports flows whose full transfer arrived.
func (w *ManyFlow) Completed() int { return sumSlots(w.flowCompleted) }

// DeliveredBytes reports total application bytes received across flows.
func (w *ManyFlow) DeliveredBytes() int { return sumSlots(w.flowDelivered) }

// Failed reports flows that failed to establish or aborted.
func (w *ManyFlow) Failed() int { return sumSlots(w.flowFailed) }

func sumSlots(slots []int) int {
	n := 0
	for _, v := range slots {
		n += v
	}
	return n
}
