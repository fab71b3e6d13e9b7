package virtualwire

import (
	"fmt"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/tcp"
)

// Scale workloads for generated topologies: Incast (N senders converge
// on one receiver — the classic many-to-one switch-buffer stress) and
// ManyFlow (hundreds of independent TCP transfers spread over the
// fabric). Both derive their host sets from the testbed so campaigns can
// say "incast over 500 hosts" without naming 500 nodes, and both are bulk
// flows of a fixed size, each one connect-send-close from its source to a
// listener that counts what arrives: they differ only in how many flows
// share a listener.

// flowRecords hold the flow workloads' state, one record per flow and
// per listener, and are kept across Reset: Reset rewinds them in creation
// order, so the next run's n-th flow takes this run's n-th record. A
// record's TCP and scheduler callbacks are bound once, when it is made,
// so a flow workload on a reused testbed allocates only its handle. A
// workload holds index ranges into these arrays, never a slice of them
// or a record pointer, so a later workload's growth cannot strand it.
// Each record has one writer while a run lasts: a flow record its
// source's shard, a listener record and its receive slots their
// destination's shard.
type flowRecords struct {
	flows         []*flowRec
	lsts          []*flowListener
	nflows, nlsts int // records in use this run
}

// flowRec is one flow: connect from src:srcPort to dst:dstPort, send
// payload, close. failed counts its connect errors and aborts.
type flowRec struct {
	src              *Node
	dst              packet.IP
	srcPort, dstPort uint16
	payload          []byte
	failed           int
	conn             *tcp.Conn

	connectFn, failFn, connectedFn func() // bound once
}

// flowListener is one counting listener, for any number of connects to
// it; every connection it accepts gets a receive slot of its own.
type flowListener struct {
	bytes                int // per-flow transfer size: a flow completes at this many bytes
	delivered, completed int
	lst                  *tcp.Listener
	recvs                []*flowRecv
	accepted             int // receive slots in use this run

	acceptFn func(*tcp.Conn) // bound once
}

// flowRecv is the receive side of one accepted connection.
type flowRecv struct {
	l    *flowListener // fixed when the slot is made
	conn *tcp.Conn
	got  int

	dataFn  func([]byte) // bound once
	closeFn func()
}

// poisonReleasedFlows is written by tests only: while it is set, Reset
// overwrites every flow record, receive slot and listener it takes back
// with values no run writes, so what keeps reading one, or a start that
// fails to set one afresh, shows in the next run's bytes or panics.
var poisonReleasedFlows bool

// flowPoison is what a poisoned counter holds.
const flowPoison = -1 << 40

func (rs *flowRecords) flow() *flowRec {
	if rs.nflows == len(rs.flows) {
		r := new(flowRec)
		r.connectFn, r.failFn, r.connectedFn = r.connect, r.fail, r.connected
		rs.flows = append(rs.flows, r)
	}
	rs.nflows++
	return rs.flows[rs.nflows-1]
}

func (rs *flowRecords) listener() *flowListener {
	if rs.nlsts == len(rs.lsts) {
		l := new(flowListener)
		l.acceptFn = l.accept
		rs.lsts = append(rs.lsts, l)
	}
	rs.nlsts++
	return rs.lsts[rs.nlsts-1]
}

// rewind takes back every record of the run, after the TCP stacks have
// recycled the listeners and connections they point at.
func (rs *flowRecords) rewind() {
	if poisonReleasedFlows {
		for _, r := range rs.flows[:rs.nflows] {
			r.src, r.conn, r.payload = nil, nil, nil
			r.srcPort, r.dstPort, r.failed = 0xdead, 0xdead, flowPoison
		}
		for _, l := range rs.lsts[:rs.nlsts] {
			l.lst.OnAccept = func(*tcp.Conn) { panic("virtualwire: a released listener accepted a connection") }
			l.lst.Port = 0xdead
			for _, rv := range l.recvs[:l.accepted] {
				rv.conn, rv.got = nil, flowPoison
			}
			l.lst, l.bytes, l.delivered, l.completed, l.accepted = nil, flowPoison, flowPoison, flowPoison, flowPoison
		}
	}
	rs.nflows, rs.nlsts = 0, 0
}

// flowSpan is a flow workload's share of the testbed's flow records: the
// index ranges its start took, read while its run lasts, and the totals
// detach kept of them when Reset takes them back.
type flowSpan struct {
	recs        *flowRecords // nil before start and after detach
	flows, lsts [2]int
	kept        flowTotals
}

type flowTotals struct{ delivered, completed, failed int }

// begin opens the span at the records' current end; it runs at the
// barrier, as listen and connect do.
func (sp *flowSpan) begin(rs *flowRecords) {
	*sp = flowSpan{recs: rs, flows: [2]int{rs.nflows, rs.nflows}, lsts: [2]int{rs.nlsts, rs.nlsts}}
}

// listen installs a counting listener for flows of bytes on dst:port.
func (sp *flowSpan) listen(dst *Node, port uint16, bytes int) error {
	lst, err := dst.tcp.Listen(port)
	if err != nil {
		return err
	}
	l := sp.recs.listener()
	sp.lsts[1]++
	l.bytes, l.delivered, l.completed, l.lst, l.accepted = bytes, 0, 0, lst, 0
	lst.OnAccept = l.acceptFn
	return nil
}

// connect adds one flow from src:srcPort to dst:dstPort, where a listener
// of this span waits: an event at the workload's start on the source's
// shard that schedules the connect delay later.
func (sp *flowSpan) connect(src, dst *Node, srcPort, dstPort uint16, payload []byte, at, delay time.Duration) {
	r := sp.recs.flow()
	sp.flows[1]++
	r.src, r.dst, r.srcPort, r.dstPort, r.payload, r.failed, r.conn = src, dst.ip, srcPort, dstPort, payload, 0, nil
	sched := src.host.Sched
	sched.AtCall(at, "vw.workload", flowStart, r, sched, int(delay))
}

// flowStart is a flow's event at the workload's start: it schedules the
// flow's (recv) connect delay (n) later on the source's scheduler (arg).
func flowStart(recv, arg any, delay int) {
	arg.(*sim.Scheduler).After(time.Duration(delay), "flow.connect", recv.(*flowRec).connectFn)
}

// connect touches only source-local TCP state and the flow's own record.
func (r *flowRec) connect() {
	conn, err := r.src.tcp.Connect(r.srcPort, r.dst, r.dstPort)
	if err != nil {
		r.failed++
		return
	}
	r.conn = conn
	conn.OnFail = r.failFn
	conn.OnConnected = r.connectedFn
}

func (r *flowRec) fail() { r.failed++ }

func (r *flowRec) connected() {
	r.conn.Send(r.payload)
	r.conn.Close()
}

// accept gives c the listener's next receive slot, made on first use.
func (l *flowListener) accept(c *tcp.Conn) {
	if l.accepted == len(l.recvs) {
		rv := &flowRecv{l: l}
		rv.dataFn, rv.closeFn = rv.data, rv.close
		l.recvs = append(l.recvs, rv)
	}
	rv := l.recvs[l.accepted]
	l.accepted++
	rv.conn, rv.got = c, 0
	c.OnData, c.OnClose = rv.dataFn, rv.closeFn
}

func (rv *flowRecv) data(d []byte) {
	l := rv.l
	l.delivered += len(d)
	before := rv.got
	rv.got += len(d)
	if before < l.bytes && rv.got >= l.bytes {
		l.completed++
	}
}

func (rv *flowRecv) close() { rv.conn.Close() }

// totals sums the span's records, or returns what detach kept of them.
func (sp *flowSpan) totals() flowTotals {
	if sp.recs == nil {
		return sp.kept
	}
	var t flowTotals
	for _, r := range sp.recs.flows[sp.flows[0]:sp.flows[1]] {
		t.failed += r.failed
	}
	for _, l := range sp.recs.lsts[sp.lsts[0]:sp.lsts[1]] {
		t.delivered += l.delivered
		t.completed += l.completed
	}
	return t
}

// detach keeps the span's totals and lets go of its records, which the
// testbed's Reset takes back for its next run.
func (sp *flowSpan) detach() {
	sp.kept = sp.totals()
	sp.recs = nil
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
	senders []string // IncastConfig.Senders, copied; nil for the default set
	count   int      // senders targeted
	span    flowSpan
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
		w.count = len(w.senders)
	} else {
		// Every other host, in declaration order: hosts declared later
		// come after them, so start finds the same ones again.
		w.count = len(tb.nodes) - 1
		if cfg.Count > 0 && cfg.Count < w.count {
			w.count = cfg.Count
		}
		if w.count == 0 {
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
	w.span.begin(&tb.flowRecs)
	if err := w.span.listen(to, w.cfg.DstPort, w.cfg.Bytes); err != nil {
		return err
	}
	payload := tb.zeroPayload(w.cfg.Bytes)
	connect := func(i int, src *Node) {
		w.span.connect(src, to, w.cfg.SrcPort, w.cfg.DstPort, payload, at, time.Duration(i)*w.cfg.Stagger)
	}
	if w.senders != nil {
		for i, name := range w.senders {
			connect(i, tb.byName[name])
		}
		return nil
	}
	i := 0
	for _, n := range tb.nodes {
		if i == w.count {
			break
		}
		if n != to {
			connect(i, n)
			i++
		}
	}
	return nil
}

func (w *Incast) detach() { w.span.detach() }

// Senders reports how many senders the workload targets.
func (w *Incast) Senders() int { return w.count }

// Completed reports senders whose full transfer arrived at the receiver.
func (w *Incast) Completed() int { return w.span.totals().completed }

// DeliveredBytes reports total application bytes received.
func (w *Incast) DeliveredBytes() int { return w.span.totals().delivered }

// Failed reports connections that failed to establish or aborted.
func (w *Incast) Failed() int { return w.span.totals().failed }

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
	// The last flow's port must not pass 65535.
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
	span  flowSpan
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
	if int(w.conf.BasePort)+w.flows-1 > 0xFFFF {
		return nil, rejectf("dst_port", "manyflow's %d flows from port %d pass port 65535", w.flows, w.conf.BasePort)
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

// start selects pairs (from PairSeed) and installs every flow's own
// listener at the barrier; each flow gets one event on its source's
// shard that schedules the staggered connect locally.
func (w *ManyFlow) start(tb *Testbed, at time.Duration) error {
	w.span.begin(&tb.flowRecs)
	payload := tb.zeroPayload(w.conf.Bytes)
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
		if err := w.span.listen(dst, port, w.conf.Bytes); err != nil {
			return err
		}
		w.span.connect(src, dst, port, port, payload, at, time.Duration(f)*w.conf.Stagger)
	}
	return nil
}

func (w *ManyFlow) detach() { w.span.detach() }

// Flows reports the number of staged flows.
func (w *ManyFlow) Flows() int { return w.flows }

// Completed reports flows whose full transfer arrived.
func (w *ManyFlow) Completed() int { return w.span.totals().completed }

// DeliveredBytes reports total application bytes received across flows.
func (w *ManyFlow) DeliveredBytes() int { return w.span.totals().delivered }

// Failed reports flows that failed to establish or aborted.
func (w *ManyFlow) Failed() int { return w.span.totals().failed }
