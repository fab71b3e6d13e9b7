// Package virtualwire is a reproduction of "VirtualWire: A Fault
// Injection and Analysis Tool for Network Protocols" (De, Neogi, Chiueh;
// ICDCS 2003): a distributed network fault injection and analysis system,
// together with the complete simulated testbed it runs on.
//
// A Testbed assembles hosts on a simulated Ethernet (switch or shared
// bus), inserts a VirtualWire engine between each host's link layer and
// IP stack, optionally adds the Reliable Link Layer and the Rether
// token-passing protocol, compiles a Fault Specification Language script
// into the six execution tables, distributes them over the control plane,
// runs the scenario against real protocol traffic (a from-scratch TCP,
// UDP, Rether), and reports injected faults and flagged specification
// violations.
//
// Minimal use:
//
//	tb, _ := virtualwire.New(virtualwire.Config{})
//	tb.AddNodesFromScript(script)    // hosts from the NODE_TABLE
//	tb.LoadScript(script)            // CompileScript + LoadCompiled
//	tb.AddTCPBulk(virtualwire.TCPBulkConfig{From: "node1", To: "node2",
//	    SrcPort: 0x6000, DstPort: 0x4000, Bytes: 1 << 20})
//	report, _ := tb.Run(30 * time.Second)
//	fmt.Println(report.Result, report.Passed)
package virtualwire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/rether"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
	"virtualwire/internal/trace"
)

// Aliases re-exported so the public API is self-contained.
type (
	// Result is the scenario outcome (explicit STOP, inactivity
	// timeout, flagged errors).
	Result = core.Result
	// ErrorReport is one FLAG_ERR occurrence.
	ErrorReport = core.ErrorReport
	// CostModel charges virtual processing time per packet in the
	// engines (see the Figure 8 experiment).
	CostModel = core.CostModel
	// TraceEntry is one captured frame.
	TraceEntry = trace.Entry
)

// Removed in this release: the deprecated `Report` alias and
// `Testbed.Summary()`. Runs return a RunReport; render it with
// RunReport.Text (the structured replacement for Summary) or marshal it
// with RunReport.WriteJSON.

// MediumKind selects the testbed wiring.
type MediumKind int

// Medium kinds.
const (
	// MediumSwitch is a store-and-forward switch with half-duplex port
	// segments (the paper's 100 Mbps switch).
	MediumSwitch MediumKind = iota + 1
	// MediumBus is a single CSMA/CD shared bus (Rether's natural home).
	MediumBus
	// MediumSwitchFullDuplex uses full-duplex ports (ablation).
	MediumSwitchFullDuplex
)

// ParseMedium resolves a medium name ("switch", "bus", "fdswitch"); ""
// is the zero value, which New defaults to MediumSwitch.
func ParseMedium(s string) (MediumKind, error) {
	switch s {
	case "":
		return 0, nil
	case "switch":
		return MediumSwitch, nil
	case "bus":
		return MediumBus, nil
	case "fdswitch":
		return MediumSwitchFullDuplex, nil
	}
	return 0, fmt.Errorf("unknown medium %q (want switch, bus or fdswitch)", s)
}

// Config parametrizes a testbed.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Medium selects switch (default) or shared bus wiring.
	Medium MediumKind
	// BitsPerSecond is the link bandwidth (default 100 Mbps).
	BitsPerSecond float64
	// Propagation is the per-segment propagation delay (default 500ns).
	Propagation time.Duration
	// BitErrorRate is the per-bit corruption probability on the wire.
	BitErrorRate float64
	// RLL inserts the Reliable Link Layer under every engine.
	RLL bool
	// RLLWindow is the RLL go-back-N window (default 32).
	RLLWindow int
	// Cost is the engine processing-cost model (zero = free). It also
	// picks the classifier: engines run the paper's linear scan exactly
	// when Cost.PerTuple charges for it, and the script's compiled
	// dispatch tree otherwise (docs/PERFORMANCE.md, "Classifier").
	Cost CostModel
	// Topology, when non-nil with a Kind other than TopoSingle, replaces
	// the single switch with a generated multi-switch fabric (star,
	// ring, fat-tree, random) joined by trunk links — the 1000-node
	// scale substrate. Requires a switch Medium. See docs/TOPOLOGIES.md.
	Topology *TopologySpec
	// TopologyFaults schedules deterministic virtual-time fabric faults
	// — trunk failure/restore/flap, per-trunk latency/BER degradation,
	// switch crash/restart — against the generated Topology. A tree
	// trunk's death triggers STP-style reconvergence after the spec's
	// ReconvergeDelay: the best redundant trunk unblocks (deterministic
	// tie-break by wiring order) and every switch's routes are re-planned
	// over the new forest. Requires a multi-switch Topology. See
	// docs/TOPOLOGIES.md, "Fault axes".
	TopologyFaults []TopologyFaultSpec
	// Shards is how many shards the conservative-windowed engine — the
	// only engine — partitions the fabric into; each runs its own event
	// queue, synchronized at trunk-lookahead window barriers. Output is
	// byte-identical at any shard count. 0 (the default) and 1 are the
	// same run: one shard, inline on the calling goroutine. ShardsAuto
	// picks min(GOMAXPROCS, edge switches); explicit counts are clamped
	// to the fabric size, so a bus or a single switch is always one
	// shard. See docs/PERFORMANCE.md, "Sharded execution".
	Shards int
	// TraceCapacity, when positive, records a tcpdump-like trace of up
	// to this many frames (tap directly above each NIC).
	TraceCapacity int
	// LaunchDeadline bounds the launch phase (default
	// core.DefaultLaunchDeadline): if any node stays silent past it, the
	// run terminates with Result.LaunchFailed and the silent nodes in
	// Report.Unreachable instead of waiting forever.
	LaunchDeadline time.Duration
	// Pcap, when non-nil, receives a live libpcap-format capture of all
	// frames traversing PcapNode's interface (tcpdump/Wireshark
	// compatible). A write that fails mid-run stops the capture, and Run,
	// RunContext and RunFor return the failure.
	Pcap io.Writer
	// PcapNode names the capture point (default: the first host).
	PcapNode string
	// MetricsSampleInterval, when positive, samples every registered
	// instrument at this virtual-time cadence into a ring of time-series
	// points (read back with MetricsSeries; see docs/OBSERVABILITY.md).
	MetricsSampleInterval time.Duration
}

// Node is one testbed host. AddHost* declares it — a name and an
// identity; the first Run or RunFor constructs its layer chain (see
// Testbed.build), and until then the node answers as a host that has
// seen no traffic.
type Node struct {
	tb   *Testbed
	name string
	mac  packet.MAC
	ip   packet.IP

	// The chain NIC ← RLL ← engine ← [Rether] ← IP/TCP; nil before build.
	host   *stack.Host
	engine *core.Engine
	rll    *rll.RLL
	rether *rether.Layer
	tcp    *tcp.Stack
}

// Name returns the host name.
func (n *Node) Name() string { return n.name }

// MAC returns the hardware address as a string.
func (n *Node) MAC() string { return n.mac.String() }

// IP returns the IPv4 address as a string.
func (n *Node) IP() string { return n.ip.String() }

// CounterValue reads a scenario counter homed on this node (0, false if
// the scenario has no such counter, or before the testbed is built).
func (n *Node) CounterValue(name string) (int64, bool) {
	if n.engine == nil {
		return 0, false
	}
	return n.engine.CounterValueByName(name)
}

// Failed reports whether a FAIL action crashed this node.
func (n *Node) Failed() bool { return n.engine != nil && n.engine.Failed() }

// RequestRTSlots asks the Rether ring monitor to reserve per-cycle
// real-time transmission slots for this node (admission control). The
// callback fires inside the simulation with the grant outcome. Valid
// after the testbed is built (i.e. once Run has been called, combine
// with RunFor to observe the effect).
func (n *Node) RequestRTSlots(slots int, cb func(granted bool, slots int)) error {
	if n.rether == nil {
		return fmt.Errorf("virtualwire: host %q does not run Rether", n.name)
	}
	n.rether.RequestReservation(slots, func(r rether.ReserveResult) {
		if cb != nil {
			cb(r.Granted, r.Slots)
		}
	})
	return nil
}

// InjectedFault describes one fault an engine applied, for reports.
type InjectedFault struct {
	At         time.Duration `json:"at_ns"`
	Node       string        `json:"node"`
	Kind       string        `json:"kind"`
	PacketType string        `json:"packet_type,omitempty"`
}

// InjectedFaults returns every fault applied across the testbed, merged
// in time order (ties broken by node name) — the run's injection
// journal. The Report returned by Run carries the same data in
// Report.Faults; this accessor remains as a thin delegate.
func (tb *Testbed) InjectedFaults() []InjectedFault {
	var out []InjectedFault
	// Fabric-level injections (trunk failures, flaps, switch crashes,
	// reconvergence events) ride the same journal as engine faults: the
	// fault surface composes instead of bypassing the FSL reporting.
	out = append(out, tb.topo.log...)
	for _, n := range tb.nodes {
		if n.engine == nil {
			continue // declared, not built yet
		}
		for _, f := range n.engine.FaultLog() {
			pkt := ""
			if tb.script != nil && f.Filter >= 0 && int(f.Filter) < len(tb.script.prog.Filters) {
				pkt = tb.script.prog.Filters[f.Filter].Name
			}
			out = append(out, InjectedFault{
				At: f.At, Node: n.name, Kind: f.Kind.String(), PacketType: pkt,
			})
		}
	}
	// Per-engine logs are already time-ordered; a stable sort with a
	// node-name tie-break merges them deterministically.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Testbed is a complete VirtualWire deployment: hosts, media, engines,
// optional RLL/Rether, workloads and one staged scenario.
type Testbed struct {
	cfg   Config
	sched *sim.Scheduler   // shard 0's queue, and the testbed's clock
	pool  *ether.FramePool // shard 0's pool

	nodes  []*Node
	byName map[string]*Node
	// arp is the Node Table's IP → MAC column, the one static ARP table
	// every host is handed at build; macs holds the MACs taken. Both are
	// wiring: filled by addHost, never written after build.
	arp  map[packet.IP]packet.MAC
	macs map[packet.MAC]struct{}

	// The media, constructed by build and kept by Reset: fabric is every
	// switch in plan order — the classic single switch is the one-switch
	// fabric — and is empty on a bus testbed, where bus is the medium.
	fabric  []*ether.Switch
	bus     *ether.SharedBus
	trunks  []fabricTrunk   // built trunks in wiring order
	forest  *spanningForest // the planned tree; recomputed in place by reconvergence
	hostSeq int             // AddHostGroup identity sequence

	// Interned per-trunk gauge names for small fabrics.
	trunkStateNames []string

	// topo is the topology fault engine's runtime state (trunk
	// failure/flap schedules, pending reconvergence, failover metrics).
	topo topoFaultState

	script  *CompiledScript // the staged scenario (LoadCompiled); nil for none
	ctl     *core.Controller
	tracing *trace.Buffer
	pcapTap *trace.Tap // the capture point's tap when Config.Pcap is set
	reg     *metrics.Registry
	sampler *metrics.Sampler

	snap        metrics.Snapshot // Node.Snapshot's scratch
	schema      reportSchema     // run-end walk's slot tables (see gatherReport)
	reportVals  []float64        // walkReport's scratch: the last walk's array when the report did not take it
	nodeSources [2]int           // registry source indices [first, end) of the hosts' layer hooks

	retherRing []string
	retherCfg  rether.Config
	rtStreams  []portPair

	workloads []workload
	flowRecs  flowRecords                   // Incast's and ManyFlow's, kept across Reset
	echoRTT   map[string]*metrics.Histogram // per echo client (see echoRTTHistogram)
	// built is set by the one successful build; buildErr by the one
	// failed build, which every later Run/RunFor/Reset returns again.
	built    bool
	buildErr error

	// zeros is the read-only payload source of the TCP workloads and
	// UDPStream (see zeroPayload).
	zeros []byte
	// pairs is ManyFlow's pair generator, re-seeded from PairSeed by
	// each run that draws from it (see pairRand).
	pairs *rand.Rand

	// shards is the windowed engine's runtime; created in build.
	shards *shardRuntime
}

// zeroPayload returns n zero bytes for a workload to send. Every sender
// of the testbed is handed a slice of the same array — tcp.Conn.Send and
// UDPSocket.SendTo never write to what they are given — which grows to
// the largest request made of this testbed and dies with it. Workloads
// call this while they are being started, before any shard runs; the
// slice they get is only ever read.
func (tb *Testbed) zeroPayload(n int) []byte {
	if n > len(tb.zeros) {
		tb.zeros = make([]byte, n)
	}
	return tb.zeros[:n:n]
}

// pairRand returns the testbed's pair generator seeded with seed: the
// draws of rand.New(rand.NewSource(seed)), without a new source per run.
func (tb *Testbed) pairRand(seed int64) *rand.Rand {
	if tb.pairs == nil {
		tb.pairs = rand.New(rand.NewSource(seed))
	} else {
		tb.pairs.Seed(seed)
	}
	return tb.pairs
}

type portPair struct {
	srcPort, dstPort uint16
}

// New creates an empty testbed: a clock and the recorded configuration.
// No medium and no host exists until the first Run or RunFor builds them.
func New(cfg Config) (*Testbed, error) {
	if cfg.Medium == 0 {
		cfg.Medium = MediumSwitch
	}
	if err := checkConfig(&cfg); err != nil {
		return nil, err
	}
	tb := &Testbed{
		cfg:    cfg,
		sched:  sim.NewScheduler(cfg.Seed),
		pool:   ether.NewFramePool(),
		byName: make(map[string]*Node),
		arp:    make(map[packet.IP]packet.MAC),
		macs:   make(map[packet.MAC]struct{}),
		reg:    metrics.NewRegistry(),
	}
	if cfg.TraceCapacity > 0 {
		tb.tracing = trace.NewBuffer(cfg.TraceCapacity)
	}
	return tb, nil
}

// AddHost declares a host with the given identity. Must be called before
// Run.
func (tb *Testbed) AddHost(name, mac, ip string) (*Node, error) {
	m, err := packet.ParseMAC(mac)
	if err != nil {
		return nil, err
	}
	addr, err := packet.ParseIP(ip)
	if err != nil {
		return nil, err
	}
	return tb.addHost(name, m, addr)
}

// addHost is AddHost after identity parsing — also the entry point for
// compiled scripts, whose NODE_TABLE already carries parsed addresses,
// and for AddHostGroup. It records the node; build constructs it.
func (tb *Testbed) addHost(name string, m packet.MAC, addr packet.IP) (*Node, error) {
	if err := tb.sealed(); err != nil {
		return nil, err
	}
	if _, dup := tb.byName[name]; dup {
		return nil, fmt.Errorf("virtualwire: host %q already added", name)
	}
	if _, dup := tb.arp[addr]; dup {
		return nil, fmt.Errorf("virtualwire: host %q: IP %s already in use", name, addr)
	}
	if _, dup := tb.macs[m]; dup {
		return nil, fmt.Errorf("virtualwire: host %q: MAC %s already in use", name, m)
	}
	n := &Node{tb: tb, name: name, mac: m, ip: addr}
	tb.nodes = append(tb.nodes, n)
	tb.byName[name] = n
	tb.arp[addr] = m
	tb.macs[m] = struct{}{}
	return n, nil
}

// sealed reports why the host set and the Rether ring can no longer
// change: the testbed was built from them, or failed to be.
func (tb *Testbed) sealed() error {
	if tb.built {
		return fmt.Errorf("virtualwire: testbed already built")
	}
	return tb.buildErr
}

// AddNodesFromScript creates one host per NODE_TABLE row of an FSL
// script.
func (tb *Testbed) AddNodesFromScript(src string) error {
	s, err := fsl.Parse(src)
	if err != nil {
		return scriptErr(err)
	}
	for _, nd := range s.Nodes {
		if _, err := tb.AddHost(nd.Name, nd.MAC, nd.IP); err != nil {
			return err
		}
	}
	return nil
}

// Node returns a host by name.
func (tb *Testbed) Node(name string) (*Node, bool) {
	n, ok := tb.byName[name]
	return n, ok
}

// Nodes returns all hosts in addition order.
func (tb *Testbed) Nodes() []*Node {
	out := make([]*Node, len(tb.nodes))
	copy(out, tb.nodes)
	return out
}

// InstallRether runs the Rether token-passing protocol on the named
// hosts, in the given ring order. RT port pairs registered with
// AddRTStream are served from the real-time queue.
func (tb *Testbed) InstallRether(ringOrder []string, cfg RetherConfig) error {
	if err := tb.sealed(); err != nil {
		return err
	}
	for _, name := range ringOrder {
		if _, ok := tb.byName[name]; !ok {
			return fmt.Errorf("virtualwire: rether ring names unknown host %q", name)
		}
	}
	tb.retherRing = append([]string(nil), ringOrder...)
	tb.retherCfg = rether.Config{
		BEQuota:          cfg.BEQuota,
		RTQuota:          cfg.RTQuota,
		TokenAckTimeout:  cfg.TokenAckTimeout,
		TokenRetries:     cfg.TokenRetries,
		TokenIdleTimeout: cfg.TokenIdleTimeout,
	}
	return nil
}

// RetherConfig tunes the Rether installation (zero values select the
// paper-faithful defaults, including 3 token transmissions before a node
// is declared dead).
type RetherConfig struct {
	BEQuota          int
	RTQuota          int
	TokenAckTimeout  time.Duration
	TokenRetries     int
	TokenIdleTimeout time.Duration
}

// AddRTStream marks TCP/UDP traffic with the given source and destination
// ports as real-time for Rether's reservation queue.
func (tb *Testbed) AddRTStream(srcPort, dstPort uint16) {
	tb.rtStreams = append(tb.rtStreams, portPair{srcPort, dstPort})
}

// build is the single assembly point, run by the first Run or RunFor:
// plan, then construct. The plan (see Check) is where a testbed is
// rejected; what it accepts is constructed — the shard runtime, every
// medium and every host's chain NIC ← [RLL] ← engine ← [Rether] ← IP/TCP,
// directly on the scheduler and pool of the shard it lives on. A build
// that fails is not retried: the testbed stays unbuilt and every later
// call returns the same error.
func (tb *Testbed) build() error {
	if !tb.built && tb.buildErr == nil {
		tb.buildErr = tb.assemble()
		tb.built = tb.buildErr == nil
	}
	return tb.buildErr
}

// assemble does build's work. Order is the determinism contract: switch
// ports are numbered in host add order, component generators are handed
// out in construction order, and metric sources register in the order
// reports print them.
func (tb *Testbed) assemble() error {
	plan, err := tb.plan()
	if err != nil {
		return err
	}
	segmentOf := tb.buildMedia(plan)
	inRing := make(map[string]bool, len(tb.retherRing))
	var ringMACs []packet.MAC
	for _, name := range tb.retherRing {
		inRing[name] = true
		ringMACs = append(ringMACs, tb.byName[name].mac)
	}
	var pcapWriter *trace.PcapWriter
	if tb.cfg.Pcap != nil {
		if pcapWriter, err = trace.NewPcapWriter(tb.cfg.Pcap); err != nil {
			return err
		}
	}
	pcapNode := tb.cfg.PcapNode
	if pcapNode == "" && len(tb.nodes) > 0 {
		pcapNode = tb.nodes[0].name
	}
	for i, n := range tb.nodes {
		// The host lives on the shard of its segment — the bus, or a port
		// of the edge switch round-robin hands it — and attaches in add
		// order, which numbers the ports.
		sw, shard := segmentOf(i)
		sched := tb.shards.scheds[shard]
		n.host = stack.NewHost(sched, n.name, n.mac, n.ip)
		n.host.Neighbors = tb.arp
		if sw != nil {
			sw.AttachHost(n.host.NIC)
		} else {
			tb.bus.Attach(n.host.NIC)
		}
		// Every layer recycles into the pool the medium handed the NIC
		// (the shard's).
		pool := n.host.NIC.Pool()
		var layers []stack.Layer
		var pw *trace.PcapWriter
		if n.name == pcapNode {
			pw = pcapWriter
		}
		if tb.tracing != nil || pw != nil {
			tap := trace.NewTap(sched, n.name, tb.tracing.Stage(shard), pw)
			if pw != nil {
				tb.pcapTap = tap
			}
			layers = append(layers, tap)
		}
		if tb.cfg.RLL {
			n.rll = rll.New(sched, n.mac, rll.Config{Window: tb.cfg.RLLWindow})
			n.rll.SetPool(pool)
			n.host.NIC.DeliverCorrupt = true // the RLL validates its own CRC
			layers = append(layers, n.rll)
		}
		n.engine = core.NewEngine(sched, n.mac)
		n.engine.Cost = tb.cfg.Cost
		n.engine.SetPool(pool)
		layers = append(layers, n.engine)
		if inRing[n.name] {
			rcfg := tb.retherCfg
			rcfg.Ring = ringMACs
			n.rether = rether.New(sched, n.mac, rcfg)
			n.rether.SetPool(pool)
			if len(tb.rtStreams) > 0 {
				streams := append([]portPair(nil), tb.rtStreams...)
				n.rether.ClassifyRT = func(fr *ether.Frame) bool {
					return matchesRTStream(fr, streams)
				}
			}
			layers = append(layers, n.rether)
		}
		n.host.Build(layers...)
		n.tcp = tcp.NewStack(n.host)
	}
	if tb.script != nil {
		prog := tb.script.prog
		// The control node is the script's first node.
		ctlNode := tb.byName[prog.Nodes[0].Name]
		ctl, err := core.NewController(ctlNode.host.Sched, prog, ctlNode.engine, 0)
		if err != nil {
			return err
		}
		if tb.cfg.LaunchDeadline > 0 {
			ctl.LaunchDeadline = tb.cfg.LaunchDeadline
		}
		ctl.SetInitBlob(tb.script.initBlob)
		// Engines receiving that blob over the wire adopt the shared
		// program — and with it the one dispatch tree — without
		// gob-decoding a private copy.
		for _, n := range tb.nodes {
			n.engine.SeedProgramCache(tb.script.initBlob, prog)
		}
		tb.ctl = ctl
	}
	tb.registerMetricSources()
	tb.start(tb.cfg.Seed)
	return nil
}

func matchesRTStream(fr *ether.Frame, streams []portPair) bool {
	d := fr.Data
	if fr.EtherType() != packet.EtherTypeIPv4 || len(d) < packet.OffTCPDport+2 {
		return false
	}
	proto := d[packet.OffIPProto]
	if proto != packet.ProtoTCP && proto != packet.ProtoUDP {
		return false
	}
	sp := uint16(d[packet.OffTCPSport])<<8 | uint16(d[packet.OffTCPSport+1])
	dp := uint16(d[packet.OffTCPDport])<<8 | uint16(d[packet.OffTCPDport+1])
	for _, s := range streams {
		if (sp == s.srcPort && dp == s.dstPort) || (sp == s.dstPort && dp == s.srcPort) {
			return true
		}
	}
	return false
}

// Run builds the testbed (if needed), launches the scenario, starts the
// workloads once every engine is initialized, and runs until the horizon
// or until the scenario finishes and all traffic drains. It is a thin
// wrapper around RunContext with a background context.
func (tb *Testbed) Run(horizon time.Duration) (RunReport, error) {
	return tb.RunContext(context.Background(), horizon)
}

// RunContext is Run with cooperative cancellation: the context is
// polled at every window barrier (windows span at most 1 ms of virtual
// time, never mid-event), so cancelling it — or letting its deadline
// expire — stops the run promptly with a partial RunReport describing
// everything that happened up to the interruption.
//
// The returned error is nil for a run that reached its horizon or
// finished its scenario (inspect the report for the verdict). When the
// context interrupts the run, the partial report is returned together
// with an error wrapping ctx.Err(); if the context's deadline expired
// the error additionally matches ErrHorizonExceeded, which the campaign
// executor's retry policy treats as transient. A Config.Pcap write that
// failed is returned, wrapped, with the full report.
func (tb *Testbed) RunContext(ctx context.Context, horizon time.Duration) (RunReport, error) {
	if err := tb.build(); err != nil {
		return RunReport{}, err
	}
	sr := tb.shards
	start := tb.sched.Now()
	sr.startPending = false
	if tb.ctl != nil {
		tb.ctl.OnStarted = func() { sr.startPending = true }
		if err := tb.ctl.Launch(); err != nil {
			return RunReport{}, err
		}
	} else {
		sr.startPending = true
	}
	ctxErr, err := tb.runWindowed(ctx, start+horizon, true)
	if err != nil {
		return RunReport{}, err
	}
	rep := tb.assembleRunReport(start, sr.set.Executed())
	if ctxErr != nil {
		rep.Passed = false
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			ctxErr = fmt.Errorf("%w: %w", ErrHorizonExceeded, ctxErr)
		}
		return rep, errors.Join(fmt.Errorf("virtualwire: run interrupted at t=%v: %w",
			rep.Duration, ctxErr), tb.captureErr())
	}
	return rep, tb.captureErr()
}

// captureErr is the pcap tap's first write failure, wrapped; nil while
// the capture is whole or there is none.
func (tb *Testbed) captureErr() error {
	if tb.pcapTap == nil || tb.pcapTap.Err() == nil {
		return nil
	}
	return fmt.Errorf("virtualwire: pcap capture: %w", tb.pcapTap.Err())
}

// assembleRunReport gathers the run outcome: duration, scenario
// verdict, fault journal, per-node reports and the metrics digest.
func (tb *Testbed) assembleRunReport(start time.Duration, events uint64) RunReport {
	rep := RunReport{
		Seed:     tb.cfg.Seed,
		Duration: tb.sched.Now() - start,
		Events:   events,
	}
	if tb.ctl != nil {
		prog := tb.script.prog
		rep.Scenario = prog.Name
		rep.Result = tb.ctl.Result()
		rep.Passed = rep.Result.Passed(prog.InactivityTimeout > 0)
		for _, nid := range rep.Result.Unreachable {
			rep.Unreachable = append(rep.Unreachable, prog.Nodes[nid].Name)
		}
	} else {
		rep.Passed = true
	}
	rep.Verdict = verdict(rep.Result, tb.ctl != nil)
	rep.Faults = tb.InjectedFaults()
	rep.Errors = append([]ErrorReport(nil), rep.Result.Errors...)
	rep.Nodes, rep.Metrics = tb.gatherReport()
	return rep
}

// RunFor advances the simulation by d. It builds the testbed if needed,
// so staged experiments can warm traffic up (through the node-level
// APIs) before Run launches the scenario; note that neither the staged
// scenario nor the registered workloads start until Run is called.
func (tb *Testbed) RunFor(d time.Duration) error {
	if err := tb.build(); err != nil {
		return err
	}
	if _, err := tb.runWindowed(context.Background(), tb.sched.Now()+d, false); err != nil {
		return err
	}
	return tb.captureErr()
}

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Duration { return tb.sched.Now() }

// Trace returns the captured frames (empty unless Config.TraceCapacity
// was set), oldest first: by time, then node name, then capture order —
// the same at any shard count.
func (tb *Testbed) Trace() []TraceEntry {
	if tb.tracing == nil {
		return nil
	}
	return tb.tracing.Entries()
}

// TraceFilter returns captured frames whose summary, node or direction
// matches all given substrings.
func (tb *Testbed) TraceFilter(substrings ...string) []TraceEntry {
	if tb.tracing == nil {
		return nil
	}
	return tb.tracing.Filter(substrings...)
}

// DumpTables renders the compiled six tables of the loaded script.
func (tb *Testbed) DumpTables() string {
	if tb.script == nil {
		return ""
	}
	return tb.script.prog.Dump()
}
