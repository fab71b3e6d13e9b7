package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"virtualwire"
	"virtualwire/campaign"
	"virtualwire/campaign/service"
)

// layerContext is what the traced run knows when it turns to the
// layers: the two timed stretches, the spans, and the mean of every
// layer counter per op.
type layerContext struct {
	r      *runner
	m      metricSet
	spans  map[string]*selfStat
	plain  region
	traced region
	opNs   float64            // untraced median op time
	counts map[string]float64 // layer counters, mean per op
	// model is the ns per op the ladder attributes to each layer,
	// exclusive of the layers below it; shares() turns it into share.*.
	model map[string]float64
}

// countMetrics derives every metric that is a plain count or a ratio
// of counts. The counters come from RunReport.Metrics.Totals (or the
// campaign's roll-up of them), so for one seed they repeat exactly.
func (lc *layerContext) countMetrics() {
	c, m := lc.counts, lc.m
	// A fabric's switches report under "fabric/", a single switch under
	// "switch/"; no testbed has both.
	for _, k := range []string{"ingress_frames", "flooded_frames", "port_queue_drops"} {
		c["switch/"+k] += c["fabric/"+k]
	}
	m["sim.events_per_op"] = c["scheduler/events_executed"]
	m["sim.events_per_s"] = ratio(c["scheduler/events_executed"], lc.opNs/1e9)
	m["sim.cancel_ratio"] = ratio(c["scheduler/events_scheduled"]-c["scheduler/events_executed"], c["scheduler/events_scheduled"])

	m["ether.nic.frames_per_op"] = c["nic/tx_frames"]
	m["ether.nic.queue_drops_per_op"] = c["nic/queue_drops"] + c["switch/port_queue_drops"]
	m["ether.bus.collisions_per_op"] = c["bus/collisions"]
	m["ether.fabric.hops_per_frame"] = ratio(c["switch/ingress_frames"], c["nic/tx_frames"])
	m["ether.fabric.flood_ratio"] = ratio(c["switch/flooded_frames"], c["switch/ingress_frames"])
	m["ether.pool.gets_per_op"] = c["pool/gets"]

	m["rll.frames_per_op"] = c["rll/data_sent"]
	m["rll.retrans_ratio"] = ratio(c["rll/data_retrans"], c["rll/data_sent"])
	m["rether.tokens_per_op"] = c["rether/tokens_sent"]
	m["rether.token_retrans_ratio"] = ratio(c["rether/token_retransmissions"], c["rether/tokens_sent"])

	m["core.engine.packets_per_op"] = c["engine/packets_intercepted"]
	m["core.engine.match_ratio"] = ratio(c["engine/packets_matched"], c["engine/packets_intercepted"])
	m["core.engine.actions_per_packet"] = ratio(c["engine/actions_fired"], c["engine/packets_intercepted"])
	m["core.engine.faults_per_op"] = c["engine/faults_injected"]
	m["core.control.ctl_bytes_per_op"] = c["engine/ctl_bytes"]

	m["tcp.segments_per_op"] = c["tcp/segments_sent"]
	m["tcp.retrans_ratio"] = ratio(c["tcp/retransmissions"], c["tcp/segments_sent"])

	events := lc.plain.totals["scheduler/events_executed"]
	m["facade.allocs_per_event"] = ratio(lc.plain.mallocs, events)
	m["facade.alloc_bytes_per_event"] = ratio(lc.plain.allocBytes, events)
}

// shares turns the model into share.*: count x unit cost / op time.
// It is a model, not a measurement: the unit costs come from the
// ladder, outside the run, and whatever they miss is share.unattributed.
func (lc *layerContext) shares() {
	rest := 1.0
	for _, layer := range []string{"sim", "ether", "rll", "rether", "core", "stack_tcp", "facade", "campaign", "service"} {
		s := ratio(lc.model[layer], lc.opNs)
		lc.m["share."+layer] = s
		rest -= s
	}
	lc.m["share.unattributed"] = rest
}

// simModel runs the ladder for a scenario and prices the counts c (per
// op) with it, filling the unit-cost metrics and lc.model.
func (lc *layerContext) simModel(sc *scenario, c map[string]float64) error {
	m := lc.m
	ls, err := newLadderSpec(sc, ratio(c["nic/tx_bytes"], c["nic/tx_frames"]))
	if err != nil {
		return err
	}
	fabric := ls.medium == mediumTrunk
	if fabric {
		// Every rung but the trunk's own runs on a single switch.
		ls.medium = mediumSwitch
	}
	replay := func(level int, share float64, large int) func() (rungResult, error) {
		return func() (rungResult, error) { return ls.replayRung(level, share, large), nil }
	}
	scheduler := func(depth int) func() (rungResult, error) {
		return func() (rungResult, error) {
			return rungResult{nsPerFrame: schedulerRung(depth, ladderFrames*10)}, nil
		}
	}
	var rs rungSet
	rs.add("d16", scheduler(16))
	rs.add("d16k", scheduler(16<<10))
	rs.add("r1", replay(1, ls.largeShare, largeFrame))
	switch {
	case ls.medium == mediumBus:
		rs.add("token", func() (rungResult, error) { return tokenRung(100 * time.Millisecond), nil })
	case fabric:
		trunk := *ls
		trunk.medium = mediumTrunk
		rs.add("trunk", func() (rungResult, error) { return trunk.replayRung(1, ls.largeShare, largeFrame), nil })
		fallthrough
	default:
		rs.add("hop64", replay(1, 0, largeFrame))
		rs.add("hop1514", replay(1, 1, maxFrame))
	}
	if ls.rll {
		rs.add("r2", replay(2, ls.largeShare, largeFrame))
	}
	if ls.prog != nil {
		rs.add("r3", replay(3, ls.largeShare, largeFrame))
	}
	rs.add("r4", ls.udpRung)
	if ls.tcp {
		rs.add("r5", ls.tcpRung)
	}
	if err := rs.measure(ladderRounds); err != nil {
		return err
	}

	m["sim.ns_per_event_d16"], m["sim.ns_per_event_d16k"] = rs.best["d16"].nsPerFrame, rs.best["d16k"].nsPerFrame
	// The scheduler's price per event. The rungs all run at a shallow
	// queue, so their own events come off at that price; the workload's
	// events are priced at a deep queue for the fabric.
	r0 := rs.best["d16"].nsPerFrame
	lc.model["sim"] = c["scheduler/events_executed"] * r0
	if fabric {
		lc.model["sim"] = c["scheduler/events_executed"] * rs.best["d16k"].nsPerFrame
	}
	// The wire's price per frame copy: the first rung less its events.
	r1 := rs.best["r1"]
	perGet := ratio(r1.nsPerFrame-r1.eventsPerFrame*r0, r1.getsPerFrame)
	if perGet < 0 {
		perGet = 0
	}
	lc.model["ether"] = c["pool/gets"] * perGet
	// excl is a rung's cost over the rung below, less the events and
	// the frame copies it added, which sim and ether already count.
	excl := func(hi, lo rungResult) float64 {
		x := (hi.nsPerFrame - lo.nsPerFrame) - (hi.eventsPerFrame-lo.eventsPerFrame)*r0 -
			(hi.getsPerFrame-lo.getsPerFrame)*perGet
		if x < 0 {
			return 0
		}
		return x
	}

	switch {
	case ls.medium == mediumBus:
		m["ether.bus.ns_per_hop"] = r1.nsPerFrame
		tok := rs.best["token"]
		m["rether.ns_per_token"] = tok.nsPerFrame
		lc.model["rether"] = c["rether/tokens_sent"] * excl(tok, rungResult{})
	case fabric:
		m["ether.trunk.ns_per_hop"] = rs.best["trunk"].nsPerFrame - r1.nsPerFrame
		fallthrough
	default:
		m["ether.switch.ns_per_hop_64"] = rs.best["hop64"].nsPerFrame
		m["ether.switch.ns_per_hop_1514"] = rs.best["hop1514"].nsPerFrame
	}
	below := r1
	if r2, ok := rs.best["r2"]; ok {
		m["rll.ns_per_frame"] = r2.nsPerFrame - below.nsPerFrame
		lc.model["rll"] = c["rll/data_sent"] * excl(r2, below)
		below = r2
	}
	if r3, ok := rs.best["r3"]; ok {
		// A frame crosses two engines, the sender's and the receiver's.
		m["core.engine.ns_per_packet"] = (r3.nsPerFrame - below.nsPerFrame) / 2
		m["core.classify.ns_per_packet"], m["core.classify.tuples_per_packet"] = ls.classifyRung()
		lc.model["core"] = c["engine/packets_intercepted"] * excl(r3, below) / 2
		below = r3
	}
	r4 := rs.best["r4"]
	m["stack.ns_per_packet"] = r4.nsPerFrame - below.nsPerFrame
	lc.model["stack_tcp"] = c["ip/rx_packets"] * excl(r4, below)
	if r5, ok := rs.best["r5"]; ok {
		m["tcp.ns_per_segment"] = r5.nsPerFrame - r4.nsPerFrame
		lc.model["stack_tcp"] += c["tcp/segments_sent"] * excl(r5, r4)
	}
	return nil
}

// timeMedian runs f n times and returns its median duration in ns.
func timeMedian(n int, f func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return median(ds), nil
}

// facadeSetupMetrics times the two halves of a scenario's set-up.
func (lc *layerContext) facadeSetupMetrics(sc *scenario) error {
	var cs *virtualwire.CompiledScript
	if sc.script != "" {
		ns, err := timeMedian(5, func() (err error) { cs, err = virtualwire.CompileScript(sc.script); return err })
		if err != nil {
			return err
		}
		lc.m["facade.compile_us"] = ns / 1e3
	}
	ns, err := timeMedian(3, func() error {
		tb, err := assemble(sc, cs, lc.r.opt.seed)
		if err != nil {
			return err
		}
		return tb.RunFor(time.Microsecond) // forces the build
	})
	lc.m["facade.build_ms"] = ns / 1e6
	return err
}

// facadeSpanMetrics reads the facade phases off a set of spans and
// returns the ns per op spent outside Run.
func facadeSpanMetrics(m metricSet, spans map[string]*selfStat) float64 {
	reset, arm := medianDur(spans, "facade.reset"), medianDur(spans, "facade.arm")
	run, report := medianDur(spans, "facade.run"), medianDur(spans, "facade.report")
	m["facade.reset_us"], m["facade.arm_us"] = reset/1e3, arm/1e3
	m["facade.run_ms"], m["facade.report_us"] = run/1e6, report/1e3
	return reset + arm + report
}

// altEngineOpNs is the scenario's median op time under another shard
// setting, over a few ops on a testbed of its own.
func altEngineOpNs(sc *scenario, seed int64, ops int) (float64, error) {
	inst, err := newSimInstance(sc, seed)
	if err != nil {
		return 0, err
	}
	if o := inst.op(seed, 0, nil); o.fail != "" {
		return 0, errors.New(o.fail)
	}
	i := int64(0)
	return timeMedian(ops, func() error {
		i++
		if o := inst.op(seed+i, 0, nil); o.fail != "" {
			return errors.New(o.fail)
		}
		return nil
	})
}

// simLayers is the layers function of the four simulator workloads.
func simLayers(sc *scenario) func(lc *layerContext) error {
	return func(lc *layerContext) error {
		if err := lc.simModel(sc, lc.counts); err != nil {
			return err
		}
		lc.model["facade"] = facadeSpanMetrics(lc.m, lc.spans)
		lc.m["facade.report_bytes"] = lc.plain.outBytes / float64(len(lc.plain.durs))
		if err := lc.facadeSetupMetrics(sc); err != nil {
			return err
		}
		if inst, ok := lc.r.inst.(*simInstance); ok {
			// Pool hits are left out of the report's totals (they differ
			// between a fresh and a reset testbed), so read the registry.
			var gets, hits float64
			for _, s := range inst.tb.MetricsSeries().Final {
				if s.Layer == "pool" && s.Name == "gets" {
					gets += s.Value
				} else if s.Layer == "pool" && s.Name == "hits" {
					hits += s.Value
				}
			}
			lc.m["ether.pool.hit_ratio"] = ratio(hits, gets)
		}
		if sc.cfg.Topology == nil {
			return nil
		}
		// Only a fabric can run on the other engines: the legacy
		// single-queue one (Shards: 0) and the windowed one at P shards.
		p := runtime.GOMAXPROCS(0)
		legacy, err := altEngineOpNs(fabricManyflow(0), lc.r.opt.seed, 3)
		if err != nil {
			return err
		}
		sharded, err := altEngineOpNs(fabricManyflow(p), lc.r.opt.seed, 3)
		if err != nil {
			return err
		}
		lc.m["facade.legacy_ratio"] = ratio(legacy, lc.opNs)
		lc.m["facade.shards_speedup"] = ratio(lc.opNs, sharded)
		fmt.Fprintf(lc.r.log, "facade.shards_speedup measured at P=%d shards\n", p)
		return nil
	}
}

// probeScenario runs a scenario through the facade for a few traced ops
// and returns their spans: what one campaign run would cost with no
// campaign around it.
func probeScenario(sc *scenario, seed int64, ops int) (map[string]*selfStat, error) {
	inst, err := newSimInstance(sc, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	for i := 0; i <= ops; i++ {
		t := tr
		if i == 0 {
			t = nil // the first op runs the testbed as built, without a reset
		}
		if o := inst.op(seed+int64(i), i, t); o.fail != "" {
			return nil, errors.New(o.fail)
		}
	}
	return tr.selfTimes(), nil
}

// campaignWall is the median wall time of an in-process campaign.
func campaignWall(spec campaign.Spec, workers, reps int) (float64, error) {
	var sink bytes.Buffer
	return timeMedian(reps, func() error {
		sink.Reset()
		_, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: workers, Sink: &sink})
		return err
	})
}

// campaignMetrics fills campaign.* for a matrix of the given seed-axis
// size, prices the simulation inside it with the ladder, and returns
// the in-process wall time of one such campaign.
func (lc *layerContext) campaignMetrics(seeds int) (float64, error) {
	m, seed := lc.m, lc.r.opt.seed
	spec := matrixSpec(seed, seeds)
	runs := float64(spec.Runs())
	raw, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	var parsed *campaign.Spec
	ns, err := timeMedian(20, func() (err error) { parsed, err = campaign.ParseSpec(raw); return err })
	if err != nil {
		return 0, err
	}
	m["campaign.parse_us"] = ns / 1e3
	ns, _ = timeMedian(20, func() error { parsed.Hash(); return nil })
	m["campaign.hash_us"] = ns / 1e3

	// Fixed cost and slope: a one-run campaign against the full matrix.
	one := matrixSpec(seed, 1)
	one.Configs = one.Configs[:1]
	fixed, err := campaignWall(one, 1, 9)
	if err != nil {
		return 0, err
	}
	full, err := campaignWall(spec, 1, 5)
	if err != nil {
		return 0, err
	}
	perRun := (full - fixed) / (runs - 1)
	m["campaign.fixed_ms"] = fixed / 1e6
	m["campaign.per_run_us"] = perRun / 1e3
	m["campaign.runs_per_s"] = ratio(runs, full/1e9)

	// The same scenario through the facade alone, at both BER settings.
	// What a run costs with no campaign around it (reset + arm + run)
	// and, of that, the part outside Run.
	var facadeRun, facadeOther float64
	for _, ber := range []float64{0, 1e-6} {
		spans, err := probeScenario(quickstartBulk(ber), seed, 200)
		if err != nil {
			return 0, err
		}
		facadeSpanMetrics(m, spans)
		other := medianDur(spans, "facade.reset") + medianDur(spans, "facade.arm")
		facadeOther += other / 2
		facadeRun += (other + medianDur(spans, "facade.run")) / 2
	}
	m["campaign.overhead_us_per_run"] = (perRun - facadeRun) / 1e3

	// One campaign with the allocation counters read around it, then a
	// one-run campaign to get hold of a record and time its encoding.
	var sink bytes.Buffer
	sink.Grow(2 << 20)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sum, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 1, Sink: &sink})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, err
	}
	m["campaign.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / runs
	m["campaign.alloc_kb_per_run"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / runs
	m["campaign.record_bytes"] = float64(sink.Len()) / runs
	var recs []campaign.RunRecord
	if _, err = campaign.Run(context.Background(), one, campaign.Options{Workers: 1,
		OnRecord: func(r campaign.RunRecord) { recs = append(recs, r) }}); err != nil {
		return 0, err
	}
	ns, err = timeMedian(50, func() error { _, err := json.Marshal(&recs[0]); return err })
	if err != nil {
		return 0, err
	}
	m["campaign.record_encode_us"] = ns / 1e3
	var sumJSON bytes.Buffer
	ns, err = timeMedian(20, func() error { sumJSON.Reset(); return sum.WriteJSON(&sumJSON) })
	if err != nil {
		return 0, err
	}
	m["campaign.summary_us"] = ns / 1e3

	p := runtime.GOMAXPROCS(0)
	parallel, err := campaignWall(spec, p, 5)
	if err != nil {
		return 0, err
	}
	m["campaign.workers_speedup"] = ratio(full, parallel)
	fmt.Fprintf(lc.r.log, "campaign.workers_speedup measured at P=%d workers\n", p)

	// The simulation inside the campaign, priced by the ladder from the
	// campaign's rolled-up counters; the campaign's share is the rest of
	// its per-run cost.
	if err := lc.simModel(quickstartBulk(0), lc.counts); err != nil {
		return 0, err
	}
	lc.model["facade"] = facadeOther * runs
	lc.model["campaign"] = fixed
	if over := perRun - facadeRun; over > 0 {
		lc.model["campaign"] += over * runs
	}
	return full, nil
}

func campaignLayers(lc *layerContext) error {
	_, err := lc.campaignMetrics(matrixSeeds)
	return err
}

// daemonLayers fills service.* from the spans and from a few requests
// of its own against the daemon the ops ran on, then campaign.* for the
// 64-run matrix the daemon executes.
func daemonLayers(lc *layerContext) error {
	inst := lc.r.inst.(*daemonInstance)
	m, ctx := lc.m, context.Background()
	m["service.submit_ms_p50"] = medianDur(lc.spans, "service.submit") / 1e6
	m["service.stream_ms_p50"] = (medianDur(lc.spans, "service.stream") - medianDur(lc.spans, "service.first_record")) / 1e6
	m["service.summary_ms_p50"] = medianDur(lc.spans, "service.summary") / 1e6
	m["service.first_record_ms_p50"] = median(lc.plain.firsts) / 1e6
	m["service.op_ms_p90"] = percentile(lc.plain.durs, 90) / 1e6

	// The finished job of the last op: the pure journal -> HTTP read path.
	id := inst.lastID
	var replay bytes.Buffer
	replay.Grow(1 << 20)
	ns, err := timeMedian(20, func() error {
		replay.Reset()
		return inst.client.StreamRecords(ctx, id, &replay, nil)
	})
	if err != nil {
		return err
	}
	m["service.replay_ms_p50"] = ns / 1e6
	m["service.replay_mb_per_s"] = ratio(float64(replay.Len())/(1<<20), ns/1e9)
	ns, err = timeMedian(50, func() error { _, err := inst.client.Status(ctx, id); return err })
	if err != nil {
		return err
	}
	m["service.status_ms_p50"] = ns / 1e6
	ns, err = timeMedian(3, func() error { _, err := inst.get("/metrics"); return err })
	if err != nil {
		return err
	}
	m["service.metrics_scrape_ms"] = ns / 1e6

	journal, err := dirBytes(inst.dir)
	if err != nil {
		return err
	}
	spec := matrixSpec(0, inst.seeds)
	runsPerOp := float64(spec.Runs())
	m["service.journal_bytes_per_run"] = ratio(float64(journal), float64(inst.ops)*runsPerOp)

	// Close and reopen on the populated directory; the instance's close
	// then shuts the reopened manager down. Then Open on an empty one.
	t0 := time.Now()
	inst.srv.Close()
	inst.mgr.Close()
	inst.mgr, err = service.Open(service.Config{Dir: inst.dir})
	if err != nil {
		return err
	}
	m["service.reopen_ms"] = float64(time.Since(t0)) / 1e6
	opens := make([]float64, 3)
	for i := range opens {
		fresh, err := newDaemonInstance(inst.seeds, lc.r.opt.outDir)
		if err != nil {
			return err
		}
		opens[i] = fresh.openNs / 1e6
		if err := fresh.close(); err != nil {
			return err
		}
	}
	m["service.open_ms"] = median(opens)

	local, err := lc.campaignMetrics(inst.seeds)
	if err != nil {
		return err
	}
	m["service.overhead_ratio"] = ratio(lc.opNs, local)
	if over := lc.opNs - local; over > 0 {
		lc.model["service"] = over
	}
	return nil
}
