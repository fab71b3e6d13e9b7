package virtualwire

// Topology fault engine: the fabric itself as a fault surface. Trunk
// failure/restore/flap, per-trunk latency/BER degradation and switch
// crash/restart are scheduled in virtual time from
// Config.TopologyFaults and applied at window barriers — window ends
// never cross a pending fault time, so the live-trunk set (and with it
// the conservative lookahead) is constant within any window and the
// output stays byte-identical at every shard count.
//
// A topology change triggers STP-style reconvergence after the spec's
// ReconvergeDelay: the spanning forest over live trunks is recomputed
// (deterministic tie-break by wiring order — see spanningForest), the
// best redundant trunk unblocks, stale MAC entries flush fabric-wide,
// and the failover is counted in the fabric metrics and the fault
// journal. See docs/TOPOLOGIES.md, "Fault axes".

import (
	"fmt"
	"sort"
	"time"
)

// TopologyFaultKind selects a fabric fault.
type TopologyFaultKind int

// Topology fault kinds.
const (
	// TrunkDown fails a trunk at At: both end ports go dead, queued
	// egress frames drop (counted as port queue drops), and frames
	// already on the wire are discarded at the far port. A tree trunk's
	// death triggers reconvergence.
	TrunkDown TopologyFaultKind = iota + 1
	// TrunkUp restores a failed trunk at At. The trunk stays blocked
	// until reconvergence re-admits it to the tree (STP-style).
	TrunkUp
	// TrunkFlap expands into Count down/up cycles starting at At: down
	// at the start of each Period, up halfway through it.
	TrunkFlap
	// TrunkDegrade overrides the trunk's propagation delay and/or bit
	// error rate at At (the link stays up; no reconvergence).
	TrunkDegrade
	// SwitchDown crashes a switch at At: every ingress frame is
	// discarded and its forwarding pipeline drops. Triggers
	// reconvergence (the switch leaves the tree).
	SwitchDown
	// SwitchUp restarts a crashed switch at At and triggers
	// reconvergence to re-admit it.
	SwitchUp
)

// String names the kind as campaign specs spell it.
func (k TopologyFaultKind) String() string {
	switch k {
	case TrunkDown:
		return "trunk_down"
	case TrunkUp:
		return "trunk_up"
	case TrunkFlap:
		return "trunk_flap"
	case TrunkDegrade:
		return "trunk_degrade"
	case SwitchDown:
		return "switch_down"
	case SwitchUp:
		return "switch_up"
	}
	return "unknown"
}

// ParseTopologyFaultKind resolves a kind name ("trunk_down"/"down",
// "trunk_up"/"up", "trunk_flap"/"flap", "trunk_degrade"/"degrade",
// "switch_down", "switch_up").
func ParseTopologyFaultKind(s string) (TopologyFaultKind, error) {
	switch s {
	case "trunk_down", "down":
		return TrunkDown, nil
	case "trunk_up", "up":
		return TrunkUp, nil
	case "trunk_flap", "flap":
		return TrunkFlap, nil
	case "trunk_degrade", "degrade":
		return TrunkDegrade, nil
	case "switch_down":
		return SwitchDown, nil
	case "switch_up":
		return SwitchUp, nil
	}
	return 0, fmt.Errorf("virtualwire: unknown topology fault kind %q", s)
}

// TopologyFaultSpec schedules one fabric fault (see Config.TopologyFaults).
type TopologyFaultSpec struct {
	// Kind selects the fault.
	Kind TopologyFaultKind
	// At is the virtual time of the fault (flaps: of the first cycle).
	At time.Duration
	// Trunk is the target trunk's wiring index (trunk kinds).
	Trunk int
	// Switch is the target switch index (switch kinds).
	Switch int
	// Period is one full TrunkFlap cycle — down for Period/2, up for
	// Period/2 (default 100ms).
	Period time.Duration
	// Count is the number of TrunkFlap cycles (default 1).
	Count int
	// Propagation, when positive, is TrunkDegrade's new trunk
	// propagation delay.
	Propagation time.Duration
	// BitErrorRate, when non-nil, is TrunkDegrade's new per-bit
	// corruption probability (0 restores a clean wire).
	BitErrorRate *float64
}

// topoEvent is one expanded, staged fault application.
type topoEvent struct {
	at    time.Duration
	kind  TopologyFaultKind
	trunk int
	sw    int
	prop  time.Duration
	ber   float64 // negative keeps the current rate
}

// topoFaultState is the fault engine's runtime state on a Testbed.
type topoFaultState struct {
	// events is the expanded schedule, sorted by time; planned once at
	// build and reused across Reset.
	events []topoEvent
	// next indexes the first unapplied event.
	next int
	// delay is the resolved reconvergence latency.
	delay time.Duration

	// One pending reconvergence at a time: triggers while one is
	// pending coalesce into it (reconvergeFrom keeps the earliest).
	reconvergePending bool
	reconvergeAt      time.Duration
	reconvergeFrom    time.Duration

	failovers       uint64
	reconvergeTotal time.Duration
	reconvergeLast  time.Duration

	// log journals applied fabric faults for RunReport.Faults.
	log []InjectedFault
}

// planTopoFaults validates the fault specs against a planned fabric of
// the given size and expands them into the sorted event schedule. Part
// of the build plan; Reset re-arms the same schedule.
func planTopoFaults(specs []TopologyFaultSpec, multiSwitch bool, trunks, switches int) ([]topoEvent, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	if !multiSwitch {
		return nil, rejectf("trunk_faults", "TopologyFaults require a multi-switch Topology")
	}
	var events []topoEvent
	for si := range specs {
		f := &specs[si]
		reject := func(member, format string, args ...any) error {
			return rejectf(fmt.Sprintf("trunk_faults[%d]%s", si, member), format, args...)
		}
		if f.At < 0 {
			return nil, reject(".at", "topology fault %d at negative time %v", si, f.At)
		}
		ev := topoEvent{at: f.At, kind: f.Kind, trunk: f.Trunk, sw: f.Switch, ber: -1}
		switch f.Kind {
		case TrunkDown, TrunkUp, TrunkFlap, TrunkDegrade:
			if f.Trunk < 0 || f.Trunk >= trunks {
				return nil, reject(".trunk", "topology fault targets trunk %d (fabric has %d)", f.Trunk, trunks)
			}
		case SwitchDown, SwitchUp:
			if f.Switch < 0 || f.Switch >= switches {
				return nil, reject(".switch", "topology fault targets switch %d (fabric has %d)", f.Switch, switches)
			}
		default:
			return nil, reject(".kind", "topology fault %d has unknown kind %d", si, f.Kind)
		}
		switch f.Kind {
		case TrunkFlap:
			period := f.Period
			if period <= 0 {
				period = 100 * time.Millisecond
			}
			count := f.Count
			if count <= 0 {
				count = 1
			}
			if count > maxFlapCycles {
				return nil, reject(".count", "trunk_flap fault %d has %d cycles (limit %d)", si, count, maxFlapCycles)
			}
			for c := 0; c < count; c++ {
				ev.at, ev.kind = f.At+time.Duration(c)*period, TrunkDown
				events = append(events, ev)
				ev.at, ev.kind = ev.at+period/2, TrunkUp
				events = append(events, ev)
			}
			continue
		case TrunkDegrade:
			if f.Propagation <= 0 && f.BitErrorRate == nil {
				return nil, reject("", "trunk_degrade fault %d overrides neither Propagation nor BitErrorRate", si)
			}
			ev.prop = f.Propagation
			if f.BitErrorRate != nil {
				if *f.BitErrorRate < 0 {
					return nil, reject(".bit_error_rate", "trunk_degrade fault %d has negative BitErrorRate", si)
				}
				ev.ber = *f.BitErrorRate
			}
		}
		events = append(events, ev)
	}
	// Stable by time: same-instant faults apply in spec order.
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events, nil
}

// resetTopoFaults rewinds the fault engine (Reset): counters and journal
// clear, the schedule rewinds to its first event. The caller has already
// restored trunk block/fail/profile state.
func (tb *Testbed) resetTopoFaults() {
	st := &tb.topo
	st.next = 0
	st.reconvergePending = false
	st.reconvergeAt, st.reconvergeFrom = 0, 0
	st.failovers = 0
	st.reconvergeTotal, st.reconvergeLast = 0, 0
	st.log = st.log[:0]
}

// applyTopoFault mutates the fabric for one staged event. Runs at a
// window barrier with every shard parked.
func (tb *Testbed) applyTopoFault(ev topoEvent) {
	switch ev.kind {
	case TrunkDown:
		tb.applyTrunkFailed(ev.trunk, true, ev.at)
	case TrunkUp:
		tb.applyTrunkFailed(ev.trunk, false, ev.at)
	case TrunkDegrade:
		tb.applyTrunkDegrade(ev.trunk, ev.prop, ev.ber, ev.at)
	case SwitchDown:
		tb.applySwitchDown(ev.sw, true, ev.at)
	case SwitchUp:
		tb.applySwitchDown(ev.sw, false, ev.at)
	}
}

// applyTrunkFailed fails or restores a trunk: port fault flags on both
// ends, egress queue flush on failure (in-flight frames still arrive
// and are discarded at the dead far port), and a reconvergence trigger.
// A restored trunk stays blocked until reconvergence re-admits it.
func (tb *Testbed) applyTrunkFailed(ti int, failed bool, at time.Duration) {
	tr := &tb.trunks[ti]
	if tr.failed == failed {
		return
	}
	tr.failed = failed
	tb.fabric[tr.wire.a].SetPortFailed(tr.pa, failed)
	tb.fabric[tr.wire.b].SetPortFailed(tr.pb, failed)
	// Dead or freshly restored, the trunk is out of the active tree
	// until reconvergence says otherwise.
	tb.setTrunkBlocked(ti, true)
	tr.ch.SetFailed(failed)
	kind := "trunk_up"
	if failed {
		kind = "trunk_down"
	}
	tb.logTopoFault(at, kind, ti, -1)
	tb.scheduleReconverge(at)
	tb.recomputeShardLookahead()
}

// applyTrunkDegrade overrides a trunk's live profile. The link stays up:
// no reconvergence, but the shard lookahead re-derives (a longer
// propagation buys longer windows; a shorter one must tighten them).
func (tb *Testbed) applyTrunkDegrade(ti int, prop time.Duration, ber float64, at time.Duration) {
	tr := &tb.trunks[ti]
	tr.ch.SetProfile(prop, ber)
	tb.logTopoFault(at, "trunk_degrade", ti, -1)
	tb.recomputeShardLookahead()
}

// applySwitchDown crashes or restarts a switch. A down switch discards
// all ingress and drops its pipeline at fire time; frames already
// committed to its egress queues drain (they left the forwarding plane
// before the crash). Either transition triggers reconvergence.
func (tb *Testbed) applySwitchDown(si int, down bool, at time.Duration) {
	sw := tb.fabric[si]
	if sw.Down() == down {
		return
	}
	sw.SetDown(down)
	if !down {
		// A restarting switch boots with every trunk port blocked until
		// reconvergence re-admits its trunks to the tree.
		for _, ti := range tb.forest.adj[si] {
			if !tb.trunks[ti].failed {
				tb.setTrunkBlocked(ti, true)
			}
		}
	}
	kind := "switch_up"
	if down {
		kind = "switch_down"
	}
	tb.logTopoFault(at, kind, -1, si)
	tb.scheduleReconverge(at)
}

// scheduleReconverge arms (or coalesces into) the pending reconvergence
// activation at trigger time + ReconvergeDelay.
func (tb *Testbed) scheduleReconverge(at time.Duration) {
	st := &tb.topo
	if st.reconvergePending {
		return
	}
	st.reconvergePending = true
	st.reconvergeFrom = at
	st.reconvergeAt = at + st.delay
}

// activateReconverge recomputes the spanning forest over the live fabric
// and applies the block/unblock diff: the deterministic wiring-order BFS
// promotes the best redundant trunk for every lost tree edge. Any change
// flushes MAC tables fabric-wide (stale entries point into the old tree)
// and counts as a failover.
func (tb *Testbed) activateReconverge() {
	st := &tb.topo
	if !st.reconvergePending {
		return
	}
	st.reconvergePending = false
	now := st.reconvergeAt
	tb.forest.walk(
		func(ti int) bool { return tb.trunks[ti].failed },
		func(si int) bool { return tb.fabric[si].Down() })
	changed := 0
	for i := range tb.trunks {
		want := !tb.forest.inTree[i] // blocked unless in the live forest
		if tb.trunks[i].failed {
			want = true
		}
		if tb.trunkBlocked(i) != want {
			tb.setTrunkBlocked(i, want)
			changed++
		}
	}
	st.reconvergeLast = now - st.reconvergeFrom
	st.reconvergeTotal += st.reconvergeLast
	if changed == 0 {
		// The topology change had no forwarding consequence (a leaf
		// trunk with no redundant path): not a failover.
		return
	}
	for _, sw := range tb.fabric {
		if !sw.Down() {
			sw.FlushTable()
		}
	}
	st.failovers++
	tb.logTopoFault(now, "reconverge", -1, -1)
}

// logTopoFault journals one applied fabric fault.
func (tb *Testbed) logTopoFault(at time.Duration, kind string, trunk, sw int) {
	f := InjectedFault{At: at, Node: "fabric", Kind: kind}
	switch {
	case trunk >= 0:
		f.PacketType = fmt.Sprintf("trunk%d", trunk)
	case sw >= 0:
		f.PacketType = fmt.Sprintf("switch%d", sw)
	}
	tb.topo.log = append(tb.topo.log, f)
}

// applyTopoFaultsUpTo applies every staged fault and pending
// reconvergence due at or before bound, in time order. The run loop
// calls it at each window barrier with all shards parked;
// window ends are capped at nextBoundary so no simulation event at
// or after a fault time can execute before the fault applies. Reports
// whether anything was applied.
func (tb *Testbed) applyTopoFaultsUpTo(bound time.Duration) bool {
	st := &tb.topo
	applied := false
	for {
		evOK := st.next < len(st.events)
		var evAt time.Duration
		if evOK {
			evAt = st.events[st.next].at
		}
		switch {
		case evOK && evAt <= bound && (!st.reconvergePending || evAt <= st.reconvergeAt):
			ev := st.events[st.next]
			st.next++
			tb.applyTopoFault(ev)
		case st.reconvergePending && st.reconvergeAt <= bound:
			tb.activateReconverge()
		default:
			return applied
		}
		applied = true
	}
}

// nextBoundary reports the next unapplied fault, pending reconvergence
// or sample time (a window bound).
func (tb *Testbed) nextBoundary() (time.Duration, bool) {
	st := &tb.topo
	t, ok := time.Duration(0), false
	if st.next < len(st.events) {
		t, ok = st.events[st.next].at, true
	}
	if st.reconvergePending && (!ok || st.reconvergeAt < t) {
		t, ok = st.reconvergeAt, true
	}
	if s := tb.sampler; s != nil && (!ok || s.Due() < t) {
		t, ok = s.Due(), true
	}
	return t, ok
}

// recomputeShardLookahead re-derives the conservative window lookahead
// from the live (non-failed) trunks. A failed trunk cannot start a new
// transmission, so it no longer constrains windows; its still-in-flight
// frames are covered by the unconditional earliest-trunk-arrival bound.
func (tb *Testbed) recomputeShardLookahead() {
	sr := tb.shards
	sr.lookahead = 0
	for i := range tb.trunks {
		tr := &tb.trunks[i]
		if tr.failed {
			continue
		}
		if la := tr.ch.Lookahead(); sr.lookahead == 0 || la < sr.lookahead {
			sr.lookahead = la
		}
	}
}
