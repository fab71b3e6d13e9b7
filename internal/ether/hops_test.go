package ether

import (
	"testing"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// hopRig is two host NICs across one medium, exchanging pooled frames:
// hop sends one frame a → b and runs the simulation until b has it.
type hopRig struct {
	pool      *FramePool
	a         *NIC
	got, want int
	// run advances the simulation until done reports true.
	run func(done func() bool)
	// done reports got >= want; bound once so hop itself allocates
	// nothing.
	done func() bool
}

func (r *hopRig) hop(t testing.TB) {
	fr := r.pool.Get(packet.EthHeaderLen + 100)
	packet.PutEth(fr.Data, packet.Eth{Dst: mac(2), Src: mac(1), Type: 0x0800})
	r.want = r.got + 1
	r.a.Send(fr)
	r.run(r.done)
	if r.got != r.want {
		t.Fatalf("frame not delivered (%d of %d)", r.got, r.want)
	}
}

func newHopRig(attach func(s *sim.Scheduler, pool *FramePool, a, b *NIC) (run func(done func() bool))) *hopRig {
	s := sim.NewScheduler(1)
	r := &hopRig{pool: NewFramePool(), a: NewNIC(s, mac(1), 0)}
	r.done = func() bool { return r.got >= r.want }
	b := NewNIC(s, mac(2), 0)
	r.run = attach(s, r.pool, r.a, b)
	if r.run == nil {
		r.run = func(done func() bool) {
			for !done() && s.Step() {
			}
		}
	}
	b.SetRecv(func(fr *Frame) {
		r.got++
		// b answers, so the switches learn where a lives too and the
		// steady state is unicast both ways.
		if r.got == 1 {
			re := r.pool.Get(len(fr.Data))
			packet.PutEth(re.Data, packet.Eth{Dst: mac(1), Src: mac(2), Type: 0x0800})
			b.Send(re)
		}
		r.pool.Put(fr)
	})
	r.a.SetRecv(func(fr *Frame) { r.pool.Put(fr) })
	return r
}

// trunkRig is the windowed run loop cut down to one scheduler, for tests
// that join switches with trunks: events run in lookahead-bounded
// windows and the trunks' mailboxes drain between them.
type trunkRig struct {
	s         *sim.Scheduler
	ts        *TrunkSet
	lookahead time.Duration
}

func newTrunkRig(s *sim.Scheduler) *trunkRig {
	return &trunkRig{s: s, ts: NewTrunkSet(1)}
}

// connect joins two switches and returns the new port index on each.
func (r *trunkRig) connect(a, b *Switch, cfg LinkConfig) (aPort, bPort int) {
	ch, aPort, bPort := ConnectTrunkChannel(a, b, cfg, cfg)
	r.ts.Track(ch, 0, 0)
	if la := ch.Lookahead(); r.lookahead == 0 || la < r.lookahead {
		r.lookahead = la
	}
	return aPort, bPort
}

// run advances the simulation until done reports true (nil: never) or
// nothing is queued or in flight.
func (r *trunkRig) run(done func() bool) error {
	for done == nil || !done() {
		m, ok := r.s.PeekTime()
		if !ok {
			return nil
		}
		end := m + r.lookahead
		if t, ok := r.ts.EarliestPending(); ok && t < end {
			end = t
		}
		if end <= m {
			end = m + 1
		}
		if err := r.s.RunWindow(end, end); err != nil {
			return err
		}
		r.ts.Drain()
	}
	return nil
}

// TestSteadyStateHopsDoNotAllocate pins the closure-free hop path: once
// the event free list and the frame pool are warm, moving
// a frame NIC → switch → NIC, across a shared bus, or across a mailbox
// trunk between two switches allocates nothing — every per-hop event
// carries its receiver, frame and port index in the recycled Event.
func TestSteadyStateHopsDoNotAllocate(t *testing.T) {
	rigs := map[string]*hopRig{
		"switch": newHopRig(func(s *sim.Scheduler, pool *FramePool, a, b *NIC) func(func() bool) {
			sw := NewSwitch(s, SwitchConfig{Pool: pool})
			sw.AttachHost(a)
			sw.AttachHost(b)
			return nil
		}),
		"switch-fullduplex": newHopRig(func(s *sim.Scheduler, pool *FramePool, a, b *NIC) func(func() bool) {
			sw := NewSwitch(s, SwitchConfig{Pool: pool, FullDuplex: true})
			sw.AttachHost(a)
			sw.AttachHost(b)
			return nil
		}),
		"bus": newHopRig(func(s *sim.Scheduler, pool *FramePool, a, b *NIC) func(func() bool) {
			bus := NewSharedBus(s, BusConfig{Pool: pool})
			bus.Attach(a)
			bus.Attach(b)
			return nil
		}),
		"trunk": newHopRig(func(s *sim.Scheduler, pool *FramePool, a, b *NIC) func(func() bool) {
			sa := NewSwitch(s, SwitchConfig{Pool: pool, ID: 1})
			sb := NewSwitch(s, SwitchConfig{Pool: pool, ID: 2})
			tr := newTrunkRig(s)
			tr.connect(sa, sb, LinkConfig{BitsPerSecond: 1e9, Propagation: 10 * time.Microsecond, Pool: pool})
			sa.AttachHost(a)
			sb.AttachHost(b)
			return func(done func() bool) { _ = tr.run(done) }
		}),
	}
	for name, r := range rigs {
		r := r
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 8; i++ { // fill pool and free lists
				r.hop(t)
			}
			if allocs := testing.AllocsPerRun(50, func() { r.hop(t) }); allocs != 0 {
				t.Errorf("steady-state %s hop allocates %.1f objects, want 0", name, allocs)
			}
		})
	}
}

// TestSharedBusResetKeepsTransmissions: Reset in mid-transmission returns
// the in-flight activeTx objects to the free list and keeps the lists'
// capacity, so the next run's first frames reuse them instead of
// allocating a transmission (and its completion closure) each.
func TestSharedBusResetKeepsTransmissions(t *testing.T) {
	s := sim.NewScheduler(1)
	pool := NewFramePool()
	bus := NewSharedBus(s, BusConfig{Pool: pool})
	a, b := NewNIC(s, mac(1), 0), NewNIC(s, mac(2), 0)
	bus.Attach(a)
	bus.Attach(b)
	b.SetRecv(func(fr *Frame) { pool.Put(fr) })
	send := func() {
		fr := pool.Get(200)
		packet.PutEth(fr.Data, packet.Eth{Dst: mac(2), Src: mac(1), Type: 0x0800})
		a.Send(fr)
	}
	cycle := func() {
		send() // starts transmitting: one activeTx in flight
		if len(bus.active) != 1 {
			t.Fatalf("%d active transmissions, want 1", len(bus.active))
		}
		s.Reset(1)
		a.Reset()
		b.Reset()
		bus.Reset()
		if len(bus.active) != 0 || len(bus.waiting) != 0 {
			t.Fatalf("Reset left %d active, %d waiting", len(bus.active), len(bus.waiting))
		}
	}
	cycle()
	if len(bus.free) != 1 {
		t.Fatalf("in-flight transmission not recycled: free list has %d", len(bus.free))
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("send + mid-flight Reset allocates %.1f objects, want 0", allocs)
	}
}

// TestTrunkSetMatchesFullScan: the coordinator's busy list must give
// exactly the window bounds and drain order that scanning every trunk
// in wiring order gives — the delivery log of a hub-and-leaves fabric
// under simultaneous broadcasts (equal-time deposits on every trunk,
// woken in reverse wiring order) is identical either way.
func TestTrunkSetMatchesFullScan(t *testing.T) {
	const leaves = 5
	type delivery struct {
		at   time.Duration
		host int
		src  packet.MAC
	}
	run := func(tracked bool) []delivery {
		s := sim.NewScheduler(1)
		pool := NewFramePool()
		hub := NewSwitch(s, SwitchConfig{Pool: pool, ID: 100})
		lc := LinkConfig{BitsPerSecond: 1e9, Propagation: 10 * time.Microsecond, Pool: pool}
		ts := NewTrunkSet(1)
		var chans []*TrunkChannel
		var hosts []*NIC
		var log []delivery
		for i := 0; i < leaves; i++ {
			leaf := NewSwitch(s, SwitchConfig{Pool: pool, ID: i + 1})
			ch, _, _ := ConnectTrunkChannel(hub, leaf, lc, lc)
			if tracked {
				ts.Track(ch, 0, 0)
			}
			chans = append(chans, ch)
			h := NewNIC(s, mac(byte(i+1)), 0)
			leaf.AttachHost(h)
			i := i
			h.SetRecv(func(fr *Frame) {
				log = append(log, delivery{s.Now(), i, fr.Src()})
				pool.Put(fr)
			})
			hosts = append(hosts, h)
		}
		for round := 0; round < 3; round++ {
			for i := leaves - 1; i >= 0; i-- { // reverse wiring order
				hosts[i].Send(testFrame(hosts[i].MAC, packet.Broadcast, 64+round))
			}
			for {
				m, ok := s.PeekTime()
				if !ok {
					break
				}
				end := m + chans[0].Lookahead()
				var early time.Duration
				var any bool
				if tracked {
					early, any = ts.EarliestPending()
				} else {
					for _, ch := range chans {
						if e, ok := ch.EarliestPending(); ok && (!any || e < early) {
							early, any = e, true
						}
					}
				}
				if any && early < end {
					end = early
				}
				if end <= m {
					end = m + 1
				}
				if err := s.RunWindow(end, end); err != nil {
					t.Fatal(err)
				}
				if tracked {
					ts.Drain()
				} else {
					for _, ch := range chans {
						ch.Drain()
					}
				}
			}
		}
		return log
	}
	want, got := run(false), run(true)
	if len(want) != 3*leaves*(leaves-1) {
		t.Fatalf("full scan delivered %d frames, want %d", len(want), 3*leaves*(leaves-1))
	}
	if len(got) != len(want) {
		t.Fatalf("tracked run delivered %d frames, full scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: tracked %+v, full scan %+v", i, got[i], want[i])
		}
	}
}
