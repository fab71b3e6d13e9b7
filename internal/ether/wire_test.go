package ether

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// arrival is what a receiver can tell about one frame off a wire.
type arrival struct {
	at      time.Duration
	id      uint64
	corrupt bool
	data    string
}

// wireSend is one scheduled transmission of a randomized schedule.
type wireSend struct {
	at   time.Duration
	dir  int // 0: a → b, 1: b → a
	size int // payload bytes after the Ethernet header
}

// trunkPair is one TrunkChannel between two otherwise empty switches on
// one scheduler, with the switches' trunk-port NICs taken over by the
// test: end[i] transmits direction i and receives direction 1-i, so the
// wires are observed without a forwarding plane behind them.
type trunkPair struct {
	s   *sim.Scheduler
	sw  [2]*Switch
	ch  *TrunkChannel
	end [2]*NIC
	// drained counts deposits moved onto the scheduler as deliveries.
	drained int
}

func newTrunkPair(s *sim.Scheduler, pool *FramePool, queue int, cfg LinkConfig) *trunkPair {
	p := &trunkPair{s: s}
	for i := range p.sw {
		p.sw[i] = NewSwitch(s, SwitchConfig{Pool: pool, QueueFrames: queue, ID: i + 1})
	}
	var ports [2]int
	p.ch, ports[0], ports[1] = ConnectTrunkChannel(p.sw[0], p.sw[1], cfg, cfg)
	for i := range p.end {
		p.end[i] = p.sw[i].ports[ports[i]].nic
		p.end[i].DeliverCorrupt = true
	}
	return p
}

// window runs the events of one conservative window, bounded by the
// trunk's lookahead, its earliest pending arrival and limit, and leaves
// what the window deposited in the mailboxes. It reports false when
// nothing is scheduled before limit.
func (p *trunkPair) window(limit time.Duration) bool {
	m, ok := p.s.PeekTime()
	if !ok || m >= limit {
		return false
	}
	end := m + p.ch.Lookahead()
	if t, ok := p.ch.EarliestPending(); ok && t < end {
		end = t
	}
	if end <= m {
		end = m + 1
	}
	if end > limit {
		end = limit
	}
	if err := p.s.RunWindow(end, end); err != nil {
		panic(err)
	}
	return true
}

func (p *trunkPair) drain() {
	p.drained += p.ch.PendingDeposits()
	p.ch.Drain()
}

// runUntil alternates windows and barrier drains up to limit.
func (p *trunkPair) runUntil(limit time.Duration) {
	for p.window(limit) {
		p.drain()
	}
}

const (
	forever    = time.Duration(1<<63 - 1)
	maxPayload = 1500 // bytes after the Ethernet header
)

// TestTrunkIsLinkPlusMailbox pins the one-wire claim: the same randomized
// schedule of frame sizes and gaps, the same bit error rate and one
// pinned generator produce, over a Link and over a TrunkChannel drained
// at lookahead steps, the identical per-direction sequence of (delivery
// time, frame ID, Corrupt, bytes). A trunk adds a mailbox to a link and
// nothing else.
func TestTrunkIsLinkPlusMailbox(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := LinkConfig{
			BitsPerSecond: []float64{10e6, 100e6, 1e9}[r.Intn(3)],
			Propagation:   time.Duration(1+r.Intn(20000)) * time.Nanosecond,
			BitErrorRate:  []float64{0, 1e-6, 1e-4, 1}[r.Intn(4)],
		}
		var sched []wireSend
		at := time.Duration(0)
		for i := 0; i < 200; i++ {
			// Bursts (zero gaps) queue frames behind the serializer; long
			// gaps let the wire fall silent and the trunk leave its set.
			if r.Intn(3) > 0 {
				at += time.Duration(r.Intn(200000)) * time.Nanosecond
			}
			sched = append(sched, wireSend{at: at, dir: r.Intn(2), size: r.Intn(maxPayload + 1)})
		}

		var got [2][2][]arrival // [medium][direction]
		for medium := range got {
			s := sim.NewScheduler(1)
			var end [2]*NIC
			run := func() { _ = s.Run() }
			if medium == 0 {
				l := NewLink(s, cfg)
				for i := range end {
					end[i] = NewNIC(s, mac(byte(i+1)), 64)
					end[i].Promiscuous, end[i].DeliverCorrupt = true, true
					l.Attach(end[i])
				}
				l.setRand(rand.New(rand.NewSource(seed)))
			} else {
				p := newTrunkPair(s, nil, 64, cfg)
				end = p.end
				shared := rand.New(rand.NewSource(seed))
				p.ch.ab.setRand(shared)
				p.ch.ba.setRand(shared)
				run = func() { p.runUntil(forever) }
			}
			for dir := range end {
				log := &got[medium][dir]
				end[1-dir].SetRecv(func(fr *Frame) {
					*log = append(*log, arrival{s.Now(), fr.ID, fr.Corrupt, string(fr.Data)})
				})
			}
			for _, snd := range sched {
				snd := snd
				s.At(snd.at, "test.send", func() {
					end[snd.dir].Send(testFrame(mac(byte(snd.dir+1)), mac(byte(2-snd.dir)), snd.size))
				})
			}
			run()
		}
		for dir := 0; dir < 2; dir++ {
			link, trunk := got[0][dir], got[1][dir]
			if len(link) == 0 {
				t.Fatalf("seed %d dir %d: nothing delivered", seed, dir)
			}
			if !reflect.DeepEqual(link, trunk) {
				t.Fatalf("seed %d dir %d (%+v): link delivered %d frames, trunk %d, first difference at %d",
					seed, dir, cfg, len(link), len(trunk), firstDiff(link, trunk))
			}
		}
	}
}

func firstDiff(a, b []arrival) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestWireConservation is the frame-conservation identity on one trunk,
// across everything that can happen to a wire: every frame NIC.Send
// accepted is delivered, counted in QueueDrops, or — at Reset — recycled,
// and the pool gets back every frame it handed out.
func TestWireConservation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { wireConservation(t, seed) })
	}
}

func wireConservation(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	s := sim.NewScheduler(seed)
	pool := NewFramePool()
	// A queue of 8 under bursts of 4 to 24 overflows, so both QueueDrops
	// causes (overflow, wire death) occur.
	p := newTrunkPair(s, pool, 8, LinkConfig{BitErrorRate: 1e-5, Pool: pool})
	var sent, accepted, delivered int
	for i := range p.end {
		p.end[i].SetRecv(func(fr *Frame) {
			delivered++
			pool.Put(fr)
		})
	}
	burst := func(at time.Duration) {
		for dir := range p.end {
			n := p.end[dir]
			for k := 4 + r.Intn(21); k > 0; k-- {
				size := packet.EthHeaderLen + r.Intn(maxPayload+1)
				s.At(at, "test.send", func() {
					fr := pool.Get(size)
					packet.PutEth(fr.Data, packet.Eth{Dst: mac(2), Src: mac(1), Type: 0x0800})
					sent++
					if n.Send(fr) {
						accepted++
					}
				})
			}
		}
	}
	queueDrops := func() int {
		return int(p.end[0].Stats.QueueDrops + p.end[1].Stats.QueueDrops)
	}
	// check is the identity at a quiet wire: nothing queued, serializing,
	// deposited or propagating.
	check := func(when string) {
		t.Helper()
		overflow := sent - accepted
		if accepted != delivered+queueDrops()-overflow {
			t.Fatalf("%s: accepted %d != delivered %d + queue drops %d - overflow %d",
				when, accepted, delivered, queueDrops(), overflow)
		}
		if pool.Gets != pool.Puts {
			t.Fatalf("%s: pool gets %d != puts %d", when, pool.Gets, pool.Puts)
		}
	}

	// Fault changes are the coordinator's, made at a barrier with the
	// mailboxes drained; each lands while a burst is still queued.
	const ms = time.Millisecond
	steps := []struct {
		at    time.Duration
		apply func()
	}{
		{1*ms + 20*time.Microsecond, func() {
			if p.ch.SetFailed(true) == 0 {
				t.Fatal("failing the trunk mid-burst dropped nothing")
			}
		}},
		{3 * ms, func() { p.ch.SetFailed(false) }},
		{5*ms + 200*time.Microsecond, func() { p.ch.SetProfile(40*time.Microsecond, 1e-4) }},
	}
	for _, at := range []time.Duration{0, 1 * ms, 2 * ms, 4 * ms, 5 * ms, 6 * ms} {
		burst(at) // the 2 ms burst meets a dead wire and waits for the restore
	}
	for _, st := range steps {
		p.runUntil(st.at)
		st.apply()
	}
	p.runUntil(forever)
	if sent == accepted {
		t.Fatal("no burst overflowed the port queue")
	}
	check("after fail, restore and re-profile")

	// Reset with the wire as busy as it gets: frames queued, one
	// serializing, at least one deposited and not yet drained, none
	// propagating (a cancelled delivery's frame is the garbage
	// collector's, not the pool's), and the trunk failed.
	sent, accepted, delivered, p.drained = 0, 0, 0, 0
	base := queueDrops()
	burst(s.Now())
	for p.window(forever) {
		if p.ch.PendingDeposits() > 0 && p.drained == delivered && p.end[0].QueueLen() > 1 {
			break
		}
		p.drain()
	}
	if p.ch.PendingDeposits() == 0 {
		t.Fatal("schedule never left a deposit undrained with frames still queued")
	}
	if p.ch.SetFailed(true) == 0 {
		t.Fatal("failing the busy trunk dropped nothing")
	}
	dropped := queueDrops() - base - (sent - accepted)
	putsBefore := pool.Puts
	s.Reset(seed)
	for _, sw := range p.sw {
		sw.Reset()
	}
	recycled := int(pool.Puts - putsBefore)
	if recycled == 0 || accepted != delivered+dropped+recycled {
		t.Fatalf("across Reset: accepted %d != delivered %d + dropped %d + recycled %d",
			accepted, delivered, dropped, recycled)
	}
	if pool.Gets != pool.Puts {
		t.Fatalf("after Reset: pool gets %d != puts %d", pool.Gets, pool.Puts)
	}
	if p.ch.Failed() || p.ch.PendingDeposits() != 0 {
		t.Fatalf("Reset left the trunk failed=%v with %d deposits", p.ch.Failed(), p.ch.PendingDeposits())
	}
	if _, pending := p.ch.EarliestPending(); pending {
		t.Fatal("Reset left a transmission marked active")
	}

	// The reset trunk carries traffic again.
	sent, accepted, delivered = 0, 0, 0
	burst(0)
	p.runUntil(forever)
	if delivered == 0 {
		t.Fatal("nothing delivered after Reset")
	}
	check("after Reset")
}
