package tcp

import (
	"reflect"
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/stack"
)

// lossyRun is a transfer of n bytes from node1 to node2 whose receiver
// loses the 3rd and 7th data segments it is sent, so the run both
// reassembles out of order and retransmits. It runs until horizon on p,
// which must have been built with the run's drop layer on node2.
type lossyRun struct {
	drop    *dropLayer
	seen    int
	cli     *Conn
	srv     *Conn
	payload []byte
	rcvd    []byte
}

func newLossyRun(n int) *lossyRun {
	r := &lossyRun{payload: make([]byte, n)}
	for i := range r.payload {
		r.payload[i] = byte(i % 251)
	}
	r.drop = &dropLayer{dropUp: func(fr *ether.Frame) bool {
		if tcpFlagsOf(fr)&packet.TCPPsh == 0 {
			return false
		}
		r.seen++
		return r.seen == 3 || r.seen == 7
	}}
	return r
}

func (r *lossyRun) run(t *testing.T, p *pair, horizon time.Duration) {
	t.Helper()
	r.seen, r.cli, r.srv, r.rcvd = 0, nil, nil, nil
	lst, err := p.t2.Listen(0x4000)
	if err != nil {
		t.Fatal(err)
	}
	lst.OnAccept = func(c *Conn) {
		r.srv = c
		c.OnData = func(d []byte) { r.rcvd = append(r.rcvd, d...) }
		c.OnClose = func() { c.Close() }
	}
	if r.cli, err = p.t1.Connect(0x6000, p.h2.IP, 0x4000); err != nil {
		t.Fatal(err)
	}
	r.cli.OnConnected = func() {
		r.cli.Send(r.payload)
		r.cli.Close()
	}
	if err := p.sched.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
}

// connState is c without what two equal connections may differ in: the
// owners, the timer and handlers, and the capacity of the buffers.
func connState(c *Conn) Conn {
	v := *c
	v.stack, v.listener, v.rtx = nil, nil, nil
	v.OnConnected, v.OnData, v.OnClose, v.OnFail = nil, nil, nil, nil
	v.onRTOFn, v.onSynFn = nil, nil
	if len(v.rtxQ) == 0 {
		v.rtxQ = nil
	}
	if len(v.oo) == 0 {
		v.oo = nil
	}
	return v
}

// resetPair rewinds every component of p, the way a testbed Reset does.
func resetPair(p *pair, seed int64) {
	p.sched.Reset(seed)
	p.sw.Reset()
	for _, h := range []*stack.Host{p.h1, p.h2} {
		h.Reset()
	}
	p.t1.Reset()
	p.t2.Reset()
}

// TestResetRecyclesConnsAsFresh: Reset puts every connection of the run
// on the stack's free list in its zero state, keeping only its timer, its
// bound handlers and the capacity of its buffers; no entry of a released
// retransmission queue still holds a slice of an old send buffer; and a
// run over recycled connections does exactly what a run over fresh ones
// does.
func TestResetRecyclesConnsAsFresh(t *testing.T) {
	const seed, n = 11, 64 << 10

	// A run cut short while segments are in flight and one is held out
	// of order: the connections are released mid-transfer.
	r := newLossyRun(n)
	p := newPair(t, seed, nil, []stack.Layer{r.drop})
	r.run(t, p, 3*time.Millisecond)
	cli, srv := r.cli, r.srv
	if len(cli.rtxQ) == 0 || len(srv.oo) == 0 {
		t.Fatalf("cut run left %d segments unacknowledged and %d out of order, want both > 0",
			len(cli.rtxQ), len(srv.oo))
	}
	resetPair(p, seed)
	if len(p.t1.free) != 1 || len(p.t2.free) != 1 {
		t.Fatalf("free lists hold %d and %d conns after Reset, want 1 each", len(p.t1.free), len(p.t2.free))
	}
	for role, c := range map[string]*Conn{"client": cli, "server": srv} {
		if got := connState(c); !reflect.DeepEqual(got, Conn{}) {
			t.Errorf("released %s conn is not in its zero state: state %v, seq %d, %d bytes buffered",
				role, got.state, got.sndNxt, len(got.sndBuf))
		}
		if c.rtx == nil || c.onRTOFn == nil || c.onSynFn == nil || c.rtx.Armed() {
			t.Errorf("released %s conn lost its timer or handlers, or its timer is armed", role)
		}
		for i, s := range c.rtxQ[:cap(c.rtxQ)] {
			if s.data != nil || s.seq != 0 || s.fin {
				t.Errorf("released %s conn: retransmission queue slot %d still holds %d bytes at seq %d", role, i, len(s.data), s.seq)
			}
		}
	}
	if cap(cli.rtxQ) == 0 {
		t.Error("the client's retransmission queue lost its capacity")
	}

	// The same lossy run on the recycled connections and on a fresh pair.
	r.run(t, p, 30*time.Second)
	if r.cli != cli || r.srv != srv {
		t.Fatal("the run after Reset did not reuse the released connections")
	}
	fresh := newLossyRun(n)
	q := newPair(t, seed, nil, []stack.Layer{fresh.drop})
	fresh.run(t, q, 30*time.Second)

	if len(fresh.rcvd) != n || fresh.cli.Stats.Retransmissions == 0 {
		t.Fatalf("fresh run delivered %d of %d bytes with %d retransmissions, want all and > 0",
			len(fresh.rcvd), n, fresh.cli.Stats.Retransmissions)
	}
	if !reflect.DeepEqual(r.rcvd, fresh.rcvd) {
		t.Error("recycled and fresh runs delivered different bytes")
	}
	for role, c := range map[string][2]*Conn{"client": {r.cli, fresh.cli}, "server": {r.srv, fresh.srv}} {
		if got, want := connState(c[0]), connState(c[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("recycled %s conn ends in another state than a fresh one: cwnd %d/%d, srtt %v/%v, stats %+v/%+v",
				role, got.cwnd, want.cwnd, got.srtt, want.srtt, got.Stats, want.Stats)
		}
	}
	for _, s := range [][2]*Stack{{p.t1, q.t1}, {p.t2, q.t2}} {
		if got, want := s[0].TotalStats(), s[1].TotalStats(); got != want {
			t.Errorf("recycled stack totals %+v, fresh %+v", got, want)
		}
	}
	if got, want := p.sched.Now(), q.sched.Now(); got != want {
		t.Errorf("recycled run ends at %v, fresh at %v", got, want)
	}
}

// TestResetRecyclesListeners: Reset zeroes every listener of the run,
// closed or not, and drops it from the port table; the next run's n-th
// Listen takes this run's n-th listener back, bound to its new port, and
// allocates nothing.
func TestResetRecyclesListeners(t *testing.T) {
	p := newPair(t, 1, nil, nil)
	ports := []uint16{0x4000, 0x4001, 0x4002}
	listen := func() []*Listener {
		var ls []*Listener
		for _, port := range ports {
			l, err := p.t2.Listen(port)
			if err != nil {
				t.Fatal(err)
			}
			l.OnAccept = func(*Conn) {}
			ls = append(ls, l)
		}
		return ls
	}
	first := listen()
	first[1].Close()
	resetPair(p, 1)
	for i, l := range first {
		if l.stack != nil || l.Port != 0 || l.OnAccept != nil {
			t.Errorf("listener %d is not zero after Reset: port %d", i, l.Port)
		}
	}
	if len(p.t2.listeners) != 0 {
		t.Fatalf("%d ports still listening after Reset", len(p.t2.listeners))
	}
	ports[0], ports[2] = ports[2], ports[0]
	for i, l := range listen() {
		if l != first[i] {
			t.Errorf("Listen %d after Reset made a new listener, want the run's %d-th back", i, i)
		}
		if l.Port != ports[i] || l.stack != p.t2 || p.t2.listeners[ports[i]] != l {
			t.Errorf("recycled listener %d is bound to port %d, want %d", i, l.Port, ports[i])
		}
	}
	resetPair(p, 1)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := p.t2.Listen(0x5000); err != nil {
			t.Fatal(err)
		}
		p.t2.Reset()
	}); allocs != 0 {
		t.Errorf("Listen on a reset stack allocates %.0f objects", allocs)
	}
}
