package ether_test

import (
	"testing"

	"virtualwire/internal/core"
	"virtualwire/internal/ether"
	"virtualwire/internal/fsl"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
)

// idleScript loads an engine with a filter table and a live counter that
// the tests' traffic never matches: classification runs on every frame,
// nothing fires.
const idleScript = `
FILTER_TABLE
other: (23 1 0x11), (36 2 0x2328)
END

NODE_TABLE
node1 00:00:00:00:00:01 10.0.0.1
node2 00:00:00:00:00:02 10.0.0.2
END

SCENARIO idle
SEEN: (other, node1, node2, RECV)
(TRUE) >> ENABLE_CNTR( SEEN );
END
`

// engines returns a layer constructor for newHostPair that puts an
// engine, loaded with script and active, on each host.
func engines(t *testing.T, script string) func(side int, s *sim.Scheduler, pool *ether.FramePool) []stack.Layer {
	t.Helper()
	prog, err := fsl.Compile(script)
	if err != nil {
		t.Fatal(err)
	}
	return func(side int, s *sim.Scheduler, pool *ether.FramePool) []stack.Layer {
		e := core.NewEngine(s, prog.Nodes[side].MAC)
		e.SetPool(pool)
		e.LoadLocal(prog, core.NodeID(side), 0)
		e.Activate()
		return []stack.Layer{e}
	}
}

// TestSteadyStateDataPathDoesNotAllocate extends ether's
// TestSteadyStateHopsDoNotAllocate from one hop to the whole data path:
// once pools, event free lists and MAC tables are warm, a TCP data
// segment and its acknowledgement, and a UDP datagram and its echo, each
// travel stack → engine → NIC → switch → NIC → engine → IP → transport
// and back without allocating. The frame is built in a recycled buffer,
// handed over (not cloned) at both hops, and recycled by the receiving
// IP stack; the segment's bytes are sent straight out of the slice given
// to Send. No site is left over: the expected count is exactly zero.
func TestSteadyStateDataPathDoesNotAllocate(t *testing.T) {
	t.Run("tcp-segment-and-ack", func(t *testing.T) {
		p := newHostPair(false, engines(t, idleScript))
		lst, err := p.tcps[1].Listen(0x4000)
		if err != nil {
			t.Fatal(err)
		}
		delivered := 0
		lst.OnAccept = func(c *tcp.Conn) {
			c.OnData = func(d []byte) { delivered += len(d) }
		}
		cli, err := p.tcps[0].Connect(0x6000, p.hosts[1].IP, 0x4000)
		if err != nil {
			t.Fatal(err)
		}
		segment := pattern(tcp.MSS)
		// One round trip: a full segment out, its acknowledgement back.
		roundTrip := func() {
			want, acks := delivered+len(segment), p.hosts[0].NIC.Stats.RxFrames+1
			cli.Send(segment)
			for (delivered < want || p.hosts[0].NIC.Stats.RxFrames < acks) && p.sched.Step() {
			}
			if delivered != want {
				t.Fatalf("segment not delivered (%d of %d bytes)", delivered, want)
			}
		}
		for cli.State() != tcp.StateEstablished && p.sched.Step() {
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
			t.Errorf("steady-state TCP segment + ACK allocates %.1f objects, want 0", allocs)
		}
	})
	t.Run("udp-echo", func(t *testing.T) {
		p := newHostPair(false, engines(t, idleScript))
		srv, err := p.hosts[1].UDP.Bind(9001)
		if err != nil {
			t.Fatal(err)
		}
		srv.OnDatagram = func(src packet.IP, port uint16, d []byte) { _ = srv.SendTo(src, port, d) }
		cli, err := p.hosts[0].UDP.Bind(9002)
		if err != nil {
			t.Fatal(err)
		}
		echoes := 0
		cli.OnDatagram = func(packet.IP, uint16, []byte) { echoes++ }
		payload := pattern(64)
		roundTrip := func() {
			want := echoes + 1
			_ = cli.SendTo(p.hosts[1].IP, 9001, payload)
			for echoes < want && p.sched.Step() {
			}
			if echoes != want {
				t.Fatal("datagram not echoed")
			}
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
			t.Errorf("steady-state UDP echo allocates %.1f objects, want 0", allocs)
		}
	})
}
