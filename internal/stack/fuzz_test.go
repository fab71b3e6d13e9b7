package stack_test

import (
	"testing"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
	"virtualwire/internal/rether"
	"virtualwire/internal/rll"
	"virtualwire/internal/sim"
	"virtualwire/internal/stack"
	"virtualwire/internal/tcp"
)

var (
	macA, macB = packet.MAC{0, 0, 0, 0, 0, 1}, packet.MAC{0, 0, 0, 0, 0, 2}
	ipA, ipB   = packet.IP{10, 0, 0, 1}, packet.IP{10, 0, 0, 2}
)

// capture is a layer neighbour that keeps what reaches it.
type capture struct{ frames []*ether.Frame }

func (c *capture) SendDown(fr *ether.Frame)  { c.frames = append(c.frames, fr) }
func (c *capture) DeliverUp(fr *ether.Frame) { c.frames = append(c.frames, fr) }

// FuzzFrameHeaders: MODIFY rewrites header bytes and bit errors flip
// them, so every layer above the wire is handed frames whose RLL, Rether,
// IPv4 and TCP headers say anything. Whatever arrives, the packet
// decoders and the DeliverUp of an RLL, a Rether node and a host's IP
// stack with a listening TCP endpoint must not panic — before or after
// the timers the frame armed have fired.
func FuzzFrameHeaders(f *testing.F) {
	tcpSyn := make([]byte, packet.TCPFrameLen(0))
	packet.PutTCPFrame(tcpSyn, macA, macB, ipA, ipB, packet.TCP{SrcPort: 0x6000, DstPort: 0x4000, Seq: 1, Flags: packet.TCPSyn, Window: 65535}, nil)
	tcpData := make([]byte, packet.TCPFrameLen(4))
	packet.PutTCPFrame(tcpData, macA, macB, ipA, ipB, packet.TCP{SrcPort: 0x6000, DstPort: 0x4000, Seq: 2, Ack: 1, Flags: packet.TCPAck, Window: 65535}, []byte("data"))
	udp := packet.BuildUDPFrame(macA, macB, ipA, ipB, packet.UDP{SrcPort: 9001, DstPort: 9000}, []byte("ping"))
	token := make([]byte, packet.RetherFrameLen(0))
	packet.PutRetherFrame(token, macA, macB, packet.Rether{Type: packet.RetherToken, TokenSeq: 7}, nil)
	sync := make([]byte, packet.RetherFrameLen(12))
	packet.PutRetherFrame(sync, macA, macB, packet.Rether{Type: packet.RetherRingSync, TokenSeq: 2}, append(macA[:], macB[:]...))
	// A valid RLL data frame, CRC and all: what a peer's RLL sends.
	var wire capture
	peer := rll.New(sim.NewScheduler(1), macA, rll.Config{})
	peer.SetBelow(&wire)
	peer.SendDown(&ether.Frame{Data: append([]byte(nil), tcpData...)})
	for _, seed := range [][]byte{tcpSyn, tcpData, udp, token, sync, wire.frames[0].Data, {}, tcpSyn[:13], tcpSyn[:20]} {
		f.Add(seed, false)
	}
	f.Add(wire.frames[0].Data, true)

	f.Fuzz(func(t *testing.T, data []byte, corrupt bool) {
		for off := 0; off <= len(data); off++ {
			b := data[off:]
			packet.DecodeEth(b)
			packet.DecodeIPv4(b)
			packet.DecodeUDP(b)
			packet.DecodeTCP(b)
			packet.DecodeRether(b)
		}

		sched := sim.NewScheduler(1)
		frame := func() *ether.Frame { return &ether.Frame{Data: append([]byte(nil), data...), Corrupt: corrupt} }

		var below, above capture
		link := rll.New(sched, macB, rll.Config{})
		link.SetBelow(&below)
		link.SetAbove(&above)
		link.DeliverUp(frame())

		node := rether.New(sched, macB, rether.Config{Ring: []packet.MAC{macA, macB}})
		node.SetBelow(&below)
		node.SetAbove(&above)
		node.Start()
		node.DeliverUp(frame())

		h := stack.NewHost(sched, "b", macB, ipB)
		h.Neighbors[ipA] = macA
		h.Build()
		if _, err := tcp.NewStack(h).Listen(0x4000); err != nil {
			t.Fatal(err)
		}
		h.IPv4.DeliverUp(frame())

		if err := sched.RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
	})
}
