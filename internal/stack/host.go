package stack

import (
	"fmt"

	"virtualwire/internal/ether"
	"virtualwire/internal/metrics"
	"virtualwire/internal/packet"
	"virtualwire/internal/sim"
)

// Host is one testbed node: an identity (name, MAC, IP — one row of the
// paper's Node Table), a NIC, a layer chain, and the L3/L4 endpoints.
type Host struct {
	Name string
	MAC  packet.MAC
	IP   packet.IP

	Sched *sim.Scheduler
	NIC   *ether.NIC
	IPv4  *IPStack
	UDP   *UDPStack

	// Neighbors is the static ARP table (IP → MAC), built from the
	// scenario's Node Table. A testbed hands every host — on every shard
	// — the same map, read-only once built.
	Neighbors map[packet.IP]packet.MAC

	down Down
}

// NewHost creates a host with the given identity. The layer chain is
// assembled later with Build, after the caller has created whatever
// intermediate layers (RLL, FIE, Rether) this node needs.
func NewHost(sched *sim.Scheduler, name string, mac packet.MAC, ip packet.IP) *Host {
	h := &Host{
		Name:      name,
		MAC:       mac,
		IP:        ip,
		Sched:     sched,
		NIC:       ether.NewNIC(sched, mac, 0),
		Neighbors: make(map[packet.IP]packet.MAC),
	}
	h.IPv4 = newIPStack(h)
	h.UDP = newUDPStack(h)
	return h
}

// Build wires NIC ← layers[0] ← ... ← IPv4. Call exactly once, after the
// NIC has been attached to a medium.
func (h *Host) Build(layers ...Layer) {
	h.down = Chain(h.NIC, h.IPv4, layers...)
}

// Reset returns the host's NIC, IP and UDP state to pristine. The layer
// chain built with Build, the protocol handler registrations and the
// static ARP table are wiring and survive; bound UDP sockets and all
// stat counters do not.
func (h *Host) Reset() {
	h.NIC.Reset()
	h.IPv4.RxPackets = 0
	h.IPv4.RxHeaderErrors = 0
	h.IPv4.RxNoHandler = 0
	for port := range h.UDP.socks {
		delete(h.UDP.socks, port)
	}
}

// SendFrame pushes a fully built frame into the top of the layer chain
// (it traverses every intermediate layer on the way to the wire).
func (h *Host) SendFrame(fr *ether.Frame) {
	if h.down == nil {
		// Not built yet: a programming error surfaced as a silent
		// no-op would be miserable to debug, so send directly.
		h.NIC.Send(fr)
		return
	}
	h.down.SendDown(fr)
}

// LookupMAC resolves an IP through the static ARP table.
func (h *Host) LookupMAC(ip packet.IP) (packet.MAC, error) {
	m, ok := h.Neighbors[ip]
	if !ok {
		return packet.MAC{}, fmt.Errorf("host %s: no ARP entry for %v", h.Name, ip)
	}
	return m, nil
}

// IPStack is the top of the layer chain: it validates IPv4 headers and
// demultiplexes to registered transport handlers.
type IPStack struct {
	host     *Host
	handlers map[byte]func(src, dst packet.IP, payload []byte)
	// RawHandlers receive every inbound frame before IP processing,
	// keyed by ethertype. Rether uses one when it runs above the FIE
	// instead of below IP.
	rawHandlers map[uint16]func(fr *ether.Frame)

	// Stats
	RxPackets      uint64
	RxHeaderErrors uint64
	RxNoHandler    uint64
}

func newIPStack(h *Host) *IPStack {
	return &IPStack{
		host:        h,
		handlers:    make(map[byte]func(src, dst packet.IP, payload []byte)),
		rawHandlers: make(map[uint16]func(fr *ether.Frame)),
	}
}

// Snapshot implements the uniform metrics hook for the IP layer.
func (s *IPStack) Snapshot(sn *metrics.Snapshot) {
	sn.Counter("rx_packets", s.RxPackets)
	sn.Counter("rx_header_errors", s.RxHeaderErrors)
	sn.Counter("rx_no_handler", s.RxNoHandler)
}

// Register installs the handler for an IP protocol number.
func (s *IPStack) Register(proto byte, fn func(src, dst packet.IP, payload []byte)) {
	s.handlers[proto] = fn
}

// RegisterRaw installs a handler for a non-IP ethertype (for example
// Rether control frames when the Rether layer sits at the stack top in
// tests). The frame is valid for the duration of the call.
func (s *IPStack) RegisterRaw(ethertype uint16, fn func(fr *ether.Frame)) {
	s.rawHandlers[ethertype] = fn
}

// DeliverUp implements Up: it is the final stop of the inbound path, so
// the frame's life ends here. Whatever becomes of it — handled, not
// ours, malformed — it is recycled into the host's pool once the handler
// has returned; handlers see slices of its buffer and must copy what
// they keep.
func (s *IPStack) DeliverUp(fr *ether.Frame) {
	s.demux(fr)
	s.host.NIC.Pool().Put(fr)
}

func (s *IPStack) demux(fr *ether.Frame) {
	et := fr.EtherType()
	if h, ok := s.rawHandlers[et]; ok {
		h(fr)
		return
	}
	if et != packet.EtherTypeIPv4 {
		s.RxNoHandler++
		return
	}
	iph, err := packet.DecodeIPv4(fr.Data[packet.OffIPHeader:])
	if err != nil {
		s.RxHeaderErrors++
		return
	}
	if iph.Dst != s.host.IP {
		// Not ours (promiscuous capture or flood); drop silently.
		return
	}
	s.RxPackets++
	// A total length shorter than the header (MODIFY, bit errors) frames
	// no payload at all.
	end := packet.OffIPHeader + int(iph.TotalLen)
	if int(iph.TotalLen) < packet.IPv4HeaderLen || end > len(fr.Data) {
		s.RxHeaderErrors++
		return
	}
	payload := fr.Data[packet.OffIPHeader+packet.IPv4HeaderLen : end]
	h, ok := s.handlers[iph.Proto]
	if !ok {
		s.RxNoHandler++
		return
	}
	h(iph.Src, iph.Dst, payload)
}

// UDPStack provides minimal datagram sockets over the host stack.
type UDPStack struct {
	host  *Host
	socks map[uint16]*UDPSocket
}

func newUDPStack(h *Host) *UDPStack {
	u := &UDPStack{host: h, socks: make(map[uint16]*UDPSocket)}
	h.IPv4.Register(packet.ProtoUDP, u.deliver)
	return u
}

// UDPSocket is a bound UDP port.
type UDPSocket struct {
	stack *UDPStack
	Port  uint16
	// OnDatagram is invoked for each datagram received on the port.
	// payload is a slice of the received frame, valid for the duration
	// of the call: the frame is recycled when the handler returns, so a
	// handler copies what it keeps (sending it back out with SendTo
	// inside the call is such a copy).
	OnDatagram func(src packet.IP, srcPort uint16, payload []byte)
}

// Bind allocates a socket on the given local port.
func (u *UDPStack) Bind(port uint16) (*UDPSocket, error) {
	if _, taken := u.socks[port]; taken {
		return nil, fmt.Errorf("udp: port %d already bound on %s", port, u.host.Name)
	}
	s := &UDPSocket{stack: u, Port: port}
	u.socks[port] = s
	return s, nil
}

// Close releases the port.
func (s *UDPSocket) Close() {
	delete(s.stack.socks, s.Port)
}

// SendTo transmits a datagram to dst:dstPort through the full layer
// chain. payload is copied into the frame before SendTo returns.
func (s *UDPSocket) SendTo(dst packet.IP, dstPort uint16, payload []byte) error {
	h := s.stack.host
	dstMAC, err := h.LookupMAC(dst)
	if err != nil {
		return err
	}
	fr := h.NIC.Pool().Get(packet.UDPFrameLen(len(payload)))
	packet.PutUDPFrame(fr.Data, h.MAC, dstMAC, h.IP, dst,
		packet.UDP{SrcPort: s.Port, DstPort: dstPort}, payload)
	h.SendFrame(fr)
	return nil
}

func (u *UDPStack) deliver(src, dst packet.IP, payload []byte) {
	hdr, err := packet.DecodeUDP(payload)
	if err != nil {
		return
	}
	sock, ok := u.socks[hdr.DstPort]
	if !ok || sock.OnDatagram == nil {
		return
	}
	end := int(hdr.Length)
	if end > len(payload) || end < packet.UDPHeaderLen {
		end = len(payload)
	}
	sock.OnDatagram(src, hdr.SrcPort, payload[packet.UDPHeaderLen:end])
}
