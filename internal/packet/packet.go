// Package packet provides byte-accurate encoders and decoders for every
// frame format used in the testbed: Ethernet II, IPv4, UDP, TCP, the
// Rether 0x9900 control protocol, the Reliable Link Layer header, and the
// VirtualWire control-plane header.
//
// Byte accuracy matters because the Fault Specification Language matches
// packets by (offset, length, mask, pattern) tuples against the raw frame,
// exactly as the paper's Figure 2 scripts do: offset 12 is the ethertype,
// offset 34 the TCP source port (14-byte Ethernet header + 20-byte IPv4
// header), offset 38 the TCP sequence number, offset 47 the TCP flags
// byte, and offset 14 the Rether control-packet type.
package packet

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated hex notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// ParseMAC parses "aa:bb:cc:dd:ee:ff".
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("parse MAC %q: want 17 chars", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := hexVal(s[i*3])
		lo, ok2 := hexVal(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("parse MAC %q: bad hex at byte %d", s, i)
		}
		if i < 5 && s[i*3+2] != ':' {
			return m, fmt.Errorf("parse MAC %q: missing ':' separator", s)
		}
		m[i] = hi<<4 | lo
	}
	return m, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// IP is an IPv4 address.
type IP [4]byte

// String formats the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	var ip IP
	part, idx := 0, 0
	seen := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if !seen || idx > 3 {
				return ip, fmt.Errorf("parse IP %q", s)
			}
			ip[idx] = byte(part)
			idx++
			part, seen = 0, false
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return ip, fmt.Errorf("parse IP %q: bad char %q", s, c)
		}
		part = part*10 + int(c-'0')
		if part > 255 {
			return ip, fmt.Errorf("parse IP %q: octet overflow", s)
		}
		seen = true
	}
	if idx != 4 {
		return ip, fmt.Errorf("parse IP %q: want 4 octets", s)
	}
	return ip, nil
}

// EtherType values used on the testbed.
const (
	EtherTypeIPv4   uint16 = 0x0800
	EtherTypeRether uint16 = 0x9900 // the paper's Rether protocol identifier
	EtherTypeVWCtl  uint16 = 0x88B5 // VirtualWire control plane (local experimental ethertype)
)

// IP protocol numbers.
const (
	ProtoTCP byte = 6
	ProtoUDP byte = 17
)

// Well-known frame offsets used by FSL scripts (Ethernet II + IPv4).
const (
	OffEthDst    = 0
	OffEthSrc    = 6
	OffEthType   = 12
	OffIPHeader  = 14
	OffIPProto   = 23
	OffIPSrc     = 26
	OffIPDst     = 30
	OffTCPSport  = 34
	OffTCPDport  = 36
	OffTCPSeq    = 38
	OffTCPAck    = 42
	OffTCPFlags  = 47
	OffRetherTyp = 14 // Rether packet type, right after the Ethernet header
)

// EthHeaderLen and friends are wire header sizes.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
)

// TCP flag bits (in the flags byte at frame offset 47).
const (
	TCPFin = 0x01
	TCPSyn = 0x02
	TCPRst = 0x04
	TCPPsh = 0x08
	TCPAck = 0x10
)

// Eth is a decoded Ethernet II header.
type Eth struct {
	Dst  MAC
	Src  MAC
	Type uint16
}

// PutEth writes the header into b[0:14].
func PutEth(b []byte, h Eth) {
	copy(b[OffEthDst:], h.Dst[:])
	copy(b[OffEthSrc:], h.Src[:])
	binary.BigEndian.PutUint16(b[OffEthType:], h.Type)
}

// DecodeEth reads the Ethernet header from a frame.
func DecodeEth(b []byte) (Eth, error) {
	if len(b) < EthHeaderLen {
		return Eth{}, fmt.Errorf("ethernet frame too short: %d bytes", len(b))
	}
	var h Eth
	copy(h.Dst[:], b[OffEthDst:])
	copy(h.Src[:], b[OffEthSrc:])
	h.Type = binary.BigEndian.Uint16(b[OffEthType:])
	return h, nil
}

// IPv4 is a decoded IPv4 header (options are not used on the testbed).
type IPv4 struct {
	TotalLen uint16
	ID       uint16
	TTL      byte
	Proto    byte
	Checksum uint16
	Src      IP
	Dst      IP
}

// PutIPv4 writes a 20-byte IPv4 header with a correct checksum into
// b[0:20]. TotalLen must already include the header itself.
func PutIPv4(b []byte, h IPv4) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], 0) // flags/fragment
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b[8] = ttl
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	cs := Checksum16(b[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(b[10:], cs)
}

// DecodeIPv4 reads an IPv4 header from the bytes following the Ethernet
// header. It verifies the header checksum.
func DecodeIPv4(b []byte) (IPv4, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4{}, fmt.Errorf("ipv4 header too short: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4{}, fmt.Errorf("ipv4: bad version %d", b[0]>>4)
	}
	if Checksum16(b[:IPv4HeaderLen]) != 0 {
		return IPv4{}, fmt.Errorf("ipv4: header checksum mismatch")
	}
	var h IPv4
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	h.TTL = b[8]
	h.Proto = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return h, nil
}

// Checksum16 computes the RFC 1071 ones-complement checksum over b.
// Computing it over a block that embeds a correct checksum yields zero.
func Checksum16(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16 // header + payload
}

// PutUDP writes the UDP header into b[0:8]. The testbed does not use the
// optional UDP checksum (it is covered by the RLL CRC).
func PutUDP(b []byte, h UDP) {
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], h.Length)
	binary.BigEndian.PutUint16(b[6:], 0)
}

// DecodeUDP reads a UDP header.
func DecodeUDP(b []byte) (UDP, error) {
	if len(b) < UDPHeaderLen {
		return UDP{}, fmt.Errorf("udp header too short: %d bytes", len(b))
	}
	return UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Length:  binary.BigEndian.Uint16(b[4:]),
	}, nil
}

// TCP is a decoded TCP header (no options on the testbed; MSS is fixed).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   byte
	Window  uint16
}

// PutTCP writes a 20-byte TCP header into b[0:20].
func PutTCP(b []byte, h TCP) {
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = 5 << 4 // data offset 5 words
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	binary.BigEndian.PutUint16(b[16:], 0) // checksum: covered by RLL CRC
	binary.BigEndian.PutUint16(b[18:], 0) // urgent
}

// DecodeTCP reads a TCP header.
func DecodeTCP(b []byte) (TCP, error) {
	if len(b) < TCPHeaderLen {
		return TCP{}, fmt.Errorf("tcp header too short: %d bytes", len(b))
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCP{}, fmt.Errorf("tcp: bad data offset %d", off)
	}
	return TCP{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Seq:     binary.BigEndian.Uint32(b[4:]),
		Ack:     binary.BigEndian.Uint32(b[8:]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:]),
	}, nil
}

// FlagString renders TCP flags compactly, e.g. "SA" for SYN|ACK.
func FlagString(flags byte) string {
	out := make([]byte, 0, 5)
	if flags&TCPSyn != 0 {
		out = append(out, 'S')
	}
	if flags&TCPFin != 0 {
		out = append(out, 'F')
	}
	if flags&TCPRst != 0 {
		out = append(out, 'R')
	}
	if flags&TCPPsh != 0 {
		out = append(out, 'P')
	}
	if flags&TCPAck != 0 {
		out = append(out, 'A')
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// TCPFrameLen is the length of an Ethernet+IPv4+TCP frame carrying
// payloadLen bytes.
func TCPFrameLen(payloadLen int) int {
	return EthHeaderLen + IPv4HeaderLen + TCPHeaderLen + payloadLen
}

// PutTCPFrame writes a complete Ethernet+IPv4+TCP frame into
// b[:TCPFrameLen(len(payload))]. Every byte of that range is stored, so
// b may be a recycled buffer with stale contents.
func PutTCPFrame(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, h TCP, payload []byte) {
	PutEth(b, Eth{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4})
	PutIPv4(b[OffIPHeader:], IPv4{
		TotalLen: uint16(IPv4HeaderLen + TCPHeaderLen + len(payload)),
		Proto:    ProtoTCP,
		Src:      srcIP,
		Dst:      dstIP,
	})
	PutTCP(b[OffIPHeader+IPv4HeaderLen:], h)
	copy(b[OffIPHeader+IPv4HeaderLen+TCPHeaderLen:], payload)
}

// BuildTCPFrame assembles a complete Ethernet+IPv4+TCP frame in a fresh
// buffer (tests and tools; the stacks write into pooled frames).
func BuildTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, h TCP, payload []byte) []byte {
	b := make([]byte, TCPFrameLen(len(payload)))
	PutTCPFrame(b, srcMAC, dstMAC, srcIP, dstIP, h, payload)
	return b
}

// UDPFrameLen is the length of an Ethernet+IPv4+UDP frame carrying
// payloadLen bytes.
func UDPFrameLen(payloadLen int) int {
	return EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + payloadLen
}

// PutUDPFrame writes a complete Ethernet+IPv4+UDP frame into
// b[:UDPFrameLen(len(payload))], storing every byte of that range.
func PutUDPFrame(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, h UDP, payload []byte) {
	PutEth(b, Eth{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4})
	PutIPv4(b[OffIPHeader:], IPv4{
		TotalLen: uint16(IPv4HeaderLen + UDPHeaderLen + len(payload)),
		Proto:    ProtoUDP,
		Src:      srcIP,
		Dst:      dstIP,
	})
	h.Length = uint16(UDPHeaderLen + len(payload))
	PutUDP(b[OffIPHeader+IPv4HeaderLen:], h)
	copy(b[OffIPHeader+IPv4HeaderLen+UDPHeaderLen:], payload)
}

// BuildUDPFrame assembles a complete Ethernet+IPv4+UDP frame in a fresh
// buffer (tests and tools; the stacks write into pooled frames).
func BuildUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, h UDP, payload []byte) []byte {
	b := make([]byte, UDPFrameLen(len(payload)))
	PutUDPFrame(b, srcMAC, dstMAC, srcIP, dstIP, h, payload)
	return b
}
