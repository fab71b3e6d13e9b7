package packet

import (
	"encoding/binary"
	"fmt"
)

// Rether control-packet types, carried in the two bytes right after the
// Ethernet header (frame offset 14), as matched by the paper's Figure 6
// filter table: tr_token = (12 2 0x9900), (14 2 0x0001) and
// tr_token_ack = (12 2 0x9900), (14 2 0x0010).
const (
	RetherToken     uint16 = 0x0001
	RetherTokenAck  uint16 = 0x0010
	RetherRingSync  uint16 = 0x0002 // ring-membership update after reconstruction
	RetherRegen     uint16 = 0x0004 // token regeneration announcement
	RetherReserve   uint16 = 0x0008 // real-time bandwidth reservation request
	RetherReserveOK uint16 = 0x0009 // reservation acknowledgement
)

// RetherHeaderLen is the Rether control header length (after Ethernet).
const RetherHeaderLen = 10

// Rether is a decoded Rether control header.
//
// Layout (after the 14-byte Ethernet header):
//
//	offset 0 (frame 14): uint16 packet type
//	offset 2 (frame 16): uint32 token sequence number / cycle
//	offset 6 (frame 20): uint16 origin node index in ring
//	offset 8 (frame 22): uint16 payload length (ring membership entries)
type Rether struct {
	Type       uint16
	TokenSeq   uint32
	Origin     uint16
	PayloadLen uint16
}

// PutRether writes the control header into b[0:10].
func PutRether(b []byte, h Rether) {
	binary.BigEndian.PutUint16(b[0:], h.Type)
	binary.BigEndian.PutUint32(b[2:], h.TokenSeq)
	binary.BigEndian.PutUint16(b[6:], h.Origin)
	binary.BigEndian.PutUint16(b[8:], h.PayloadLen)
}

// DecodeRether reads a Rether control header from the bytes following the
// Ethernet header.
func DecodeRether(b []byte) (Rether, error) {
	if len(b) < RetherHeaderLen {
		return Rether{}, fmt.Errorf("rether header too short: %d bytes", len(b))
	}
	return Rether{
		Type:       binary.BigEndian.Uint16(b[0:]),
		TokenSeq:   binary.BigEndian.Uint32(b[2:]),
		Origin:     binary.BigEndian.Uint16(b[6:]),
		PayloadLen: binary.BigEndian.Uint16(b[8:]),
	}, nil
}

// RetherFrameLen is the length of a Rether control frame carrying
// payloadLen bytes of ring-membership data.
func RetherFrameLen(payloadLen int) int {
	return EthHeaderLen + RetherHeaderLen + payloadLen
}

// PutRetherFrame writes a complete Rether control frame into
// b[:RetherFrameLen(len(payload))], storing every byte of that range.
// payload carries optional ring-membership data (a sequence of 6-byte
// MACs).
func PutRetherFrame(b []byte, src, dst MAC, h Rether, payload []byte) {
	h.PayloadLen = uint16(len(payload))
	PutEth(b, Eth{Dst: dst, Src: src, Type: EtherTypeRether})
	PutRether(b[EthHeaderLen:], h)
	copy(b[EthHeaderLen+RetherHeaderLen:], payload)
}

// BuildRetherFrame assembles a complete Rether control frame in a fresh
// buffer (tests and tools; the layer writes into pooled frames).
func BuildRetherFrame(src, dst MAC, h Rether, payload []byte) []byte {
	b := make([]byte, RetherFrameLen(len(payload)))
	PutRetherFrame(b, src, dst, h, payload)
	return b
}

// RetherTypeName names a Rether control-packet type for traces.
func RetherTypeName(t uint16) string {
	switch t {
	case RetherToken:
		return "token"
	case RetherTokenAck:
		return "token-ack"
	case RetherRingSync:
		return "ring-sync"
	case RetherRegen:
		return "regen"
	case RetherReserve:
		return "reserve"
	case RetherReserveOK:
		return "reserve-ok"
	}
	return fmt.Sprintf("rether-0x%04x", t)
}
