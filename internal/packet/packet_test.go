package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseMAC(t *testing.T) {
	tests := []struct {
		in      string
		want    MAC
		wantErr bool
	}{
		{"00:46:61:af:fe:23", MAC{0x00, 0x46, 0x61, 0xaf, 0xfe, 0x23}, false},
		{"FF:ff:00:11:22:33", MAC{0xff, 0xff, 0x00, 0x11, 0x22, 0x33}, false},
		{"00:46:61:af:fe", MAC{}, true},
		{"00-46-61-af-fe-23", MAC{}, true},
		{"zz:46:61:af:fe:23", MAC{}, true},
		{"", MAC{}, true},
	}
	for _, tt := range tests {
		got, err := ParseMAC(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMAC(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseMAC(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestMACStringRoundTrip(t *testing.T) {
	m := MAC{0x00, 0x23, 0x31, 0xdf, 0xaf, 0x12}
	got, err := ParseMAC(m.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != m {
		t.Errorf("round trip = %v, want %v", got, m)
	}
}

func TestParseIP(t *testing.T) {
	tests := []struct {
		in      string
		want    IP
		wantErr bool
	}{
		{"192.168.1.1", IP{192, 168, 1, 1}, false},
		{"0.0.0.0", IP{}, false},
		{"255.255.255.255", IP{255, 255, 255, 255}, false},
		{"256.0.0.1", IP{}, true},
		{"1.2.3", IP{}, true},
		{"1.2.3.4.5", IP{}, true},
		{"a.b.c.d", IP{}, true},
		{"1..2.3", IP{}, true},
		{"", IP{}, true},
	}
	for _, tt := range tests {
		got, err := ParseIP(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseIP(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseIP(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestEthRoundTrip(t *testing.T) {
	b := make([]byte, EthHeaderLen)
	want := Eth{
		Dst:  MAC{1, 2, 3, 4, 5, 6},
		Src:  MAC{7, 8, 9, 10, 11, 12},
		Type: EtherTypeIPv4,
	}
	PutEth(b, want)
	got, err := DecodeEth(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	if _, err := DecodeEth(b[:10]); err == nil {
		t.Error("short frame decoded without error")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	b := make([]byte, IPv4HeaderLen)
	want := IPv4{
		TotalLen: 120,
		ID:       7,
		Proto:    ProtoTCP,
		Src:      IP{192, 168, 1, 1},
		Dst:      IP{192, 168, 1, 2},
	}
	PutIPv4(b, want)
	got, err := DecodeIPv4(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.TotalLen != want.TotalLen || got.Proto != want.Proto ||
		got.Src != want.Src || got.Dst != want.Dst {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	// Corrupting any header byte must break the checksum.
	for i := 0; i < IPv4HeaderLen; i++ {
		c := make([]byte, IPv4HeaderLen)
		copy(c, b)
		c[i] ^= 0x5a
		if _, err := DecodeIPv4(c); err == nil {
			t.Errorf("corruption at byte %d not detected by header checksum", i)
		}
	}
}

func TestTCPRoundTrip(t *testing.T) {
	b := make([]byte, TCPHeaderLen)
	want := TCP{
		SrcPort: 24576,
		DstPort: 16384,
		Seq:     0xdeadbeef,
		Ack:     0x01020304,
		Flags:   TCPSyn | TCPAck,
		Window:  8192,
	}
	PutTCP(b, want)
	got, err := DecodeTCP(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	b := make([]byte, UDPHeaderLen)
	want := UDP{SrcPort: 53, DstPort: 1024, Length: 100}
	PutUDP(b, want)
	got, err := DecodeUDP(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// buildTCPFrame assembles a complete Ethernet+IPv4+TCP frame in a fresh
// buffer; the stacks write into pooled frames with PutTCPFrame.
func buildTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, h TCP, payload []byte) []byte {
	b := make([]byte, TCPFrameLen(len(payload)))
	PutTCPFrame(b, srcMAC, dstMAC, srcIP, dstIP, h, payload)
	return b
}

// buildRetherFrame assembles a complete Rether control frame in a fresh
// buffer; the layer writes into pooled frames with PutRetherFrame.
func buildRetherFrame(src, dst MAC, h Rether, payload []byte) []byte {
	b := make([]byte, RetherFrameLen(len(payload)))
	PutRetherFrame(b, src, dst, h, payload)
	return b
}

// TestPaperFilterOffsets verifies the frame offsets the paper's FSL
// scripts rely on: a TCP frame built for the Figure 5 experiment must
// match (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10) at exactly those
// raw-byte positions.
func TestPaperFilterOffsets(t *testing.T) {
	srcMAC := MAC{0x00, 0x46, 0x61, 0xaf, 0xfe, 0x23}
	dstMAC := MAC{0x00, 0x23, 0x31, 0xdf, 0xaf, 0x12}
	fr := buildTCPFrame(srcMAC, dstMAC, IP{192, 168, 1, 1}, IP{192, 168, 1, 2},
		TCP{SrcPort: 0x6000, DstPort: 0x4000, Seq: 0x11223344, Ack: 0x55667788, Flags: TCPAck},
		[]byte("payload"))

	if got := uint16(fr[OffTCPSport])<<8 | uint16(fr[OffTCPSport+1]); got != 0x6000 {
		t.Errorf("frame[34:36] = 0x%04x, want 0x6000 (TCP source port)", got)
	}
	if got := uint16(fr[OffTCPDport])<<8 | uint16(fr[OffTCPDport+1]); got != 0x4000 {
		t.Errorf("frame[36:38] = 0x%04x, want 0x4000 (TCP dest port)", got)
	}
	if fr[OffTCPFlags]&TCPAck == 0 {
		t.Errorf("frame[47] = 0x%02x, ACK bit not set", fr[OffTCPFlags])
	}
	wantSeq := []byte{0x11, 0x22, 0x33, 0x44}
	if !bytes.Equal(fr[OffTCPSeq:OffTCPSeq+4], wantSeq) {
		t.Errorf("frame[38:42] = %x, want %x (TCP seq)", fr[OffTCPSeq:OffTCPSeq+4], wantSeq)
	}
	wantAck := []byte{0x55, 0x66, 0x77, 0x88}
	if !bytes.Equal(fr[OffTCPAck:OffTCPAck+4], wantAck) {
		t.Errorf("frame[42:46] = %x, want %x (TCP ack)", fr[OffTCPAck:OffTCPAck+4], wantAck)
	}
	if got := uint16(fr[OffEthType])<<8 | uint16(fr[OffEthType+1]); got != EtherTypeIPv4 {
		t.Errorf("frame[12:14] = 0x%04x, want 0x0800", got)
	}
}

// TestRetherFilterOffsets checks the Figure 6 filter offsets:
// tr_token: (12 2 0x9900), (14 2 0x0001).
func TestRetherFilterOffsets(t *testing.T) {
	fr := buildRetherFrame(MAC{1}, MAC{2}, Rether{Type: RetherToken, TokenSeq: 9, Origin: 1}, nil)
	if got := uint16(fr[12])<<8 | uint16(fr[13]); got != 0x9900 {
		t.Errorf("frame[12:14] = 0x%04x, want 0x9900", got)
	}
	if got := uint16(fr[14])<<8 | uint16(fr[15]); got != 0x0001 {
		t.Errorf("frame[14:16] = 0x%04x, want 0x0001 (token)", got)
	}
	h, err := DecodeRether(fr[EthHeaderLen:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Type != RetherToken || h.TokenSeq != 9 || h.Origin != 1 {
		t.Errorf("decoded %+v", h)
	}
}

func TestRetherTypeName(t *testing.T) {
	tests := []struct {
		typ  uint16
		want string
	}{
		{RetherToken, "token"},
		{RetherTokenAck, "token-ack"},
		{RetherRingSync, "ring-sync"},
		{RetherRegen, "regen"},
		{0xbeef, "rether-0xbeef"},
	}
	for _, tt := range tests {
		if got := RetherTypeName(tt.typ); got != tt.want {
			t.Errorf("RetherTypeName(%#x) = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestFlagString(t *testing.T) {
	tests := []struct {
		flags byte
		want  string
	}{
		{TCPSyn, "S"},
		{TCPSyn | TCPAck, "SA"},
		{TCPFin | TCPAck, "FA"},
		{TCPRst, "R"},
		{0, "."},
	}
	for _, tt := range tests {
		if got := FlagString(tt.flags); got != tt.want {
			t.Errorf("FlagString(%#x) = %q, want %q", tt.flags, got, tt.want)
		}
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum16(b); got != 0x220d {
		t.Errorf("Checksum16 = %#04x, want 0x220d", got)
	}
}

// Property: TCP header round trips through encode/decode for arbitrary
// field values.
func TestTCPRoundTripProperty(t *testing.T) {
	prop := func(sp, dp uint16, seq, ack uint32, flags byte, win uint16) bool {
		b := make([]byte, TCPHeaderLen)
		in := TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win}
		PutTCP(b, in)
		out, err := DecodeTCP(b)
		return err == nil && out == in
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the IPv4 header checksum detects any single-byte corruption.
func TestIPv4ChecksumProperty(t *testing.T) {
	prop := func(id uint16, src, dst IP, corruptAt uint8, flip byte) bool {
		b := make([]byte, IPv4HeaderLen)
		PutIPv4(b, IPv4{TotalLen: 40, ID: id, Proto: ProtoUDP, Src: src, Dst: dst})
		if _, err := DecodeIPv4(b); err != nil {
			return false // valid header must decode
		}
		if flip == 0 {
			return true
		}
		b[int(corruptAt)%IPv4HeaderLen] ^= flip
		_, err := DecodeIPv4(b)
		return err != nil
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MAC string formatting always parses back to the same value.
func TestMACRoundTripProperty(t *testing.T) {
	prop := func(m MAC) bool {
		got, err := ParseMAC(m.String())
		return err == nil && got == m
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildTCPFrame(b *testing.B) {
	payload := make([]byte, 1400)
	for i := 0; i < b.N; i++ {
		buildTCPFrame(MAC{1}, MAC{2}, IP{10, 0, 0, 1}, IP{10, 0, 0, 2},
			TCP{SrcPort: 1, DstPort: 2, Seq: uint32(i)}, payload)
	}
}

func BenchmarkDecodeTCPFrame(b *testing.B) {
	fr := buildTCPFrame(MAC{1}, MAC{2}, IP{10, 0, 0, 1}, IP{10, 0, 0, 2},
		TCP{SrcPort: 1, DstPort: 2}, make([]byte, 1400))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEth(fr); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeIPv4(fr[OffIPHeader:]); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeTCP(fr[OffIPHeader+IPv4HeaderLen:]); err != nil {
			b.Fatal(err)
		}
	}
}
