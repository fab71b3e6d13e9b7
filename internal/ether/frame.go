// Package ether simulates the physical Ethernet substrate of the testbed:
// NICs with transmit queues and CSMA/CD behaviour, a shared bus with
// collisions and binary exponential backoff, a store-and-forward switch
// with half-duplex ports and finite output queues, and a full-duplex
// point-to-point link used for ablation experiments.
//
// The paper runs on a real 100 Mbps switched LAN; this package is the
// substitution documented in DESIGN.md. It reproduces the properties the
// evaluation depends on: serialization delay, propagation delay, carrier
// contention (so Reliable Link Layer ACK traffic degrades throughput at
// high offered load, Figure 7), and MAC-layer bit errors (the reason the
// Reliable Link Layer exists at all, Section 3.3).
package ether

import (
	"time"

	"virtualwire/internal/packet"
)

// Frame is a raw Ethernet frame travelling the simulated wire.
type Frame struct {
	// Data is the full frame starting at the destination MAC. The FCS
	// and preamble are accounted for in wire timing but not stored.
	Data []byte
	// Corrupt marks a frame whose FCS check would fail at the receiver:
	// the medium flipped bits in it. NICs drop corrupt frames unless
	// DeliverCorrupt is set (used by tests that exercise the RLL).
	Corrupt bool
	// ID is a monotonically increasing identifier assigned when the
	// frame is first handed to a NIC, used to correlate trace entries.
	ID uint64
}

// Dst returns the destination MAC.
func (f *Frame) Dst() packet.MAC {
	var m packet.MAC
	if len(f.Data) >= 6 {
		copy(m[:], f.Data[0:6])
	}
	return m
}

// Src returns the source MAC.
func (f *Frame) Src() packet.MAC {
	var m packet.MAC
	if len(f.Data) >= 12 {
		copy(m[:], f.Data[6:12])
	}
	return m
}

// EtherType returns the 16-bit type field at offset 12.
func (f *Frame) EtherType() uint16 {
	if len(f.Data) < packet.EthHeaderLen {
		return 0
	}
	return uint16(f.Data[12])<<8 | uint16(f.Data[13])
}

// Ethernet wire-level constants shared by all media.
const (
	// MinFrame is the minimum Ethernet frame size (without FCS); shorter
	// frames are padded on the wire for timing purposes.
	MinFrame = 60
	// WireOverhead is the per-frame preamble (8) plus FCS (4) in bytes.
	WireOverhead = 12
	// IFGBits is the inter-frame gap in bit times.
	IFGBits = 96
	// SlotBits is the collision slot time in bit times (512 as in
	// classic Ethernet); backoff is measured in slots.
	SlotBits = 512
	// JamBits is the length of the jam signal asserted on collision.
	JamBits = 48
	// MaxAttempts is the transmit attempt limit before a frame is
	// dropped (16, as in IEEE 802.3).
	MaxAttempts = 16
	// maxBackoffExp caps the binary exponential backoff exponent.
	maxBackoffExp = 10
)

// wireBytes returns the number of bytes a frame occupies on the wire,
// including padding and overhead.
func wireBytes(n int) int {
	if n < MinFrame {
		n = MinFrame
	}
	return n + WireOverhead
}

// bitTime converts a number of bit times at the given bandwidth to a
// duration.
func bitTime(bits int, bps float64) time.Duration {
	return time.Duration(float64(bits) / bps * float64(time.Second))
}

// txDuration is the serialization delay of a frame at the given bandwidth.
func txDuration(frameLen int, bps float64) time.Duration {
	return bitTime(wireBytes(frameLen)*8, bps)
}
