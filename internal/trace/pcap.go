package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// pcap export: captures can be written in the classic libpcap file format
// (magic 0xa1b2c3d4, LINKTYPE_ETHERNET) and opened with tcpdump or
// Wireshark — the paper's Section 1 describes exactly that workflow as
// the tedious manual baseline, and being able to hand a simulated run to
// the same tools closes the loop.

const (
	pcapMagicMicros  = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	linktypeEthernet = 1
	pcapSnapLen      = 65535
)

// PcapWriter streams frames into an io.Writer in libpcap format.
type PcapWriter struct {
	w       io.Writer
	written int
}

// NewPcapWriter writes the global header and returns a writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVersionMinor)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linktypeEthernet)
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WriteFrame appends one frame with the given capture timestamp.
func (p *PcapWriter) WriteFrame(at time.Duration, data []byte) error {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(at/time.Second))
	binary.LittleEndian.PutUint32(hdr[4:], uint32((at%time.Second)/time.Microsecond))
	n := len(data)
	if n > pcapSnapLen {
		n = pcapSnapLen
	}
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(data)))
	if _, err := p.w.Write(hdr); err != nil {
		return err
	}
	if _, err := p.w.Write(data[:n]); err != nil {
		return err
	}
	p.written++
	return nil
}

// Frames reports how many frames have been written.
func (p *PcapWriter) Frames() int { return p.written }
