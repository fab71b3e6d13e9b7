package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"time"

	"virtualwire/internal/ether"
	"virtualwire/internal/packet"
)

// Control-plane message kinds (Section 5.2: "The control plane messages
// are implemented as payloads of raw Ethernet frames").
type MsgKind int

// Message kinds.
const (
	// MsgInitChunk carries one fragment of the gob-encoded Program from
	// the controller to a node.
	MsgInitChunk MsgKind = iota + 1
	// MsgInitAck acknowledges a fully assembled Program.
	MsgInitAck
	// MsgStart activates the scenario on a node.
	MsgStart
	// MsgShutdown deactivates the scenario on a node.
	MsgShutdown
	// MsgCounterValue pushes a counter's new value to a node homing a
	// dependent term (the eager case of Section 5.2).
	MsgCounterValue
	// MsgTermStatus pushes a term's changed status to nodes evaluating
	// dependent conditions (the status-change-only case).
	MsgTermStatus
	// MsgError reports a FLAG_ERR firing to the controller.
	MsgError
	// MsgStop reports a STOP firing to the controller.
	MsgStop
	// MsgActivity is the rate-limited liveness report feeding the
	// controller's inactivity timer.
	MsgActivity
)

// Msg is one control-plane message. All engines and the controller speak
// this type, varint-encoded in an ethertype-0x88B5 Ethernet frame.
type Msg struct {
	Kind MsgKind
	From NodeID

	// Init distribution.
	ChunkIndex  int
	ChunkTotal  int
	ChunkData   []byte
	ControlNode NodeID
	NodeID      NodeID // the receiver's identity, assigned by the controller

	// State propagation.
	Counter CounterID
	Value   int64
	Term    TermID
	Status  bool

	// Reports.
	Rule    int
	Message string
	AtNanos int64
}

// msgFixedMax bounds the encoded size of a Msg's thirteen varint fields
// and its status byte.
const msgFixedMax = 13*binary.MaxVarintLen64 + 1

// encodeMsg wraps a Msg in a control frame addressed dst <- src, cut
// from pool (nil: plain allocation). The payload is a hand-rolled
// varint encoding: control messages are on the simulation hot path
// (counter pushes fire per intercepted packet), and a gob codec pays a
// decoder-compilation tax on every frame.
func encodeMsg(pool *ether.FramePool, src, dst packet.MAC, m *Msg) (*ether.Frame, error) {
	// Get a frame with room for the largest encoding, append within
	// that room, then trim the frame to what was written.
	fr := pool.Get(packet.EthHeaderLen + msgFixedMax + len(m.ChunkData) + len(m.Message))
	b := fr.Data[:packet.EthHeaderLen]
	b = binary.AppendVarint(b, int64(m.Kind))
	b = binary.AppendVarint(b, int64(m.From))
	b = binary.AppendVarint(b, int64(m.ChunkIndex))
	b = binary.AppendVarint(b, int64(m.ChunkTotal))
	b = binary.AppendUvarint(b, uint64(len(m.ChunkData)))
	b = append(b, m.ChunkData...)
	b = binary.AppendVarint(b, int64(m.ControlNode))
	b = binary.AppendVarint(b, int64(m.NodeID))
	b = binary.AppendVarint(b, int64(m.Counter))
	b = binary.AppendVarint(b, m.Value)
	b = binary.AppendVarint(b, int64(m.Term))
	if m.Status {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendVarint(b, int64(m.Rule))
	b = binary.AppendUvarint(b, uint64(len(m.Message)))
	b = append(b, m.Message...)
	b = binary.AppendVarint(b, m.AtNanos)
	packet.PutEth(b, packet.Eth{Dst: dst, Src: src, Type: packet.EtherTypeVWCtl})
	fr.Data = b
	return fr, nil
}

var errBadCtlFrame = fmt.Errorf("malformed control frame")

// decodeMsg extracts a Msg from a control frame into m. ChunkData
// aliases the frame and is valid only while the message is handled: the
// engine recycles the frame right after, so handleInitChunk copies the
// chunk into its own reassembly buffers. Message is copied out.
func decodeMsg(fr *ether.Frame, m *Msg) error {
	b := fr.Data
	if len(b) <= packet.EthHeaderLen {
		return fmt.Errorf("control frame too short")
	}
	b = b[packet.EthHeaderLen:]
	next := func() (int64, error) {
		v, n := binary.Varint(b)
		if n <= 0 {
			return 0, errBadCtlFrame
		}
		b = b[n:]
		return v, nil
	}
	nextBytes := func() ([]byte, error) {
		ln, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < ln {
			return nil, errBadCtlFrame
		}
		out := b[n : n+int(ln)]
		b = b[n+int(ln):]
		return out, nil
	}
	var err error
	read := func() int64 {
		if err != nil {
			return 0
		}
		var v int64
		v, err = next()
		return v
	}
	m.Kind = MsgKind(read())
	m.From = NodeID(read())
	m.ChunkIndex = int(read())
	m.ChunkTotal = int(read())
	if err != nil {
		return err
	}
	if m.ChunkData, err = nextBytes(); err != nil {
		return err
	}
	m.ControlNode = NodeID(read())
	m.NodeID = NodeID(read())
	m.Counter = CounterID(read())
	m.Value = read()
	m.Term = TermID(read())
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return errBadCtlFrame
	}
	m.Status = b[0] != 0
	b = b[1:]
	m.Rule = int(read())
	if err != nil {
		return err
	}
	text, err := nextBytes()
	if err != nil {
		return err
	}
	m.Message = string(text)
	m.AtNanos = read()
	return err
}

// initChunkSize bounds INIT fragments so control frames stay well under
// the Ethernet MTU even after RLL encapsulation.
const initChunkSize = 1000

// maxInitChunks bounds the chunk count an engine will reassemble: the
// count arrives off the wire and sizes an allocation. 64 Ki chunks is a
// 65 MB program, more than the daemon's 64 MiB request body can carry;
// Launch refuses a larger blob, so no controller ever sends more.
const maxInitChunks = 1 << 16

// EncodeProgram gob-encodes a Program into the INIT distribution wire
// format. The facade's CompileScript pre-computes this blob once so that
// every Launch of a shared compiled script skips the per-run encode
// (Controller.SetInitBlob installs it).
func EncodeProgram(p *Program) ([]byte, error) {
	return encodeProgram(p)
}

// encodeProgram gob-encodes a Program for INIT distribution.
func encodeProgram(p *Program) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("encode program: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeProgram reverses encodeProgram.
func decodeProgram(b []byte) (*Program, error) {
	var p Program
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return nil, fmt.Errorf("decode program: %w", err)
	}
	return &p, nil
}

// ErrorReport is one FLAG_ERR occurrence collected by the controller.
type ErrorReport struct {
	Node NodeID        `json:"node"`
	Rule int           `json:"rule"`
	At   time.Duration `json:"at_ns"`
	Text string        `json:"text"`
}

func (e ErrorReport) String() string {
	return fmt.Sprintf("t=%v node=%d rule=%d %s", e.At, e.Node, e.Rule, e.Text)
}
