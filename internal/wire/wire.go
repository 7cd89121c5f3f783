// Package wire defines the message plumbing shared by every protocol in the
// framework: node identifiers, the Message interface, a compact binary
// encoding, and a registry that maps message type tags to decoders.
//
// Every message knows its WireSize, the number of bytes it occupies on the
// wire. The discrete-event simulator charges exactly WireSize bytes against
// link bandwidth, and the TCP runtime marshals messages with the same codec,
// so simulated and real deployments agree on bandwidth consumption.
package wire

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node in the system. IDs are assigned densely from 0 by
// the runtime that constructs the network.
type NodeID uint32

// NoNode is a sentinel for "no node".
const NoNode NodeID = ^NodeID(0)

// Type tags a concrete message so receivers can decode it. Type spaces for
// the different protocol packages are partitioned in ranges; see the
// Type* range constants.
type Type uint16

// Type ranges, one block per protocol package. Starting at 1 so the zero
// Type is always invalid.
const (
	TypeRangeCore     Type = 0x0100 // bundles, Predis blocks, fetch
	TypeRangePBFT     Type = 0x0200
	TypeRangeHotStuff Type = 0x0300
	TypeRangeNarwhal  Type = 0x0400
	TypeRangeStratus  Type = 0x0500
	TypeRangeZone     Type = 0x0600 // Multi-Zone control and data plane
	TypeRangeGossip   Type = 0x0700
	TypeRangeClient   Type = 0x0800 // client submit / reply
	TypeRangeTxPool   Type = 0x0900 // baseline batch proposals
	TypeRangeFaults   Type = 0x7d00 // adversarial frames from the fault injector
	TypeRangeTest     Type = 0x7f00
)

// Message is a unit of network communication. Implementations must be
// treated as immutable once sent: the simulator delivers the same pointer to
// every recipient.
type Message interface {
	// Type returns the registered type tag of this message.
	Type() Type
	// WireSize returns the number of bytes this message occupies on the
	// wire, including its type tag and length framing.
	WireSize() int
	// EncodeBody appends the message body (everything after the frame
	// header) to the encoder.
	EncodeBody(e *Encoder)
}

// FrameOverhead is the per-message framing cost: a 2-byte type tag and a
// 4-byte body length.
const FrameOverhead = 6

// laneFrameMax is the largest frame the consensus lane carries. A Predis
// proposal is metadata: a P-HS proposal with a list QC is 1 760 B at n_c =
// 16 and 3 192 B at n_c = 32 (one 40 B cut per producer plus one 72 B
// signature share per quorum member), and a vote is 118 B. A baseline
// pre-prepare carrying its transaction batch is 400 kB: it is bulk data
// under a consensus type tag and must queue with the bulk, which is the
// paper's point about what coupling costs.
const laneFrameMax = 4096

// Metadata marks a message type outside the consensus ranges that is
// agreement metadata all the same: the ordered Predis block on its way down
// the relayer tree (2.5 KB at n_c = 80 in the paper's §V-A). The interface
// lets the lane rule name it without importing the package that defines it.
type Metadata interface {
	Message
	// Metadata is a marker; it is never called.
	Metadata()
}

// LaneFrame reports whether a frame of the given wire size belongs on a
// NIC's consensus lane: a PBFT or HotStuff message, or a Metadata message,
// small enough to be agreement metadata rather than payload. It is the one
// lane rule, shared by the simulator's uplink model and the TCP runtime's
// write loop. Everything else — bundles, stripes, zone control, fetches,
// client traffic — is bulk.
func LaneFrame(m Message, size int) bool {
	if size > laneFrameMax {
		return false
	}
	if r := m.Type() & 0xff00; r == TypeRangePBFT || r == TypeRangeHotStuff {
		return true
	}
	_, ok := m.(Metadata)
	return ok
}

// Defective marks adversarial messages whose frames cannot be decoded: the
// encoded body deliberately disagrees with what the decoder reads. A real
// runtime can never hand such a frame to a handler — decode fails first —
// so delivery paths that skip the codec for speed (the simulator's default
// zero-copy mode) check this marker and degrade to a counted drop instead.
type Defective interface {
	Message
	// Defective reports whether this message's frame fails to decode.
	Defective() bool
}

// DecodeFunc decodes a message body previously written by EncodeBody.
type DecodeFunc func(d *Decoder) (Message, error)

type registration struct {
	name   string
	decode DecodeFunc
}

var (
	registryMu sync.RWMutex
	registry   = make(map[Type]registration)
)

// Register associates a message type tag with a human-readable name and a
// decoder. It must be called once per type, typically from a package-level
// Register* function invoked by the runtime during setup; duplicate
// registration of the same tag panics because it is a programming error.
func Register(t Type, name string, decode DecodeFunc) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if prev, ok := registry[t]; ok {
		panic(fmt.Sprintf("wire: type %#04x already registered as %q", uint16(t), prev.name))
	}
	registry[t] = registration{name: name, decode: decode}
}

// Registered reports whether a decoder exists for the given type tag.
func Registered(t Type) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[t]
	return ok
}

// TypeName returns the registered name for a type tag, or a hex placeholder
// when the tag is unknown.
func TypeName(t Type) string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	if r, ok := registry[t]; ok {
		return r.name
	}
	return fmt.Sprintf("unknown(%#04x)", uint16(t))
}

// RegisteredTypes returns all registered type tags in ascending order. It is
// intended for diagnostics and tests.
func RegisteredTypes() []Type {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Type, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Errors returned by the codec.
var (
	ErrUnknownType = errors.New("wire: unknown message type")
	ErrTruncated   = errors.New("wire: truncated message")
	ErrOversize    = errors.New("wire: declared body length exceeds limit")
	ErrTrailing    = errors.New("wire: trailing bytes after message body")
)

// MaxBodyLen bounds decoded message bodies; anything larger is rejected as
// corrupt. 64 MiB comfortably exceeds the largest block in the evaluation
// (40 MB, Fig. 8).
const MaxBodyLen = 64 << 20

// Marshal encodes a message into a self-delimiting frame:
//
//	[type:2][bodyLen:4][body]
func Marshal(m Message) []byte {
	return MarshalAppend(make([]byte, 0, m.WireSize()), m)
}

// Unmarshal decodes one frame from the front of data and returns the message
// and the number of bytes consumed.
func Unmarshal(data []byte) (Message, int, error) {
	if len(data) < FrameOverhead {
		return nil, 0, ErrTruncated
	}
	d := NewDecoder(data)
	t := Type(d.U16())
	bodyLen := int(d.U32())
	if bodyLen > MaxBodyLen {
		return nil, 0, ErrOversize
	}
	if len(data) < FrameOverhead+bodyLen {
		return nil, 0, ErrTruncated
	}
	registryMu.RLock()
	r, ok := registry[t]
	registryMu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %#04x", ErrUnknownType, uint16(t))
	}
	bd := NewDecoder(data[FrameOverhead : FrameOverhead+bodyLen])
	m, err := r.decode(bd)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: decode %s: %w", r.name, err)
	}
	if err := bd.Err(); err != nil {
		return nil, 0, fmt.Errorf("wire: decode %s: %w", r.name, err)
	}
	// Encoding is canonical: a frame whose declared body is longer than
	// what the decoder consumed is corrupt (or padded by an adversary to
	// skew bandwidth accounting), not merely generous.
	if bd.Remaining() > 0 {
		return nil, 0, fmt.Errorf("%w: %s has %d", ErrTrailing, r.name, bd.Remaining())
	}
	return m, FrameOverhead + bodyLen, nil
}

// Roundtrip marshals then unmarshals a message. It began life as a test
// helper but is also the simulator's copy-on-deliver path, so the
// intermediate frame lives in a pooled scratch buffer: decoding copies
// every retained byte, which makes immediate reuse safe. The decode side
// allocates the fresh message by design, which is why this is a cold
// path even though dispatch calls it under CopyOnDeliver.
//
//predis:coldpath
func Roundtrip(m Message) (Message, error) {
	e := GetEncoder()
	out, buf, err := RoundtripAppend(e.buf, m)
	e.buf = buf
	PutEncoder(e)
	return out, err
}
