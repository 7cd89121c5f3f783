// Package topology holds the messages of the two baseline topologies the
// paper compares Multi-Zone against (§V-B): BlockData, a complete block
// as an opaque payload of a given size, which both ship; and Digest and
// Pull, the random topology's FEG gossip (package gossip). The star
// topology — every full node attached to one consensus node, so consensus
// bandwidth grows linearly with the full-node count — is a one-level
// multicast tree of the harness (harness.Tree).
package topology

import (
	"sync"

	"predis/internal/wire"
)

// Message type tags (shared with package gossip).
const (
	TypeBlockData = wire.TypeRangeGossip + 1
	TypeDigest    = wire.TypeRangeGossip + 2
	TypePull      = wire.TypeRangeGossip + 3
)

// BlockData is a complete block as an opaque payload of a given size. The
// star and random topologies ship whole blocks, so only the size matters
// for propagation behaviour; content is synthetic padding.
type BlockData struct {
	Height uint64
	Origin wire.NodeID
	Size   uint32 // total message body size to emulate, ≥ blockDataMin
}

// blockDataMin is the encoded size of the real fields.
const blockDataMin = 8 + 4 + 4

var _ wire.Message = (*BlockData)(nil)

// Type implements wire.Message.
func (m *BlockData) Type() wire.Type { return TypeBlockData }

// WireSize implements wire.Message.
func (m *BlockData) WireSize() int {
	size := int(m.Size)
	if size < blockDataMin {
		size = blockDataMin
	}
	return wire.FrameOverhead + size
}

// zeroPad is a shared read-only buffer for synthetic block padding, so
// encoding a BlockData does not allocate its payload every time. It is
// never written after initialisation, so concurrent encoders (independent
// simulations under -parallel) can slice it freely.
var zeroPad = make([]byte, 64<<10)

// EncodeBody implements wire.Message.
func (m *BlockData) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.Node(m.Origin)
	e.U32(m.Size)
	for pad := int(m.Size) - blockDataMin; pad > 0; {
		n := pad
		if n > len(zeroPad) {
			n = len(zeroPad)
		}
		e.Raw(zeroPad[:n])
		pad -= n
	}
}

func decodeBlockData(d *wire.Decoder) (wire.Message, error) {
	m := &BlockData{Height: d.U64(), Origin: d.Node(), Size: d.U32()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if pad := int(m.Size) - blockDataMin; pad > 0 {
		d.Raw(pad)
	}
	return m, d.Err()
}

// Digest advertises the blocks a gossip node holds (max contiguous height;
// heights are dense in these experiments).
type Digest struct {
	MaxHeight uint64
}

var _ wire.Message = (*Digest)(nil)

// Type implements wire.Message.
func (m *Digest) Type() wire.Type { return TypeDigest }

// WireSize implements wire.Message.
func (m *Digest) WireSize() int { return wire.FrameOverhead + 8 }

// EncodeBody implements wire.Message.
func (m *Digest) EncodeBody(e *wire.Encoder) { e.U64(m.MaxHeight) }

func decodeDigest(d *wire.Decoder) (wire.Message, error) {
	return &Digest{MaxHeight: d.U64()}, d.Err()
}

// Pull requests blocks by height from a digest sender.
type Pull struct {
	Heights []uint64
}

var _ wire.Message = (*Pull)(nil)

// Type implements wire.Message.
func (m *Pull) Type() wire.Type { return TypePull }

// WireSize implements wire.Message.
func (m *Pull) WireSize() int { return wire.FrameOverhead + wire.SizeU64Slice(m.Heights) }

// EncodeBody implements wire.Message.
func (m *Pull) EncodeBody(e *wire.Encoder) { e.U64Slice(m.Heights) }

func decodePull(d *wire.Decoder) (wire.Message, error) {
	return &Pull{Heights: d.U64Slice()}, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers topology/gossip message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeBlockData, "topo.block", decodeBlockData)
		wire.Register(TypeDigest, "topo.digest", decodeDigest)
		wire.Register(TypePull, "topo.pull", decodePull)
	})
}
