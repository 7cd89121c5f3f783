package multizone

import (
	"bytes"
	"encoding/binary"
	"sync"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/wire"
)

// Message type tags for the Multi-Zone control and data plane.
const (
	TypeStripe          = wire.TypeRangeZone + 1
	TypeSubscribe       = wire.TypeRangeZone + 2
	TypeAcceptSubscribe = wire.TypeRangeZone + 3
	TypeRejectSubscribe = wire.TypeRangeZone + 4
	TypeUnsubscribe     = wire.TypeRangeZone + 5
	TypeRelayerAlive    = wire.TypeRangeZone + 6
	TypeLeave           = wire.TypeRangeZone + 7
	TypeHeartbeat       = wire.TypeRangeZone + 8
	TypeBlockDigest     = wire.TypeRangeZone + 10
	// TypeRangeZone+9 was the zone block wrapper (the relayer tree carries
	// the committed core.PredisBlock itself now), +11 and +12 the
	// relayer-table bootstrap pair (placement is computed from membership
	// now), +13 and +14 the full nodes' own catch-up pair (now core's
	// CatchupRequest/CatchupResponse), +15 and +16 the retired speculative
	// block push and its retraction; they stay unused so no old frame
	// decodes as a new type.
)

// StripeMsg carries one erasure-coded stripe of a bundle and the Merkle
// proof that makes it self-verifying against the bundle header's
// StripeRoot (§IV-D). Only the f+1 carrier stripes of a bundle ship the
// signed header (see headerCarrier); the others are references that name
// it by hash, so a full node receives each header f+1 times instead of
// n_c. Any n_c−f stripes still include a carrier.
type StripeMsg struct {
	// Header is the producer-signed bundle header on a carrier. A reference
	// fills only Header.Producer and Header.Height.
	Header core.BundleHeader
	// Ref marks a reference stripe, and RefHash is then its bundle's
	// header hash.
	Ref     bool
	RefHash crypto.Hash
	Index   uint8
	// stamped marks a stripe set's slot that StripeSet.stripe has given
	// a header. It sits in Index's padding so that the struct stays 312
	// bytes: an n_c = 4 message slab plus the allocator's 8-byte header
	// then fits the 1 280-byte size class, and one word more would move
	// it to the 1 408-byte class.
	stamped    bool
	PayloadLen uint32
	Shard      []byte
	Proof      []crypto.Hash

	// set is the stripe set whose slot this message was built as; nil on
	// a decoded message and on the copies TamperShard, TamperProof and
	// a second header's StripeSet.stripe make. A value copy keeps the
	// pointer but is not the slot, so VerifyStripe compares addresses.
	set *StripeSet
}

var _ wire.Message = (*StripeMsg)(nil)

// names reports whether the message stands for h: a reference to h's
// hash, or a carrier of h with its signature.
func (m *StripeMsg) names(h *core.BundleHeader) bool {
	if m.Ref {
		return m.RefHash == h.Hash()
	}
	return m.Header.Hash() == h.Hash() && bytes.Equal(m.Header.Sig, h.Sig)
}

// refSize is what a reference stripe sends instead of the header:
// producer, height and header hash.
const refSize = 4 + 8 + crypto.HashSize

// headerCarrier reports whether stripe i of a bundle from producer carries
// the signed header: whether d = (i − producer) mod n_c is one of the f+1
// offsets ⌊j·n_c/(f+1)⌋, j = 0…f, spread evenly around the ring. Any f+1
// distinct indices would do for reassembly — the n_c−f stripes it needs
// always include one of them — and offset 0 makes the producer's own
// stripe, which it sends at seal time ahead of the others, a carrier. The
// spread is what keeps relaying fast: a zone smaller than n_c splits its
// stripes between relayers in contiguous runs (see FullNode.relayerOf),
// and a relayer that takes no carrier
// of a producer first hand must hold that producer's references until a
// peer relays one (see FullNode.park), so a run of f+1 consecutive carriers
// inside one relayer's half would make its peers wait two relay hops.
func headerCarrier(i int, producer wire.NodeID, nc, f int) bool {
	d := (i - int(producer)%nc + nc) % nc
	j := (d*(f+1) + nc - 1) / nc // the one j whose offset can equal d
	return j <= f && j*nc/(f+1) == d
}

// isSlot reports whether m is its stripe set's own message at m.Index,
// the object Encode built and only Stripe writes, rather than a copy.
func (m *StripeMsg) isSlot() bool {
	set := m.set
	return set != nil && int(m.Index) < len(set.msgs) && m == &set.msgs[m.Index]
}

// BundleHash returns the hash of the header the stripe belongs to.
func (m *StripeMsg) BundleHash() crypto.Hash {
	if m.Ref {
		return m.RefHash
	}
	return m.Header.Hash()
}

// Type implements wire.Message.
func (m *StripeMsg) Type() wire.Type { return TypeStripe }

// WireSize implements wire.Message.
func (m *StripeMsg) WireSize() int {
	n := wire.FrameOverhead + 1 + 1 + 4 + wire.SizeVarBytes(m.Shard) + 4 + crypto.HashSize*len(m.Proof)
	if m.Ref {
		return n + refSize
	}
	return n + m.Header.EncodedSize()
}

// EncodeBody implements wire.Message. One presence bit selects between the
// signed header and the reference to it.
func (m *StripeMsg) EncodeBody(e *wire.Encoder) {
	e.Bool(!m.Ref)
	if m.Ref {
		e.Node(m.Header.Producer)
		e.U64(m.Header.Height)
		e.Bytes32(m.RefHash)
	} else {
		m.Header.EncodeTo(e)
	}
	e.U8(m.Index)
	e.U32(m.PayloadLen)
	e.VarBytes(m.Shard)
	e.U32(uint32(len(m.Proof)))
	for _, p := range m.Proof {
		e.Bytes32(p)
	}
}

func decodeStripe(d *wire.Decoder) (wire.Message, error) {
	m := &StripeMsg{}
	if d.Bool() {
		h, err := core.DecodeBundleHeader(d)
		if err != nil {
			return nil, err
		}
		m.Header = *h
	} else {
		m.Ref = true
		m.Header.Producer, m.Header.Height, m.RefHash = d.Node(), d.U64(), d.Bytes32()
	}
	m.Index, m.PayloadLen, m.Shard = d.U8(), d.U32(), d.VarBytes()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/crypto.HashSize {
		return nil, wire.ErrTruncated
	}
	m.Proof = make([]crypto.Hash, n)
	for i := range m.Proof {
		m.Proof[i] = d.Bytes32()
	}
	return m, d.Err()
}

var _ = merkle.Verify // keep import stable for documentation references

// TamperShard implements the fault injector's StripeTamperer interface
// structurally (faults cannot import this package: multizone's tests
// import faults). It returns a copy of the stripe with shard byte i (mod
// length) flipped and no memoized state — exactly what decoding a
// corrupted frame yields — so the receiver's Merkle check must fail.
// The original is untouched: the simulator shares one pointer across all
// recipients of a multicast.
func (m *StripeMsg) TamperShard(i int) wire.Message {
	cp := &StripeMsg{Header: m.Header, Ref: m.Ref, RefHash: m.RefHash, Index: m.Index, PayloadLen: m.PayloadLen, Proof: m.Proof}
	cp.Shard = append([]byte(nil), m.Shard...)
	if len(cp.Shard) > 0 {
		if i < 0 {
			i = -i
		}
		cp.Shard[i%len(cp.Shard)] ^= 0xff
	}
	return cp
}

// TamperProof implements the fault injector's StripeTamperer interface:
// the returned copy carries the intact shard under a valid-length garbage
// Merkle proof derived deterministically from seed. Receivers that verify
// proofs reject it exactly like a corrupted payload.
func (m *StripeMsg) TamperProof(seed uint64) wire.Message {
	cp := &StripeMsg{Header: m.Header, Ref: m.Ref, RefHash: m.RefHash, Index: m.Index, PayloadLen: m.PayloadLen, Shard: m.Shard}
	cp.Proof = make([]crypto.Hash, len(m.Proof))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	for i := range cp.Proof {
		binary.LittleEndian.PutUint64(b[8:], uint64(i))
		cp.Proof[i] = crypto.HashBytes(b[:])
	}
	return cp
}

// Subscribe asks the receiver to forward the listed stripe indices.
type Subscribe struct {
	Stripes []uint8
}

var _ wire.Message = (*Subscribe)(nil)

// Type implements wire.Message.
func (m *Subscribe) Type() wire.Type { return TypeSubscribe }

// WireSize implements wire.Message.
func (m *Subscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) }

// EncodeBody implements wire.Message.
func (m *Subscribe) EncodeBody(e *wire.Encoder) { encodeStripeList(e, m.Stripes) }

// A stripe list is a length-prefixed byte string; a list longer than the
// frame fails the decode rather than reading as empty.
func encodeStripeList(e *wire.Encoder, ss []uint8) { e.VarBytes(ss) }

func decodeStripeList(d *wire.Decoder) []uint8 { return d.VarBytes() }

func decodeSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &Subscribe{Stripes: decodeStripeList(d)}
	return m, d.Err()
}

// AcceptSubscribe confirms a subscription for the listed stripes.
type AcceptSubscribe struct {
	Stripes []uint8
	// FromConsensus reports whether the accepting node is a consensus
	// node, which makes the subscriber a relayer of the listed stripes.
	FromConsensus bool
}

var _ wire.Message = (*AcceptSubscribe)(nil)

// Type implements wire.Message.
func (m *AcceptSubscribe) Type() wire.Type { return TypeAcceptSubscribe }

// WireSize implements wire.Message.
func (m *AcceptSubscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) + 1 }

// EncodeBody implements wire.Message.
func (m *AcceptSubscribe) EncodeBody(e *wire.Encoder) {
	encodeStripeList(e, m.Stripes)
	e.Bool(m.FromConsensus)
}

func decodeAcceptSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &AcceptSubscribe{Stripes: decodeStripeList(d), FromConsensus: d.Bool()}
	return m, d.Err()
}

// RejectSubscribe declines a subscription; Children lists alternative
// nodes the requester may subscribe to instead (§IV-D).
type RejectSubscribe struct {
	Stripes  []uint8
	Children []wire.NodeID
}

var _ wire.Message = (*RejectSubscribe)(nil)

// Type implements wire.Message.
func (m *RejectSubscribe) Type() wire.Type { return TypeRejectSubscribe }

// WireSize implements wire.Message.
func (m *RejectSubscribe) WireSize() int {
	return wire.FrameOverhead + 4 + len(m.Stripes) + wire.SizeNodeSlice(m.Children)
}

// EncodeBody implements wire.Message.
func (m *RejectSubscribe) EncodeBody(e *wire.Encoder) {
	encodeStripeList(e, m.Stripes)
	e.NodeSlice(m.Children)
}

func decodeRejectSubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &RejectSubscribe{Stripes: decodeStripeList(d), Children: d.NodeSlice()}
	return m, d.Err()
}

// Unsubscribe cancels stripe subscriptions.
type Unsubscribe struct {
	Stripes []uint8
}

var _ wire.Message = (*Unsubscribe)(nil)

// Type implements wire.Message.
func (m *Unsubscribe) Type() wire.Type { return TypeUnsubscribe }

// WireSize implements wire.Message.
func (m *Unsubscribe) WireSize() int { return wire.FrameOverhead + 4 + len(m.Stripes) }

// EncodeBody implements wire.Message.
func (m *Unsubscribe) EncodeBody(e *wire.Encoder) { encodeStripeList(e, m.Stripes) }

func decodeUnsubscribe(d *wire.Decoder) (wire.Message, error) {
	m := &Unsubscribe{Stripes: decodeStripeList(d)}
	return m, d.Err()
}

// RelayerAlive is a relayer's beacon (Alg. 2, §IV-E): every alive interval
// each node that relays an index by the placement rule sends it straight
// to every zone peer. It carries no stripe list, version or tombstone:
// every member computes who relays what from the zone's membership, so a
// beacon only says that its sender is alive, and it is never forwarded.
type RelayerAlive struct {
	Relayer wire.NodeID
	Zone    uint32
}

var _ wire.Message = (*RelayerAlive)(nil)

// Type implements wire.Message.
func (m *RelayerAlive) Type() wire.Type { return TypeRelayerAlive }

// WireSize implements wire.Message.
func (m *RelayerAlive) WireSize() int { return wire.FrameOverhead + 4 + 4 }

// EncodeBody implements wire.Message.
func (m *RelayerAlive) EncodeBody(e *wire.Encoder) {
	e.Node(m.Relayer)
	e.U32(m.Zone)
}

func decodeRelayerAlive(d *wire.Decoder) (wire.Message, error) {
	m := &RelayerAlive{Relayer: d.Node(), Zone: d.U32()}
	return m, d.Err()
}

// Leave announces departure (§IV-E): every zone peer takes the sender out
// of the placement, so its indices move to their next candidates at once.
type Leave struct{}

var _ wire.Message = (*Leave)(nil)

// Type implements wire.Message.
func (m *Leave) Type() wire.Type { return TypeLeave }

// WireSize implements wire.Message.
func (m *Leave) WireSize() int { return wire.FrameOverhead }

// EncodeBody implements wire.Message.
func (m *Leave) EncodeBody(e *wire.Encoder) {}

func decodeLeave(d *wire.Decoder) (wire.Message, error) { return &Leave{}, nil }

// Heartbeat proves liveness to neighbors (§IV-E).
type Heartbeat struct{}

var _ wire.Message = (*Heartbeat)(nil)

// Type implements wire.Message.
func (m *Heartbeat) Type() wire.Type { return TypeHeartbeat }

// WireSize implements wire.Message.
func (m *Heartbeat) WireSize() int { return wire.FrameOverhead }

// EncodeBody implements wire.Message.
func (m *Heartbeat) EncodeBody(e *wire.Encoder) {}

func decodeHeartbeat(d *wire.Decoder) (wire.Message, error) { return &Heartbeat{}, nil }

// BlockDigest synchronizes ledger state over backup connections to
// neighbor zones (§IV-F): it lists the sender's latest block height and
// bundle tips so receivers can pull what they miss.
type BlockDigest struct {
	Height uint64
	Tips   []uint64
}

var _ wire.Message = (*BlockDigest)(nil)

// Type implements wire.Message.
func (m *BlockDigest) Type() wire.Type { return TypeBlockDigest }

// WireSize implements wire.Message.
func (m *BlockDigest) WireSize() int { return wire.FrameOverhead + 8 + wire.SizeU64Slice(m.Tips) }

// EncodeBody implements wire.Message.
func (m *BlockDigest) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.U64Slice(m.Tips)
}

func decodeBlockDigest(d *wire.Decoder) (wire.Message, error) {
	m := &BlockDigest{Height: d.U64(), Tips: d.U64Slice()}
	return m, d.Err()
}

var registerOnce sync.Once

// RegisterMessages registers Multi-Zone message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeStripe, "zone.stripe", decodeStripe)
		wire.Register(TypeSubscribe, "zone.subscribe", decodeSubscribe)
		wire.Register(TypeAcceptSubscribe, "zone.accept_sub", decodeAcceptSubscribe)
		wire.Register(TypeRejectSubscribe, "zone.reject_sub", decodeRejectSubscribe)
		wire.Register(TypeUnsubscribe, "zone.unsubscribe", decodeUnsubscribe)
		wire.Register(TypeRelayerAlive, "zone.relayer_alive", decodeRelayerAlive)
		wire.Register(TypeLeave, "zone.leave", decodeLeave)
		wire.Register(TypeHeartbeat, "zone.heartbeat", decodeHeartbeat)
		wire.Register(TypeBlockDigest, "zone.block_digest", decodeBlockDigest)
	})
}
