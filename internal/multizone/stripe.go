// Package multizone implements the paper's data distribution layer (§IV):
// the network is divided into zones, each zone keeps n_c relayers alive,
// consensus nodes erasure-code every bundle into n_c stripes and send only
// their own stripe to subscribers, relayers exchange stripes so each one
// receives the full set while consensus bandwidth stays constant, and
// ordinary nodes subscribe to relayers. Predis blocks (tiny) follow the
// same subscription tree, so a full node can rebuild every block from its
// local bundle store the moment the block header arrives.
package multizone

import (
	"errors"
	"fmt"
	"sync"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/erasure"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// Striper turns bundles into verifiable stripes and back. A bundle body is
// erasure-coded into data = n_c−f and parity = f shards (any n_c−f of the
// n_c reconstruct), and the bundle header's StripeRoot commits to all
// shards so each stripe is independently verifiable with a Merkle proof
// (§IV-D). A Striper is immutable and safe for concurrent use.
type Striper struct {
	coder *erasure.Coder
	nc, f int
	// digests is a stripe set's digest slab length: the n_c leaf hashes,
	// then merkle.ProofsInto's interior nodes and proof paths.
	digests int
}

// NewStriper builds a striper for n_c consensus nodes tolerating f faults.
func NewStriper(nc, f int) (*Striper, error) {
	if nc <= 0 || f < 0 || nc-f <= 0 {
		return nil, fmt.Errorf("multizone: bad striper params nc=%d f=%d", nc, f)
	}
	coder, err := erasure.New(nc-f, f)
	if err != nil {
		return nil, err
	}
	return &Striper{coder: coder, nc: nc, f: f, digests: nc + merkle.ProofSlabLen(nc)}, nil
}

// NC returns the stripe count (one per consensus node).
func (s *Striper) NC() int { return s.nc }

// MinStripes returns how many stripes reconstruct a bundle (n_c − f).
func (s *Striper) MinStripes() int { return s.nc - s.f }

// stackShards is how many shard headers the coder calls take from the
// stack; only a wider striper allocates them.
const stackShards = 64

// shardHeaders returns n_c shard headers for a coder call: stack's, when
// they fit.
func (s *Striper) shardHeaders(stack *[stackShards][]byte) [][]byte {
	if s.nc > stackShards {
		return make([][]byte, s.nc) //predis:allocok stripers wider than the stack headers
	}
	return stack[:s.nc]
}

// StripeSet is the encoded form of one bundle: one stripe message per
// index, with its shard and Merkle proof. The set owns three slabs — the
// shard bytes (the body, zero-padded, then the parity), the digests (leaf
// hashes, interior nodes, then every proof path) and the messages — and
// each message's Shard and Proof slice the first two. Only Stripe writes
// to a set once it is built, and the slabs live as long as any message cut
// from the set is referenced.
type StripeSet struct {
	PayloadLen int
	Root       crypto.Hash
	msgs       []StripeMsg
	f          int32 // the striper's f, which picks the header carriers
	// assembled memoizes the bundle reconstructed from the set's own
	// slots (StripeMsg.isSlot; a copy of a slot decodes afresh): every
	// valid n_c−f subset reconstructs the same body (Reed–Solomon), and
	// the result is checked against the header's commitments before
	// caching, so the memo is value-identical for every node that could
	// reassemble it.
	assembled *core.Bundle
}

// Encode erasure-codes a bundle body into n_c shards and builds the stripe
// Merkle proofs. Call it before signing the header so StripeRoot can be
// embedded (core.Distribution.StripeRoot does this). The body is serialized
// exactly as the wire codec does, so reassembled bundles decode with the
// standard path.
//
//predis:hotpath
func (s *Striper) Encode(txs []*types.Transaction) (*StripeSet, error) {
	e := wire.GetEncoder()
	types.EncodeTxs(e, txs)
	payloadLen := e.Len()
	size := s.coder.StripeSize(payloadLen)
	slab := make([]byte, size*s.nc) //predis:allocok the per-bundle shard slab: every stripe's payload is a sub-slice of it
	copy(slab, e.Bytes())
	wire.PutEncoder(e)
	var stack [stackShards][]byte
	shards := s.shardHeaders(&stack)
	for i := range shards {
		shards[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	if err := s.coder.Encode(shards); err != nil {
		return nil, err
	}
	digests := make([]crypto.Hash, s.digests) //predis:allocok the per-bundle digest slab: leaves, interior nodes, proof paths
	leaves := merkle.HashLeaves(digests[:s.nc], shards)
	root, paths := merkle.ProofsInto(digests[s.nc:], leaves)
	set := &StripeSet{PayloadLen: payloadLen, Root: root, f: int32(s.f)} //predis:allocok the result
	set.msgs = make([]StripeMsg, s.nc)                                   //predis:allocok the per-bundle message slab: Stripe hands out its slots
	for i, shard := range shards {
		n := merkle.PathLen(s.nc, i)
		set.msgs[i] = StripeMsg{Index: uint8(i), PayloadLen: uint32(payloadLen), Shard: shard, Proof: paths[:n:n], set: set}
		paths = paths[n:]
	}
	return set, nil
}

// Stripe is stripe for a header value (a benchmark kernel's, a forged
// one): the copy carries no memo, so a carrier's header is checked afresh.
func (set *StripeSet) Stripe(header core.BundleHeader, i int) (*StripeMsg, error) {
	return set.stripe(&header, i)
}

// stripe returns stripe i as a wire message for the bundle header h: a
// carrier of the header or a reference to it, as headerCarrier decides.
// The first call for an index stamps the header on the set's own slot and
// returns it; later calls with the same header return the same message,
// which is what crosses the network for (bundle, index) either way. A
// different header over the same body gets a message of its own. A
// carrier's header keeps h's memos (BundleHeader.CopyTo): the distributor
// stamps a verified bundle's header, so no full node checks it again.
//
//predis:hotpath
func (set *StripeSet) stripe(h *core.BundleHeader, i int) (*StripeMsg, error) {
	if i < 0 || i >= len(set.msgs) {
		return nil, fmt.Errorf("multizone: stripe index %d out of range", i) //predis:allocok caller bug
	}
	m := &set.msgs[i]
	if m.stamped {
		if m.names(h) {
			return m, nil
		}
		m = &StripeMsg{Index: m.Index, PayloadLen: m.PayloadLen, Shard: m.Shard, Proof: m.Proof} //predis:allocok a second header over one body
	}
	m.stamped = true
	if headerCarrier(i, h.Producer, len(set.msgs), int(set.f)) {
		h.CopyTo(&m.Header)
	} else {
		m.Header.Producer, m.Header.Height = h.Producer, h.Height
		m.Ref, m.RefHash = true, h.Hash()
	}
	return m, nil
}

// Errors from stripe verification and reassembly.
var (
	ErrStripeProof  = errors.New("multizone: stripe Merkle proof invalid")
	ErrStripeCount  = errors.New("multizone: not enough stripes to reassemble")
	ErrStripeBundle = errors.New("multizone: reassembled bundle does not match header")
)

// VerifyStripe checks a stripe against root, the StripeRoot of the
// authenticated header whose hash the stripe names (a carrier's own
// header, or the one a reference points to). A stripe set's own slot is
// verified by construction: Encode computed the set's Root from the very
// shards and proofs the slot holds, and nothing writes them afterwards, so
// the slot checked against that root passes without hashing. The
// simulator delivers those slots themselves to every recipient. Any other
// message — decoded from a frame, copied, tampered, a second header's copy
// from Stripe, or a slot checked against another root — runs the full
// Merkle check.
func (s *Striper) VerifyStripe(root crypto.Hash, m *StripeMsg) error {
	if int(m.Index) >= s.nc {
		return fmt.Errorf("%w: index %d of %d", ErrStripeProof, m.Index, s.nc) //predis:allocok reject path
	}
	if m.isSlot() && root == m.set.Root {
		return nil
	}
	if !merkle.Verify(root, m.Shard, int(m.Index), s.nc, m.Proof) {
		return ErrStripeProof
	}
	return nil
}

// Reassemble is reassemble for a header value, as a benchmark kernel holds
// one.
func (s *Striper) Reassemble(header core.BundleHeader, stripes []*StripeMsg) (*core.Bundle, error) {
	return s.reassemble(&header, stripes)
}

// reassemble reconstructs a bundle from any n_c−f verified stripes of the
// header h. stripes is indexed by stripe index; nil entries are missing.
//
//predis:hotpath
func (s *Striper) reassemble(h *core.BundleHeader, stripes []*StripeMsg) (*core.Bundle, error) {
	have := 0
	payloadLen := -1
	for _, st := range stripes {
		if st == nil {
			continue
		}
		have++
		if payloadLen < 0 {
			payloadLen = int(st.PayloadLen)
		}
	}
	if have < s.MinStripes() || payloadLen < 0 {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrStripeCount, have, s.MinStripes()) //predis:allocok caller bug
	}
	// With enough stripes in hand, a bundle another node already
	// reconstructed from a set one of these slots belongs to is exactly
	// what decoding would produce: every valid n_c−f subset yields the
	// same body (Reed–Solomon), and the memo was checked against the
	// header's commitments before caching. In the simulator all but the
	// first full node to assemble a bundle leave here, having allocated
	// nothing.
	headerHash := h.Hash()
	for _, st := range stripes {
		if st != nil && st.isSlot() && st.set.assembled != nil && st.set.assembled.Header.Hash() == headerHash {
			return st.set.assembled, nil
		}
	}
	return s.decode(h, stripes, payloadLen)
}

// bodyPool recycles decode's body buffers. A body is dead once
// types.DecodeTxs returns, since decoded transactions copy every field out
// of it; buffers above pooledBodyCap are dropped rather than pooled.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const pooledBodyCap = 1 << 20

// decode is reassemble's slow half: erasure-decode the body, parse it and
// check it against the header. The bundle's header is a copy of h with
// h's memos: h is its carrier's authenticated header.
//
//predis:coldpath
func (s *Striper) decode(h *core.BundleHeader, stripes []*StripeMsg, payloadLen int) (*core.Bundle, error) {
	var stack [stackShards][]byte
	shards := s.shardHeaders(&stack)
	for i, st := range stripes {
		if st != nil {
			shards[i] = st.Shard
		}
	}
	buf := bodyPool.Get().(*[]byte)
	body, err := s.coder.DecodeData(shards, payloadLen, *buf)
	if err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	txs, err := types.DecodeTxs(wire.NewDecoder(body))
	if cap(body) <= pooledBodyCap {
		*buf = body[:0]
		bodyPool.Put(buf)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	b := &core.Bundle{Txs: txs}
	h.CopyTo(&b.Header)
	if err := b.VerifyBody(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	for _, st := range stripes {
		if st != nil && st.isSlot() {
			st.set.assembled = b
		}
	}
	return b, nil
}
