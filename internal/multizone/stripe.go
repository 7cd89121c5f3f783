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
	return &Striper{coder: coder, nc: nc, f: f}, nil
}

// NC returns the stripe count (one per consensus node).
func (s *Striper) NC() int { return s.nc }

// MinStripes returns how many stripes reconstruct a bundle (n_c − f).
func (s *Striper) MinStripes() int { return s.nc - s.f }

// StripeSet is the encoded form of one bundle: the shards plus every
// shard's Merkle proof. It is immutable once built and owns two slabs —
// Shards slice one byte slab (the body, zero-padded, then the parity), the
// proofs slice one digest slab — which live as long as any stripe message
// cut from the set is referenced.
type StripeSet struct {
	Shards     [][]byte
	PayloadLen int
	Root       crypto.Hash
	proofs     [][]crypto.Hash
	f          int // the striper's f, which picks the header carriers
}

// Encode erasure-codes a bundle body into n_c shards and builds the stripe
// Merkle proofs. Call it before signing the header so StripeRoot can be
// embedded (core.Options.StripeRoot does this). The body is serialized
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
	shards := make([][]byte, s.nc) //predis:allocok per-bundle shard headers
	for i := range shards {
		shards[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	if err := s.coder.Encode(shards); err != nil {
		return nil, err
	}
	leaves := make([]crypto.Hash, len(shards)) //predis:allocok per-bundle leaf digests, level 0 of the proof tree
	root, proofs := merkle.ProofsOfHashes(merkle.HashLeaves(leaves, shards))
	return &StripeSet{Shards: shards, PayloadLen: payloadLen, Root: root, proofs: proofs, f: s.f}, nil //predis:allocok the result
}

// Stripe extracts stripe i as a wire message for the given bundle header:
// a carrier of the header or a reference to it, as headerCarrier decides.
func (set *StripeSet) Stripe(header core.BundleHeader, i int) (*StripeMsg, error) {
	if i < 0 || i >= len(set.Shards) {
		return nil, fmt.Errorf("multizone: stripe index %d out of range", i)
	}
	m := &StripeMsg{
		Index:      uint8(i),
		PayloadLen: uint32(set.PayloadLen),
		Shard:      set.Shards[i],
		Proof:      set.proofs[i],
	}
	if headerCarrier(i, header.Producer, len(set.Shards), set.f) {
		m.Header = header
	} else {
		m.Header.Producer, m.Header.Height = header.Producer, header.Height
		m.Ref, m.RefHash = true, header.Hash()
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
// header, or the one a reference points to). Success is memoized on the
// message: the simulator delivers one *StripeMsg to every recipient, and
// the header hash the message names fixes the root, so the Merkle proof is
// checked once per stripe rather than once per full node.
func (s *Striper) VerifyStripe(root crypto.Hash, m *StripeMsg) error {
	if m.verified {
		return nil
	}
	if int(m.Index) >= s.nc {
		return fmt.Errorf("%w: index %d of %d", ErrStripeProof, m.Index, s.nc) //predis:allocok reject path
	}
	if !merkle.Verify(root, m.Shard, int(m.Index), s.nc, m.Proof) {
		return ErrStripeProof
	}
	m.verified = true
	return nil
}

// Reassemble reconstructs a bundle from any n_c−f verified stripes of the
// same header. stripes is indexed by stripe index; nil entries are
// missing.
//
//predis:hotpath
func (s *Striper) Reassemble(header core.BundleHeader, stripes []*StripeMsg) (*core.Bundle, error) {
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
	// reconstructed from a set containing one of them is exactly what
	// decoding would produce: every valid n_c−f subset yields the same
	// body (Reed–Solomon), and the memo was checked against the header's
	// commitments before caching. In the simulator all but the first full
	// node to assemble a bundle leave here, having allocated nothing.
	headerHash := header.Hash()
	for _, st := range stripes {
		if st != nil && st.assembled != nil && st.assembled.Header.Hash() == headerHash {
			return st.assembled, nil
		}
	}
	return s.decode(header, stripes, payloadLen)
}

// decode is Reassemble's slow half: erasure-decode the body, parse it and
// check it against the header.
//
//predis:coldpath
func (s *Striper) decode(header core.BundleHeader, stripes []*StripeMsg, payloadLen int) (*core.Bundle, error) {
	shards := make([][]byte, s.nc)
	for i, st := range stripes {
		if st != nil {
			shards[i] = st.Shard
		}
	}
	body, err := s.coder.DecodeData(shards, payloadLen)
	if err != nil {
		return nil, err
	}
	txs, err := types.DecodeTxs(wire.NewDecoder(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	b := &core.Bundle{Header: header, Txs: txs}
	if err := b.VerifyBody(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStripeBundle, err)
	}
	for _, st := range stripes {
		if st != nil {
			st.assembled = b
		}
	}
	return b, nil
}
