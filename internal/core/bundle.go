// Package core implements Predis, the paper's data production strategy
// (§III): consensus nodes continuously pack transactions into *bundles*,
// multicast them, and store them in per-producer *parallel bundle chains*.
// At each consensus round the leader cuts the chains using tip-list
// information and proposes a tiny, constant-size *Predis block* that maps
// to all the bundles below the cut — so the volume of transactions
// confirmed per round is bounded by the nodes' aggregate bandwidth rather
// than the leader's.
package core

import (
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// Params configures a Predis instance. Consensus nodes must have IDs
// 0..NC-1 so a node ID doubles as a chain index.
type Params struct {
	// NC is the number of consensus nodes (and bundle chains).
	NC int
	// F is the Byzantine fault bound; usually NC = 3F+1.
	F int
	// BundleSize is the maximum number of transactions per bundle
	// (paper default: 50).
	BundleSize int
	// BundleInterval is the maximum time a producer waits before emitting
	// a partially filled bundle.
	BundleInterval time.Duration
	// KeepConfirmed is how many confirmed bundles per chain stay in the
	// mempool to serve fetch requests before pruning.
	KeepConfirmed int
	// Signer signs bundles and Predis blocks and verifies peers'.
	Signer crypto.Signer
}

// Validate checks parameter sanity.
func (p *Params) Validate() error {
	switch {
	case p.NC <= 0:
		return fmt.Errorf("core: NC must be positive, got %d", p.NC)
	case p.F < 0 || 3*p.F+1 > p.NC:
		return fmt.Errorf("core: F=%d incompatible with NC=%d (need NC ≥ 3F+1)", p.F, p.NC)
	case p.BundleSize <= 0:
		return fmt.Errorf("core: BundleSize must be positive, got %d", p.BundleSize)
	case p.Signer == nil:
		return fmt.Errorf("core: Signer is required")
	}
	return nil
}

func (p *Params) withDefaults() Params {
	out := *p
	if out.BundleInterval <= 0 {
		out.BundleInterval = 20 * time.Millisecond
	}
	if out.KeepConfirmed <= 0 {
		out.KeepConfirmed = 128
	}
	return out
}

// TipList records, per bundle chain, the highest *contiguous* bundle height
// the producer has received (§III-A, Fig. 1). Contiguity matters: a tip of
// h asserts possession of every bundle at heights ≤ h on that chain, which
// is what makes the cutting rule an availability proof.
type TipList []uint64

// Clone returns a copy.
func (t TipList) Clone() TipList { return append(TipList(nil), t...) }

// AtLeast reports whether every entry of t is ≥ the corresponding entry of
// other (the monotonicity check for child bundles, validity rule 3).
func (t TipList) AtLeast(other TipList) bool {
	if len(t) != len(other) {
		return false
	}
	for i := range t {
		if t[i] < other[i] {
			return false
		}
	}
	return true
}

// BundleHeader is the signed green part of Fig. 1: chain position, a
// commitment to the body, a commitment to the erasure-coded stripes, and
// the producer's tip list.
type BundleHeader struct {
	// Producer is the bundle chain this header extends (consensus node
	// ID, which equals the chain index).
	Producer wire.NodeID
	// bodyOK records that the body of the bundle holding this header
	// matched its commitments (see Bundle.VerifyBody); valid while memo is
	// owned. It sits in Producer's padding, so a Bundle stays 256 bytes.
	bodyOK bool
	// Height starts at 1; the height-1 bundle has a zero Parent.
	Height uint64
	// Parent is the header hash of the previous bundle on this chain.
	Parent crypto.Hash
	// TxRoot is the Merkle root over the body's transaction hashes.
	TxRoot crypto.Hash
	// StripeRoot is the Merkle root over the bundle's erasure-coded
	// stripes (Fig. 1 "Merkle Stripe hash"); zero when the deployment
	// does not stripe bundles.
	StripeRoot crypto.Hash
	// TxCount and TxBytes describe the body for validation and
	// accounting.
	TxCount uint32
	TxBytes uint32
	// Tips is the producer's tip list at packing time.
	Tips TipList
	// Sig is the producer's signature over Hash().
	Sig []byte

	// memo is owned (crypto.Memo.Own) once hash holds Hash(), and records
	// the producer signature that passed VerifySig. pack sets all three
	// memos by construction, a received header earns them from its first
	// successful check, and CopyTo hands the hash and signature on.
	memo crypto.Memo
	hash crypto.Hash
}

// encodeUnsigned writes every field except the signature.
func (h *BundleHeader) encodeUnsigned(e *wire.Encoder) {
	e.Node(h.Producer)
	e.U64(h.Height)
	e.Bytes32(h.Parent)
	e.Bytes32(h.TxRoot)
	e.Bytes32(h.StripeRoot)
	e.U32(h.TxCount)
	e.U32(h.TxBytes)
	e.U64Slice(h.Tips)
}

// EncodeTo writes the full header including the signature.
func (h *BundleHeader) EncodeTo(e *wire.Encoder) {
	h.encodeUnsigned(e)
	e.VarBytes(h.Sig)
}

// DecodeBundleHeader reads a header written by EncodeTo.
func DecodeBundleHeader(d *wire.Decoder) (*BundleHeader, error) {
	h := &BundleHeader{
		Producer:   d.Node(),
		Height:     d.U64(),
		Parent:     d.Bytes32(),
		TxRoot:     d.Bytes32(),
		StripeRoot: d.Bytes32(),
		TxCount:    d.U32(),
		TxBytes:    d.U32(),
		Tips:       TipList(d.U64Slice()),
		Sig:        d.VarBytes(),
	}
	return h, d.Err()
}

// EncodedSize returns the wire size of the header.
func (h *BundleHeader) EncodedSize() int {
	return 4 + 8 + 32 + 32 + 32 + 4 + 4 + wire.SizeU64Slice(h.Tips) + wire.SizeVarBytes(h.Sig)
}

// Hash returns the header's identity: the digest of all fields except the
// signature, memoized on the header. Theorem 3.1 (bundle header
// consistency) rests on this hash committing to TxRoot.
//
//predis:hotpath
func (h *BundleHeader) Hash() crypto.Hash {
	if h.memo.Own() {
		return h.hash
	}
	e := wire.GetEncoder()
	h.encodeUnsigned(e)
	h.hash = crypto.HashBytes(e.Bytes())
	wire.PutEncoder(e)
	h.memo.Claim()
	h.bodyOK = false
	return h.hash
}

// VerifySig checks the producer's signature over Hash(), once per header:
// a header that passed, one its producer packed, and a carrier's copy of
// either answer from the memo. The caller checks that Producer is in
// range.
func (h *BundleHeader) VerifySig(signer crypto.Signer) bool {
	return h.memo.Verify(signer, int(h.Producer), h.Hash(), h.Sig)
}

// CopyTo makes *dst an unchanged copy of h that keeps h's hash and
// signature memos (crypto.Memo.Keep), for a constructor that builds a
// message or bundle around a header it already checked. The body memo
// stays behind: it belongs to the bundle that held h.
func (h *BundleHeader) CopyTo(dst *BundleHeader) {
	*dst = *h
	dst.memo.Keep(&h.memo)
	dst.bodyOK = false
}

// Bundle is a header plus its transaction body.
type Bundle struct {
	Header BundleHeader
	Txs    []*types.Transaction

	// stripeCache holds the erasure-coded form of this bundle (stored as
	// any to keep core free of a multizone dependency). Erasure encoding
	// is deterministic in Txs, so every consensus node would compute the
	// same shards; caching them on the shared *Bundle makes the encode run
	// once network-wide instead of once per distributor. The memo lives
	// until the bundle first commits on some node (Predis.commitBlock):
	// a distributor that stores the bundle later re-encodes it, into
	// identical shards.
	stripeCache any
}

// StripeCache returns the value stored by SetStripeCache (nil if unset).
func (b *Bundle) StripeCache() any { return b.stripeCache }

// SetStripeCache memoizes the erasure-coded form of this bundle (nil
// releases it). The value must be a pure function of b's contents so the
// cache stays value-identical across nodes.
func (b *Bundle) SetStripeCache(v any) { b.stripeCache = v }

// PackBundle builds and signs a bundle extending parent (nil for a genesis
// bundle) with the given transactions and tip list. The caller's signer
// must belong to the producer. The bundle takes ownership of txs and tips:
// the caller must not modify either afterwards.
func PackBundle(signer crypto.Signer, producer wire.NodeID, parent *BundleHeader,
	txs []*types.Transaction, tips TipList) *Bundle {
	return PackBundleStriped(signer, producer, parent, txs, tips, crypto.ZeroHash)
}

// PackBundleStriped is PackBundle with an explicit stripe Merkle root
// committed in the header, for deployments that erasure-code bundles
// (Multi-Zone). The root must be computed over the shards of the encoded
// body before signing. Like PackBundle it takes ownership of txs and tips.
func PackBundleStriped(signer crypto.Signer, producer wire.NodeID, parent *BundleHeader,
	txs []*types.Transaction, tips TipList, stripeRoot crypto.Hash) *Bundle {
	b := new(Bundle)
	b.pack(signer, producer, parent, txs, tips, stripeRoot)
	return b
}

// pack fills b as PackBundleStriped's result, so a caller can allocate the
// bundle together with what carries it.
func (b *Bundle) pack(signer crypto.Signer, producer wire.NodeID, parent *BundleHeader,
	txs []*types.Transaction, tips TipList, stripeRoot crypto.Hash) {
	h := &b.Header
	*h = BundleHeader{
		Producer:   producer,
		Height:     1,
		TxRoot:     TxMerkleRoot(txs),
		StripeRoot: stripeRoot,
		TxCount:    uint32(len(txs)),
		TxBytes:    uint32(types.TotalBytes(txs)),
		Tips:       tips,
	}
	if parent != nil {
		h.Height = parent.Height + 1
		h.Parent = parent.Hash()
	}
	// TxRoot, TxCount and TxBytes come from the very Txs the bundle stores,
	// and a packed bundle is immutable: the simulator's recipients of the
	// producer's own *Bundle re-derive nothing.
	h.Sig = h.memo.Sign(signer, int(producer), h.Hash())
	h.bodyOK = true
	b.Txs = txs
}

// TxMerkleRoot computes the Merkle root over transaction hashes.
func TxMerkleRoot(txs []*types.Transaction) crypto.Hash {
	if len(txs) == 0 {
		return crypto.ZeroHash
	}
	// Bundles up to the paper's default size (50) root without touching the
	// heap; stream mode seals one-transaction bundles at the submit rate.
	var stack [64]crypto.Hash
	leaves := stack[:0]
	if len(txs) > len(stack) {
		leaves = make([]crypto.Hash, 0, len(txs)) //predis:allocok bundles above the default size
	}
	for _, t := range txs {
		h := t.Hash()
		leaves = append(leaves, merkle.HashLeaf(h[:]))
	}
	return merkle.RootInPlace(leaves)
}

// VerifyBody checks that the body matches the header's commitments:
// count, bytes, then root, once per bundle (the header's body memo). A
// packed bundle passes without hashing, so the root is recomputed only
// for a bundle this process did not build: one decoded from a frame or
// assembled from stripes.
func (b *Bundle) VerifyBody() error {
	if b.Header.memo.Own() && b.Header.bodyOK {
		return nil
	}
	if int(b.Header.TxCount) != len(b.Txs) {
		return fmt.Errorf("core: bundle tx count %d, header says %d", len(b.Txs), b.Header.TxCount)
	}
	if txBytes := uint32(types.TotalBytes(b.Txs)); txBytes != b.Header.TxBytes {
		return fmt.Errorf("core: bundle tx bytes %d, header says %d", txBytes, b.Header.TxBytes)
	}
	if TxMerkleRoot(b.Txs) != b.Header.TxRoot {
		return fmt.Errorf("core: bundle tx root mismatch")
	}
	b.Header.Hash() // owns the memo the body bit is read under
	b.Header.bodyOK = true
	return nil
}

// EncodedSize returns the wire size of header+body.
func (b *Bundle) EncodedSize() int {
	return b.Header.EncodedSize() + types.SizeTxs(b.Txs)
}

// EncodeTo writes header then body.
func (b *Bundle) EncodeTo(e *wire.Encoder) {
	b.Header.EncodeTo(e)
	types.EncodeTxs(e, b.Txs)
}

// DecodeBundle reads a bundle written by EncodeTo.
func DecodeBundle(d *wire.Decoder) (*Bundle, error) {
	h, err := DecodeBundleHeader(d)
	if err != nil {
		return nil, err
	}
	txs, err := types.DecodeTxs(d)
	if err != nil {
		return nil, err
	}
	return &Bundle{Header: *h, Txs: txs}, d.Err()
}
