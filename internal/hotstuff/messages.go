// Package hotstuff implements chained HotStuff (Yin et al., PODC'19) as an
// event-driven consensus engine over the env runtime: pipelined proposals,
// quorum certificates, the two-chain lock / three-chain commit rule, and a
// NewView pacemaker with exponential backoff.
//
// Quorum certificates carry an explicit list of signature shares, matching
// the relab/hotstuff artifact the paper evaluates (which uses list-based
// ECDSA certificates rather than threshold signatures), so QC wire size is
// Θ(n) like the system under study.
package hotstuff

import (
	"encoding/binary"
	"sync"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// Message type tags.
const (
	TypeProposal = wire.TypeRangeHotStuff + 1
	TypeVote     = wire.TypeRangeHotStuff + 2
	TypeNewView  = wire.TypeRangeHotStuff + 3
	TypeEvidence = wire.TypeRangeHotStuff + 4
)

// voteDigest is what replicas sign to vote for a block in a view: the
// digest of (view, block) as the wire encodes them.
func voteDigest(view uint64, block crypto.Hash) crypto.Hash {
	var buf [8 + crypto.HashSize]byte
	binary.BigEndian.PutUint64(buf[:], view)
	copy(buf[8:], block[:])
	return crypto.HashBytes(buf[:])
}

// QC is a quorum certificate: n−f signature shares over (View, Block).
type QC struct {
	View    uint64
	Block   crypto.Hash
	Signers []wire.NodeID
	Sigs    [][]byte

	// memo is owned once every share's signature passed Verify, or once
	// the collector completed the QC from verified votes (see
	// Engine.onVote): every replica receives the same *QC inside proposals
	// and NewViews. A value copy or a decoded QC checks afresh. A
	// certificate is immutable once complete.
	memo crypto.Memo
}

// GenesisQC certifies the implicit genesis block.
func GenesisQC() *QC { return &QC{} }

// IsGenesis reports whether this is the genesis certificate.
func (q *QC) IsGenesis() bool { return q.View == 0 && q.Block.IsZero() }

// EncodedSize returns the QC's wire size.
func (q *QC) EncodedSize() int {
	n := 8 + 32 + 4
	for _, s := range q.Sigs {
		n += 4 + wire.SizeVarBytes(s)
	}
	return n
}

// EncodeTo appends the QC.
func (q *QC) EncodeTo(e *wire.Encoder) {
	e.U64(q.View)
	e.Bytes32(q.Block)
	e.U32(uint32(len(q.Signers)))
	for i, id := range q.Signers {
		e.Node(id)
		e.VarBytes(q.Sigs[i])
	}
}

// DecodeQC reads a QC.
func DecodeQC(d *wire.Decoder) (*QC, error) {
	q := &QC{View: d.U64(), Block: d.Bytes32()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/8 {
		return nil, wire.ErrTruncated
	}
	q.Signers = make([]wire.NodeID, n)
	q.Sigs = make([][]byte, n)
	for i := 0; i < n; i++ {
		q.Signers[i] = d.Node()
		q.Sigs[i] = d.VarBytes()
	}
	return q, d.Err()
}

// Verify checks the certificate: at least quorum distinct signers below
// n, each share valid over (View, Block), the signatures once per QC
// (crypto.VerifyShares). The genesis QC is always valid.
//
//predis:hotpath
func (q *QC) Verify(signer crypto.Signer, n int, quorum int) bool {
	if q.IsGenesis() {
		return true
	}
	var digest crypto.Hash // needed only while the shares are unchecked
	if !q.memo.Own() {
		digest = voteDigest(q.View, q.Block)
	}
	return crypto.VerifyShares(signer, &q.memo, n, quorum, q.Signers, q.Sigs, digest)
}

// Block is a chained-HotStuff block: each proposal extends the block
// certified by its Justify QC.
type Block struct {
	// Height is the chain position (1 + parent height); the application's
	// commit sequence.
	Height uint64
	// View in which the block was proposed.
	View uint64
	// Parent is the hash of the parent block (zero for blocks extending
	// genesis).
	Parent crypto.Hash
	// Justify certifies the parent.
	Justify *QC
	// Payload is the application content.
	Payload wire.Message
	// Leader is the proposer.
	Leader wire.NodeID
	// Sig is the leader's signature over Hash().
	Sig []byte

	// auth is owned once hash holds Hash(), and records the leader
	// signature that passed onProposal's check, or that the leader's own
	// signer made: every replica receives the same *Block. A value copy or
	// a replaced Sig checks afresh (see crypto.Memo).
	auth crypto.Memo
	hash crypto.Hash
	// payloadEnc memoizes the marshaled Payload frame: proposing to n
	// replicas (and hashing, and re-proposing) encodes the block payload
	// once instead of once per phase per recipient. Hash drops it whenever
	// it re-derives, so a value copy never hashes another Payload's frame.
	payloadEnc wire.EncCache
}

// Hash returns the block identity (header fields + payload digest binding
// via the encoded payload, excluding the signature), memoized on the
// block: verification paths call Hash repeatedly per block.
//
//predis:hotpath
func (b *Block) Hash() crypto.Hash {
	if !b.auth.Own() {
		// Not hashed at this address: a new block, or a value copy whose
		// cached frame may be another Payload's.
		b.payloadEnc.Invalidate()
		b.seal(b.payloadFrame())
	}
	return b.hash
}

// seal memoizes the block's hash over payload, the frame of its Payload,
// and claims the block's memo.
func (b *Block) seal(payload []byte) {
	e := wire.GetEncoder()
	e.U64(b.Height)
	e.U64(b.View)
	e.Bytes32(b.Parent)
	e.U64(b.Justify.View)
	e.Bytes32(b.Justify.Block)
	e.Node(b.Leader)
	e.Bytes32(crypto.HashBytes(payload))
	b.hash = crypto.HashBytes(e.Bytes())
	wire.PutEncoder(e)
	b.auth.Claim()
}

// payloadFrame encodes the payload once (payloadEnc), for the hash and
// then for every send.
//
//predis:coldpath
func (b *Block) payloadFrame() []byte {
	return b.payloadEnc.Frame(b.Payload)
}

// Proposal carries a block from its leader to all replicas.
type Proposal struct {
	Block *Block
}

var _ wire.Message = (*Proposal)(nil)

// Type implements wire.Message.
func (m *Proposal) Type() wire.Type { return TypeProposal }

// WireSize implements wire.Message.
func (m *Proposal) WireSize() int {
	b := m.Block
	return wire.FrameOverhead + 8 + 8 + 32 + b.Justify.EncodedSize() +
		4 + 4 + b.payloadEnc.FrameSize(b.Payload) + wire.SizeVarBytes(b.Sig)
}

// EncodeBody implements wire.Message.
func (m *Proposal) EncodeBody(e *wire.Encoder) {
	b := m.Block
	e.U64(b.Height)
	e.U64(b.View)
	e.Bytes32(b.Parent)
	b.Justify.EncodeTo(e)
	e.Node(b.Leader)
	e.VarBytes(b.payloadEnc.Frame(b.Payload))
	e.VarBytes(b.Sig)
}

func decodeProposal(d *wire.Decoder) (wire.Message, error) {
	b := &Block{Height: d.U64(), View: d.U64(), Parent: d.Bytes32()}
	qc, err := DecodeQC(d)
	if err != nil {
		return nil, err
	}
	b.Justify = qc
	b.Leader = d.Node()
	raw := d.VarBytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	payload, _, err := wire.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	b.Payload = payload
	// The decoder copied raw, so the cache can own it: relaying the block
	// reuses the received payload bytes, and the block is hashed over them
	// here, which keeps the frame its own.
	b.payloadEnc.Prime(raw)
	b.seal(raw)
	b.Sig = d.VarBytes()
	return &Proposal{Block: b}, d.Err()
}

// Equivocate implements the fault injector's Equivocator interface: it
// returns a proposal for the same view whose block disagrees with the
// original (different parent link), re-signed by signer as the original
// leader. Receivers accept the signature, but the block cannot extend the
// chain its Justify certifies, so victims refuse to vote for it — and the
// conflicting signed block is equivocation evidence.
func (m *Proposal) Equivocate(signer crypto.Signer) wire.Message {
	b := m.Block
	fork := &Block{
		Height:  b.Height,
		View:    b.View,
		Parent:  b.Parent,
		Justify: b.Justify,
		Payload: b.Payload,
		Leader:  b.Leader,
	}
	fork.Parent[0] ^= 0xff
	fork.Sig = signer.Sign(fork.Hash())
	return &Proposal{Block: fork}
}

// Evidence proves leader equivocation in a view: an authenticated
// proposal block (BlockA, leader-signed by SigA) plus either a second
// leader-signed block (BlockB/SigB) or a quorum certificate for a
// different block of the same view (Conflict). Both halves are verified
// by every receiver, so the message needs no reporter signature.
type Evidence struct {
	View     uint64
	Leader   wire.NodeID
	BlockA   crypto.Hash
	SigA     []byte
	BlockB   crypto.Hash
	SigB     []byte // empty when Conflict carries the second half
	Conflict *QC    // genesis when SigB carries the second half
}

var _ wire.Message = (*Evidence)(nil)

// Type implements wire.Message.
func (m *Evidence) Type() wire.Type { return TypeEvidence }

// WireSize implements wire.Message.
func (m *Evidence) WireSize() int {
	return wire.FrameOverhead + 8 + 4 + 32 + wire.SizeVarBytes(m.SigA) +
		32 + wire.SizeVarBytes(m.SigB) + m.Conflict.EncodedSize()
}

// EncodeBody implements wire.Message.
func (m *Evidence) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.Node(m.Leader)
	e.Bytes32(m.BlockA)
	e.VarBytes(m.SigA)
	e.Bytes32(m.BlockB)
	e.VarBytes(m.SigB)
	m.Conflict.EncodeTo(e)
}

func decodeEvidence(d *wire.Decoder) (wire.Message, error) {
	m := &Evidence{
		View: d.U64(), Leader: d.Node(),
		BlockA: d.Bytes32(), SigA: d.VarBytes(),
		BlockB: d.Bytes32(), SigB: d.VarBytes(),
	}
	qc, err := DecodeQC(d)
	if err != nil {
		return nil, err
	}
	m.Conflict = qc
	return m, d.Err()
}

// Vote is a replica's signature share for a block, sent to the next view's
// leader (HotStuff's all-to-one voting).
type Vote struct {
	View    uint64
	Block   crypto.Hash
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*Vote)(nil)

// Type implements wire.Message.
func (m *Vote) Type() wire.Type { return TypeVote }

// WireSize implements wire.Message.
func (m *Vote) WireSize() int {
	return wire.FrameOverhead + 8 + 32 + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *Vote) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	e.Bytes32(m.Block)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeVote(d *wire.Decoder) (wire.Message, error) {
	m := &Vote{View: d.U64(), Block: d.Bytes32(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

// NewViewMsg tells the next leader a replica has timed out of a view (or
// finished it), carrying the replica's highest QC.
type NewViewMsg struct {
	View    uint64 // the view being entered
	HighQC  *QC
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*NewViewMsg)(nil)

// Type implements wire.Message.
func (m *NewViewMsg) Type() wire.Type { return TypeNewView }

// WireSize implements wire.Message.
func (m *NewViewMsg) WireSize() int {
	return wire.FrameOverhead + 8 + m.HighQC.EncodedSize() + 4 + wire.SizeVarBytes(m.Sig)
}

// EncodeBody implements wire.Message.
func (m *NewViewMsg) EncodeBody(e *wire.Encoder) {
	e.U64(m.View)
	m.HighQC.EncodeTo(e)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeNewView(d *wire.Decoder) (wire.Message, error) {
	m := &NewViewMsg{View: d.U64()}
	qc, err := DecodeQC(d)
	if err != nil {
		return nil, err
	}
	m.HighQC = qc
	m.Replica = d.Node()
	m.Sig = d.VarBytes()
	return m, d.Err()
}

// signDigest is what a replica signs on a NewView.
func (m *NewViewMsg) signDigest() crypto.Hash {
	return voteDigest(m.View, crypto.HashConcat([]byte("newview"), m.HighQC.Block[:]))
}

var registerOnce sync.Once

// RegisterMessages registers HotStuff message types; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeProposal, "hotstuff.proposal", decodeProposal)
		wire.Register(TypeVote, "hotstuff.vote", decodeVote)
		wire.Register(TypeNewView, "hotstuff.newview", decodeNewView)
		wire.Register(TypeEvidence, "hotstuff.evidence", decodeEvidence)
	})
}
