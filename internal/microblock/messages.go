// Package microblock implements the two shared-mempool baselines the paper
// compares against in Fig. 5:
//
//   - Narwhal-style reliable broadcast (RBC): a producer may only emit its
//     next microblock after collecting n_c−f acknowledgement signatures
//     (a certificate) for the current one, piggybacking the certificate on
//     the next microblock. Production is therefore chained and paced by a
//     round trip, which is where Narwhal's extra latency comes from.
//
//   - Stratus-style provably available broadcast (PAB): a producer
//     collects only f+1 acks (enough to guarantee one honest holder) and
//     does not chain production.
//
// In both schemes the consensus leader proposes a list of certified
// microblock identifiers (default cap 1000, the systems' default), so
// proposal size grows linearly with the transaction volume — the contrast
// to Predis's constant-size blocks.
//
// The data plane is Predis's: a batch is a core.Bundle on its producer's
// chain, identified by its header hash, stored in a core.Mempool and
// fetched through core.FetchPlane.
package microblock

import (
	"encoding/binary"
	"sync"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/wire"
)

// Message type tags (shared by both schemes).
const (
	TypeMicroblock = wire.TypeRangeNarwhal + 1
	TypeAck        = wire.TypeRangeNarwhal + 2
	TypeCertMsg    = wire.TypeRangeNarwhal + 3
	TypeIDList     = wire.TypeRangeNarwhal + 4
)

// ackDigest is what replicas sign to acknowledge a microblock: its
// identifier and its place on its producer's chain.
func ackDigest(mb crypto.Hash, producer wire.NodeID, height uint64) crypto.Hash {
	place := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(mb[:], uint32(producer)), height)
	return crypto.HashConcat([]byte("mb-ack"), place)
}

// Cert is a quorum of acknowledgement signatures over a microblock's
// identifier and its place, Producer and Height, which the certificate's
// holders use as a fetch hint.
type Cert struct {
	Digest   crypto.Hash
	Producer wire.NodeID
	Height   uint64
	Signers  []wire.NodeID
	Sigs     [][]byte

	// memo is owned once every share's signature passed Verify, or once
	// the producer completed the certificate from acks it verified on
	// arrival (see App.onAck): every replica receives the same *Cert. A
	// value copy or a decoded certificate checks afresh.
	memo crypto.Memo
}

// EncodedSize returns the certificate's wire size.
func (c *Cert) EncodedSize() int {
	n := 32 + 4 + 8 + 4
	for _, s := range c.Sigs {
		n += 4 + wire.SizeVarBytes(s)
	}
	return n
}

// EncodeTo appends the certificate.
func (c *Cert) EncodeTo(e *wire.Encoder) {
	e.Bytes32(c.Digest)
	e.Node(c.Producer)
	e.U64(c.Height)
	e.U32(uint32(len(c.Signers)))
	for i, id := range c.Signers {
		e.Node(id)
		e.VarBytes(c.Sigs[i])
	}
}

// DecodeCert reads a certificate.
func DecodeCert(d *wire.Decoder) (*Cert, error) {
	c := &Cert{Digest: d.Bytes32(), Producer: d.Node(), Height: d.U64()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/8 {
		return nil, wire.ErrTruncated
	}
	c.Signers = make([]wire.NodeID, n)
	c.Sigs = make([][]byte, n)
	for i := 0; i < n; i++ {
		c.Signers[i] = d.Node()
		c.Sigs[i] = d.VarBytes()
	}
	return c, d.Err()
}

// Verify checks the certificate holds at least `threshold` distinct valid
// signatures from nodes below n, and names a producer below n. The
// signatures are checked once per certificate (crypto.VerifyShares).
func (c *Cert) Verify(signer crypto.Signer, n, threshold int) bool {
	if int(c.Producer) >= n {
		return false
	}
	var digest crypto.Hash // needed only while the shares are unchecked
	if !c.memo.Own() {
		digest = ackDigest(c.Digest, c.Producer, c.Height)
	}
	return crypto.VerifyShares(signer, &c.memo, n, threshold, c.Signers, c.Sigs, digest)
}

// Microblock carries a producer's batch, a bundle on its chain, and
// PrevCert, the certificate of the producer's previous batch (nil for the
// first, or always nil under PAB).
type Microblock struct {
	Bundle   *core.Bundle
	PrevCert *Cert
}

var _ wire.Message = (*Microblock)(nil)

// Type implements wire.Message.
func (m *Microblock) Type() wire.Type { return TypeMicroblock }

// WireSize implements wire.Message.
func (m *Microblock) WireSize() int {
	n := wire.FrameOverhead + 1 + m.Bundle.EncodedSize()
	if m.PrevCert != nil {
		n += m.PrevCert.EncodedSize()
	}
	return n
}

// EncodeBody implements wire.Message.
func (m *Microblock) EncodeBody(e *wire.Encoder) {
	e.Bool(m.PrevCert != nil)
	if m.PrevCert != nil {
		m.PrevCert.EncodeTo(e)
	}
	m.Bundle.EncodeTo(e)
}

func decodeMicroblock(d *wire.Decoder) (wire.Message, error) {
	m := &Microblock{}
	if d.Bool() {
		cert, err := DecodeCert(d)
		if err != nil {
			return nil, err
		}
		m.PrevCert = cert
	}
	b, err := core.DecodeBundle(d)
	if err != nil {
		return nil, err
	}
	m.Bundle = b
	return m, d.Err()
}

// Ack acknowledges receipt of a microblock.
type Ack struct {
	Digest  crypto.Hash
	Replica wire.NodeID
	Sig     []byte
}

var _ wire.Message = (*Ack)(nil)

// Type implements wire.Message.
func (m *Ack) Type() wire.Type { return TypeAck }

// WireSize implements wire.Message.
func (m *Ack) WireSize() int { return wire.FrameOverhead + 32 + 4 + wire.SizeVarBytes(m.Sig) }

// EncodeBody implements wire.Message.
func (m *Ack) EncodeBody(e *wire.Encoder) {
	e.Bytes32(m.Digest)
	e.Node(m.Replica)
	e.VarBytes(m.Sig)
}

func decodeAck(d *wire.Decoder) (wire.Message, error) {
	m := &Ack{Digest: d.Bytes32(), Replica: d.Node(), Sig: d.VarBytes()}
	return m, d.Err()
}

// CertMsg broadcasts a standalone certificate (used for the tail
// microblock that has no successor to piggyback on).
type CertMsg struct {
	Cert *Cert
}

var _ wire.Message = (*CertMsg)(nil)

// Type implements wire.Message.
func (m *CertMsg) Type() wire.Type { return TypeCertMsg }

// WireSize implements wire.Message.
func (m *CertMsg) WireSize() int { return wire.FrameOverhead + m.Cert.EncodedSize() }

// EncodeBody implements wire.Message.
func (m *CertMsg) EncodeBody(e *wire.Encoder) { m.Cert.EncodeTo(e) }

func decodeCertMsg(d *wire.Decoder) (wire.Message, error) {
	c, err := DecodeCert(d)
	if err != nil {
		return nil, err
	}
	return &CertMsg{Cert: c}, d.Err()
}

// IDList is the consensus payload: certified microblock identifiers. Its
// wire size grows with the number of identifiers — the paper measures
// ~30 KB at the 1000-id default (§V-A).
type IDList struct {
	Height uint64
	IDs    []crypto.Hash

	// digest memoizes Digest(), valid while memo is owned.
	digest crypto.Hash
	memo   crypto.Memo
}

var _ wire.Message = (*IDList)(nil)

// Type implements wire.Message.
func (m *IDList) Type() wire.Type { return TypeIDList }

// WireSize implements wire.Message.
func (m *IDList) WireSize() int { return wire.FrameOverhead + 8 + 4 + 32*len(m.IDs) }

// EncodeBody implements wire.Message.
func (m *IDList) EncodeBody(e *wire.Encoder) {
	e.U64(m.Height)
	e.U32(uint32(len(m.IDs)))
	for _, id := range m.IDs {
		e.Bytes32(id)
	}
}

func decodeIDList(d *wire.Decoder) (wire.Message, error) {
	m := &IDList{Height: d.U64()}
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > d.Remaining()/32 {
		return nil, wire.ErrTruncated
	}
	m.IDs = make([]crypto.Hash, n)
	for i := range m.IDs {
		m.IDs[i] = d.Bytes32()
	}
	return m, d.Err()
}

// Digest returns the payload identity, memoized: the list is immutable once
// proposed, the simulator delivers the same pointer to every replica, and
// each (per consensus phase) would recompute the identical value.
func (m *IDList) Digest() crypto.Hash {
	if m.memo.Own() {
		return m.digest
	}
	e := wire.NewEncoder(8 + 32*len(m.IDs))
	e.U64(m.Height)
	for _, id := range m.IDs {
		e.Bytes32(id)
	}
	m.digest = crypto.HashBytes(e.Bytes())
	m.memo.Claim()
	return m.digest
}

var registerOnce sync.Once

// RegisterMessages registers microblock message types; idempotent. The
// fetch plane's messages are core's.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeMicroblock, "mb.microblock", decodeMicroblock)
		wire.Register(TypeAck, "mb.ack", decodeAck)
		wire.Register(TypeCertMsg, "mb.cert", decodeCertMsg)
		wire.Register(TypeIDList, "mb.idlist", decodeIDList)
	})
}
