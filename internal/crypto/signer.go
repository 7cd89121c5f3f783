package crypto

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
)

// Signer abstracts over signature schemes so protocol engines can run with
// real ed25519 signatures or, for large parameter sweeps, a cheap
// hash-based stand-in that preserves signature *size* (and therefore
// bandwidth accounting) while skipping public-key CPU cost.
//
// Both implementations produce SignatureSize-byte signatures, so message
// WireSize is identical under either.
type Signer interface {
	// Index returns the signer's node index in the ring.
	Index() int
	// Sign produces a signature over the digest by this node.
	Sign(h Hash) []byte
	// Verify checks a signature over the digest by node idx.
	Verify(idx int, h Hash, sig []byte) bool
}

// Ed25519Signer signs with a real private key and verifies against a
// keyring. cmd/predis-node signs with it over real sockets (the smoke
// row rt runs it end to end), and the forking-attack scenario of
// examples/faults forges with it; simulated deployments use SimSigner.
type Ed25519Signer struct {
	idx  int
	pair *KeyPair
	ring *Keyring
}

var _ Signer = (*Ed25519Signer)(nil)

// NewEd25519Signer builds a signer for node idx.
func NewEd25519Signer(idx int, pair *KeyPair, ring *Keyring) *Ed25519Signer {
	return &Ed25519Signer{idx: idx, pair: pair, ring: ring}
}

// Index implements Signer.
func (s *Ed25519Signer) Index() int { return s.idx }

// Sign implements Signer.
func (s *Ed25519Signer) Sign(h Hash) []byte { return s.pair.SignHash(h) }

// Verify implements Signer.
func (s *Ed25519Signer) Verify(idx int, h Hash, sig []byte) bool {
	return s.ring.VerifyAt(idx, h, sig)
}

// SimSigner is a simulation-only signature scheme: sig = H(secret(idx) ||
// digest) twice to fill 64 bytes. Every SimSigner sharing the same suite
// seed can verify every node's signatures, which models a PKI without
// public-key cost. It is NOT cryptographically secure against the simulated
// adversary and must never leave test/benchmark code; production paths use
// Ed25519Signer.
type SimSigner struct {
	idx  int
	seed uint64
}

var _ Signer = (*SimSigner)(nil)

// NewSimSigner builds a simulation signer for node idx under a suite seed.
func NewSimSigner(idx int, seed uint64) *SimSigner {
	return &SimSigner{idx: idx, seed: seed}
}

// Index implements Signer.
func (s *SimSigner) Index() int { return s.idx }

func (s *SimSigner) tag(idx int, h Hash) [SignatureSize]byte {
	var buf [8 + 8 + HashSize]byte
	binary.BigEndian.PutUint64(buf[0:], s.seed)
	binary.BigEndian.PutUint64(buf[8:], uint64(idx))
	copy(buf[16:], h[:])
	first := sha256.Sum256(buf[:])
	second := sha256.Sum256(first[:])
	var sig [SignatureSize]byte
	copy(sig[:32], first[:])
	copy(sig[32:], second[:])
	return sig
}

// Sign implements Signer.
func (s *SimSigner) Sign(h Hash) []byte {
	sig := s.tag(s.idx, h)
	return sig[:]
}

// Verify implements Signer.
func (s *SimSigner) Verify(idx int, h Hash, sig []byte) bool {
	if len(sig) != SignatureSize {
		return false
	}
	want := s.tag(idx, h)
	return subtle.ConstantTimeCompare(want[:], sig) == 1
}

// SignerSuite creates one signer per node. Kind selects the scheme:
// ed25519 signers share a deterministic keyring; sim signers share the
// seed.
type SignerSuite struct {
	signers []Signer
}

// NewEd25519Suite builds n ed25519 signers over a deterministic key set.
func NewEd25519Suite(n int, seed uint64) *SignerSuite {
	pairs, ring := DeterministicKeySet(n, seed)
	out := make([]Signer, n)
	for i := range out {
		out[i] = NewEd25519Signer(i, pairs[i], ring)
	}
	return &SignerSuite{signers: out}
}

// NewSimSuite builds n simulation signers sharing a suite seed.
func NewSimSuite(n int, seed uint64) *SignerSuite {
	out := make([]Signer, n)
	for i := range out {
		out[i] = NewSimSigner(i, seed)
	}
	return &SignerSuite{signers: out}
}

// Signer returns the signer for node i.
func (s *SignerSuite) Signer(i int) Signer { return s.signers[i] }

// Len returns the number of signers.
func (s *SignerSuite) Len() int { return len(s.signers) }
