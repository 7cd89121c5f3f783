// Package crypto provides the signing and hashing primitives used across
// the framework: SHA-256 digests, ed25519 key pairs and signatures, and
// deterministic key generation for tests and simulations.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// HashSize is the size of a digest in bytes.
const HashSize = sha256.Size

// SignatureSize is the size of an ed25519 signature in bytes.
const SignatureSize = ed25519.SignatureSize

// PublicKeySize is the size of an ed25519 public key in bytes.
const PublicKeySize = ed25519.PublicKeySize

// Hash is a SHA-256 digest.
type Hash [HashSize]byte

// ZeroHash is the all-zero digest, used as the parent of genesis bundles and
// blocks.
var ZeroHash Hash

// HashBytes returns the SHA-256 digest of b.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// HashConcat returns the SHA-256 digest of the concatenation of the parts
// without heap-materializing the concatenation. Short inputs — the
// Merkle leaf/node combiners that dominate the simulator's hashing
// profile are ≤ 65 bytes — take a stack-buffer fast path instead of
// allocating a sha256.New state per call; both paths digest the
// identical byte stream, so the result is unchanged.
func HashConcat(parts ...[]byte) Hash {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n <= 128 {
		var buf [128]byte
		i := 0
		for _, p := range parts {
			i += copy(buf[i:], p)
		}
		return sha256.Sum256(buf[:n])
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// IsZero reports whether the hash is the zero digest.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Short returns the first 4 bytes as hex, for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// String returns the full digest as hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// KeyPair bundles an ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// DeterministicKeyPair derives a key pair from a 64-bit seed. It is intended
// for tests and simulations where reproducibility matters; never use it with
// attacker-predictable seeds in production.
func DeterministicKeyPair(seed uint64) *KeyPair {
	var s [ed25519.SeedSize]byte
	binary.BigEndian.PutUint64(s[:8], seed)
	digest := sha256.Sum256(s[:])
	priv := ed25519.NewKeyFromSeed(digest[:])
	return &KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// SignHash signs a digest.
func (k *KeyPair) SignHash(h Hash) []byte { return k.Sign(h[:]) }

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != PublicKeySize || len(sig) != SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// VerifyHash reports whether sig is a valid signature of digest h under pub.
func VerifyHash(pub ed25519.PublicKey, h Hash, sig []byte) bool {
	return Verify(pub, h[:], sig)
}

// Keyring maps node identifiers (dense indices) to public keys so any node
// can verify any peer's signatures. It is immutable after construction.
type Keyring struct {
	keys []ed25519.PublicKey
}

// NewKeyring builds a keyring from the public halves of the given pairs.
func NewKeyring(pairs []*KeyPair) *Keyring {
	keys := make([]ed25519.PublicKey, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Public
	}
	return &Keyring{keys: keys}
}

// Len returns the number of keys in the ring.
func (r *Keyring) Len() int { return len(r.keys) }

// Key returns the public key for index i, or nil when out of range.
func (r *Keyring) Key(i int) ed25519.PublicKey {
	if i < 0 || i >= len(r.keys) {
		return nil
	}
	return r.keys[i]
}

// VerifyAt reports whether sig is a valid signature of digest h by node i.
func (r *Keyring) VerifyAt(i int, h Hash, sig []byte) bool {
	k := r.Key(i)
	if k == nil {
		return false
	}
	return VerifyHash(k, h, sig)
}

// DeterministicKeySet generates n deterministic key pairs seeded by base+i
// along with the matching keyring.
func DeterministicKeySet(n int, base uint64) ([]*KeyPair, *Keyring) {
	pairs := make([]*KeyPair, n)
	for i := range pairs {
		pairs[i] = DeterministicKeyPair(base + uint64(i))
	}
	return pairs, NewKeyring(pairs)
}
