// Package memoguard is the fixture for the memoguard analyzer: Flagged
// memoizes its hash and its check behind flags that a value copy keeps
// (flagged); Guarded memoizes the same behind a crypto.Memo (clean);
// methods outside the identity and check names may write freely.
package memoguard

import "predis/internal/crypto"

// Flagged is the shape the analyzer exists to catch.
type Flagged struct {
	N        uint64
	hash     crypto.Hash
	hashSet  bool
	verified *Flagged
	checks   int
	inner    struct {
		d   crypto.Hash
		set bool
	}
}

func (f *Flagged) Hash() crypto.Hash {
	if !f.hashSet {
		f.hash = crypto.HashBytes([]byte{byte(f.N)}) // want "Hash writes a receiver field without a crypto.Memo on the receiver"
		f.hashSet = true
	}
	return f.hash
}

func (f *Flagged) VerifyN(want uint64) bool {
	if f.verified == f {
		return true
	}
	f.checks++ // want "VerifyN writes a receiver field without a crypto.Memo on the receiver"
	if f.N != want {
		return false
	}
	f.verified = f
	return true
}

// Digest memoizes on a nested field: still a receiver field.
func (f *Flagged) Digest() crypto.Hash {
	if !f.inner.set {
		f.inner.d, f.inner.set = f.Hash(), true // want "Digest writes a receiver field without a crypto.Memo on the receiver"
	}
	return f.inner.d
}

// Guarded is the sanctioned shape: the memo is guarded by the holder's
// address, and a derived check is read only while the memo is owned.
type Guarded struct {
	N      uint64
	ok     bool
	hash   crypto.Hash
	memo   crypto.Memo
	counts int
}

func (g *Guarded) Hash() crypto.Hash {
	if g.memo.Own() {
		return g.hash
	}
	g.hash = crypto.HashBytes([]byte{byte(g.N)})
	g.memo.Claim()
	g.ok = false
	return g.hash
}

func (g *Guarded) VerifyN(want uint64) bool {
	if g.memo.Own() && g.ok {
		return true
	}
	if g.N != want {
		return false
	}
	g.Hash()
	g.ok = true
	return true
}

// Count is not an identity or check method: it may write.
func (g *Guarded) Count() { g.counts++ }

// VerifyPure writes nothing on the receiver.
func (g *Guarded) VerifyPure(want uint64) bool {
	n := g.N
	n++
	return n-1 == want
}
