package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHashBytesMatchesConcat(t *testing.T) {
	a, b := []byte("hello "), []byte("world")
	whole := HashBytes(append(append([]byte{}, a...), b...))
	parts := HashConcat(a, b)
	if whole != parts {
		t.Fatalf("HashConcat mismatch: %s vs %s", whole, parts)
	}
}

func TestHashZero(t *testing.T) {
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash must report IsZero")
	}
	if HashBytes(nil).IsZero() {
		t.Fatal("sha256 of empty input must not be the zero digest")
	}
}

func TestHashStrings(t *testing.T) {
	h := HashBytes([]byte("x"))
	if len(h.String()) != 64 {
		t.Fatalf("String length = %d", len(h.String()))
	}
	if len(h.Short()) != 8 {
		t.Fatalf("Short length = %d", len(h.Short()))
	}
	if h.String()[:8] != h.Short() {
		t.Fatal("Short must prefix String")
	}
}

func TestSignVerify(t *testing.T) {
	kp := DeterministicKeyPair(3)
	msg := []byte("a bundle header")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("tampered"), sig) {
		t.Fatal("signature over different message accepted")
	}
	sig[0] ^= 1
	if Verify(kp.Public, msg, sig) {
		t.Fatal("corrupted signature accepted")
	}
}

func TestVerifyMalformedInputs(t *testing.T) {
	kp := DeterministicKeyPair(1)
	h := HashBytes([]byte("m"))
	sig := kp.SignHash(h)
	if Verify(kp.Public[:10], h[:], sig) {
		t.Fatal("short public key accepted")
	}
	if Verify(kp.Public, h[:], sig[:10]) {
		t.Fatal("short signature accepted")
	}
	if !VerifyHash(kp.Public, h, sig) {
		t.Fatal("valid hash signature rejected")
	}
}

func TestDeterministicKeyPairStable(t *testing.T) {
	a, b := DeterministicKeyPair(7), DeterministicKeyPair(7)
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same seed must give same key")
	}
	c := DeterministicKeyPair(8)
	if bytes.Equal(a.Public, c.Public) {
		t.Fatal("different seeds must give different keys")
	}
}

func TestDeterministicCrossSigning(t *testing.T) {
	a, b := DeterministicKeyPair(1), DeterministicKeyPair(2)
	h := HashBytes([]byte("msg"))
	if VerifyHash(b.Public, h, a.SignHash(h)) {
		t.Fatal("signature by A verified under B's key")
	}
}

func TestKeyring(t *testing.T) {
	pairs, ring := DeterministicKeySet(4, 100)
	if ring.Len() != 4 {
		t.Fatalf("Len = %d", ring.Len())
	}
	h := HashBytes([]byte("block"))
	for i, p := range pairs {
		sig := p.SignHash(h)
		if !ring.VerifyAt(i, h, sig) {
			t.Fatalf("node %d signature rejected", i)
		}
		if ring.VerifyAt((i+1)%4, h, sig) {
			t.Fatalf("node %d signature accepted for wrong index", i)
		}
	}
	if ring.VerifyAt(-1, h, nil) || ring.VerifyAt(4, h, nil) {
		t.Fatal("out-of-range index must not verify")
	}
	if ring.Key(4) != nil || ring.Key(-1) != nil {
		t.Fatal("out-of-range key must be nil")
	}
}

func TestSignHashQuick(t *testing.T) {
	kp := DeterministicKeyPair(42)
	f := func(msg []byte) bool {
		h := HashBytes(msg)
		return VerifyHash(kp.Public, h, kp.SignHash(h))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 20} }

// BenchmarkHashConcatShort measures the Merkle node combiner's digest
// path: two 32-byte children plus a domain prefix, the stack-buffer fast
// path in HashConcat.
func BenchmarkHashConcatShort(b *testing.B) {
	l := HashBytes([]byte("left"))
	r := HashBytes([]byte("right"))
	prefix := []byte{1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if HashConcat(prefix, l[:], r[:]).IsZero() {
			b.Fatal("zero digest")
		}
	}
}
