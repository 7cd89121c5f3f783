package core

import (
	"bytes"
	"errors"
	"testing"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

// countingSigner counts signature checks per digest.
type countingSigner struct {
	crypto.Signer
	verifies map[crypto.Hash]int
}

func (s *countingSigner) Verify(idx int, h crypto.Hash, sig []byte) bool {
	s.verifies[h]++
	return s.Signer.Verify(idx, h, sig)
}

// countVerifies wraps every rig pool's signer in one shared counter.
func countVerifies(r *testRig) map[crypto.Hash]int {
	n := make(map[crypto.Hash]int)
	for _, mp := range r.pools {
		mp.params.Signer = &countingSigner{Signer: mp.params.Signer, verifies: n}
	}
	return n
}

// roundTrip marshals m and decodes the frame, after flip (when non-nil)
// has edited it.
func roundTrip(t *testing.T, m wire.Message, flip func([]byte)) wire.Message {
	t.Helper()
	RegisterMessages()
	frame := wire.Marshal(m)
	if flip != nil {
		flip(frame)
	}
	out, _, err := wire.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// flipIn flips the first byte of sub where it first occurs in a frame.
func flipIn(t *testing.T, sub []byte) func([]byte) {
	return func(frame []byte) {
		i := bytes.Index(frame, sub)
		if i < 0 {
			t.Fatal("bytes to flip not in the frame")
		}
		frame[i] ^= 1
	}
}

// TestPredisBlockCheckedOncePerObject: the block its leader built is
// validated by every other mempool without a signature check or a root
// computation, and each input below gets the full check and is rejected:
// a value copy with a flipped signature byte, a value copy with another
// TxRoot re-signed by the leader (only the root check catches it), the
// verified block with its Sig replaced, and frames decoded by the wire.
func TestPredisBlockCheckedOncePerObject(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	verifies := countVerifies(r)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)
	if !ok {
		t.Fatal("no block")
	}
	roots := func() (n uint64) {
		for _, mp := range r.pools {
			n += mp.BlockRoots()
		}
		return n
	}
	for i := 1; i < 4; i++ {
		if _, err := r.pools[i].ValidatePredisBlock(blk, crypto.ZeroHash, prev); err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
	}
	if v, n := verifies[blk.Hash()], roots(); v != 0 || n != 1 {
		t.Fatalf("built block checked by three validators: %d signature checks, %d roots; want 0 and the leader's 1", v, n)
	}

	leader := r.suite.Signer(0)
	flipped := *blk
	flipped.Sig = bytes.Clone(blk.Sig)
	flipped.Sig[0] ^= 1
	rooted := *blk
	rooted.TxRoot[0] ^= 1
	rooted.Sig = leader.Sign(rooted.Hash())
	cases := []struct {
		name string
		blk  *PredisBlock
		want error
	}{
		{"value copy, one Sig byte flipped", &flipped, ErrBlockSignature},
		{"value copy, TxRoot changed and re-signed", &rooted, ErrBlockRoot},
		{"wire round trip, one Sig byte flipped", roundTrip(t, blk, flipIn(t, blk.Sig)).(*PredisBlock), ErrBlockSignature},
		{"wire round trip, TxRoot changed", roundTrip(t, blk, flipIn(t, blk.TxRoot[:])).(*PredisBlock), ErrBlockSignature},
	}
	for _, c := range cases {
		before := verifies[c.blk.Hash()]
		if _, err := r.pools[2].ValidatePredisBlock(c.blk, crypto.ZeroHash, prev); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if verifies[c.blk.Hash()] != before+1 {
			t.Errorf("%s: the signature was not checked", c.name)
		}
	}

	// The honest frame decodes to a new object: it is checked in full once,
	// then answers from its own memo.
	dec := roundTrip(t, blk, nil).(*PredisBlock)
	v0, n0 := verifies[blk.Hash()], roots()
	for i := 1; i < 4; i++ {
		if _, err := r.pools[i].ValidatePredisBlock(dec, crypto.ZeroHash, prev); err != nil {
			t.Fatalf("decoded block, pool %d: %v", i, err)
		}
	}
	if v, n := verifies[dec.Hash()]-v0, roots()-n0; v != 1 || n != 1 {
		t.Fatalf("decoded block checked by three validators: %d signature checks, %d roots; want 1 and 1", v, n)
	}

	// A replaced signature on the verified block itself is checked again.
	sig := blk.Sig
	blk.Sig = r.suite.Signer(1).Sign(blk.Hash())
	if _, err := r.pools[3].ValidatePredisBlock(blk, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockSignature) {
		t.Fatalf("replaced Sig: err = %v, want %v", err, ErrBlockSignature)
	}
	blk.Sig = sig
	if _, err := r.pools[3].ValidatePredisBlock(blk, crypto.ZeroHash, prev); err != nil {
		t.Fatalf("restored Sig: %v", err)
	}
}

// TestBundleCheckedOncePerObject: a packed bundle enters every peer's
// mempool without a signature check, and each input below gets the full
// check and is rejected: a value copy with a shorter body, a frame decoded
// by the wire with a flipped signature byte, a bundle around a value copy
// of the header with another Height, a bundle whose first transaction is a
// value copy with another Seq, and a verified bundle whose Header.Sig is
// replaced. The honest decoded frame is checked once.
func TestBundleCheckedOncePerObject(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	verifies := countVerifies(r)
	b := r.pack(0, 3)
	r.give(1, b)
	if v := verifies[b.Header.Hash()]; v != 0 {
		t.Fatalf("packed bundle: %d signature checks, want 0", v)
	}

	short := *b
	short.Txs = b.Txs[:2]
	lifted := b.Header
	lifted.Height = 99
	tx := *b.Txs[0]
	tx.Seq += 1000
	reseq := &Bundle{Header: b.Header, Txs: append([]*types.Transaction{&tx}, b.Txs[1:]...)}
	replaced := r.pack(1, 2)
	replaced.Header.Sig = r.suite.Signer(2).Sign(replaced.Header.Hash())
	cases := []struct {
		name string
		b    *Bundle
		want error
	}{
		{"value copy with a shorter body", &short, ErrBadBody},
		{"decoded bundle with a flipped Sig byte", roundTrip(t, &BundleMsg{Bundle: b}, flipIn(t, b.Header.Sig)).(*BundleMsg).Bundle, ErrBadSignature},
		{"header value copy with Height 99", &Bundle{Header: lifted, Txs: b.Txs}, ErrBadSignature},
		{"transaction value copy with another Seq", reseq, ErrBadBody},
		{"packed bundle with its Sig replaced", replaced, ErrBadSignature},
	}
	for _, c := range cases {
		before := verifies[c.b.Header.Hash()]
		if _, _, _, err := r.pools[2].AddBundle(c.b); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if verifies[c.b.Header.Hash()] != before+1 {
			t.Errorf("%s: the signature was not checked", c.name)
		}
	}

	honest := roundTrip(t, &BundleMsg{Bundle: b}, nil).(*BundleMsg).Bundle
	before := verifies[b.Header.Hash()]
	for i := 2; i < 4; i++ {
		if res, _, _, err := r.pools[i].AddBundle(honest); err != nil || res != Added {
			t.Fatalf("decoded bundle, pool %d: res %d, err %v", i, res, err)
		}
	}
	if v := verifies[b.Header.Hash()] - before; v != 1 {
		t.Fatalf("decoded bundle stored by two pools: %d signature checks, want 1", v)
	}
}
