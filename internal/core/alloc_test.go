package core

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/types"
)

// TestSealPathAllocs pins the hashing steps every seal, proposal and
// relay hop repeats: a Predis block's identity and a bundle's transaction
// root (at stream mode's one transaction and at the default bundle size)
// touch the heap not at all, and a header's identity only through the
// encoder pool. The sync.Pool behind the encoder drops entries at random
// under the race detector, so those two pins hold only without it.
func TestSealPathAllocs(t *testing.T) {
	txs := make([]*types.Transaction, 50)
	for i := range txs {
		txs[i] = types.NewTransaction(7, uint64(i), 512, time.Duration(i))
		txs[i].Hash() // memoized by the time a transaction is sealed
	}
	var root1, root50 crypto.Hash
	if a := testing.AllocsPerRun(100, func() { root1 = TxMerkleRoot(txs[:1]) }); a != 0 {
		t.Errorf("TxMerkleRoot(1 tx) allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { root50 = TxMerkleRoot(txs) }); a != 0 {
		t.Errorf("TxMerkleRoot(50 txs) allocates %.1f, want 0", a)
	}
	big := append(append([]*types.Transaction(nil), txs...), txs...)
	if TxMerkleRoot(big[:50]) != root50 || TxMerkleRoot(big[:1]) != root1 || TxMerkleRoot(big).IsZero() {
		t.Fatal("TxMerkleRoot differs between the stack and heap leaf arrays")
	}
	if raceEnabled {
		return
	}
	blk := &PredisBlock{Height: 9, Leader: 1, Cuts: make([]Cut, 16), TxRoot: root50}
	hdr := &BundleHeader{Producer: 2, Height: 4, TxRoot: root1, Tips: make(TipList, 16)}
	want, wantHdr := blk.Hash(), hdr.HashStateless()
	if a := testing.AllocsPerRun(100, func() {
		if blk.Hash() != want {
			t.Fatal("PredisBlock.Hash is not stable")
		}
	}); a != 0 {
		t.Errorf("PredisBlock.Hash allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if hdr.HashStateless() != wantHdr {
			t.Fatal("BundleHeader.HashStateless is not stable")
		}
	}); a != 0 {
		t.Errorf("BundleHeader.HashStateless allocates %.1f, want 0", a)
	}
}

// TestBlockPathAllocs pins the per-block steps every proposal, validation
// and commit repeats, on a 20-bundle cut: all know their length up front,
// so the cuts and the bundle list are one allocation each — the cutting
// rule reads the tip matrix in place at either quorum — and the block root,
// hashed in a stack scratch up to 64 bundles, none.
func TestBlockPathAllocs(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	for round := 0; round < 5; round++ {
		for p := range r.pools {
			r.giveAll(r.pack(p, 1))
		}
	}
	mp, prev := r.pools[0], ZeroCuts(4)
	blk, ok := mp.BuildPredisBlock(1, crypto.ZeroHash, prev, 0, 1, false)
	if !ok || newlyCut(prev, blk.Cuts) != 20 {
		t.Fatalf("block cuts %d bundles, want 20", newlyCut(prev, blk.Cuts))
	}
	for _, quorum := range []int{3, 1} {
		if a := testing.AllocsPerRun(100, func() {
			if len(mp.CutChains(0, prev, quorum)) != 4 {
				t.Fatal("CutChains lost chains")
			}
		}); a != 1 {
			t.Errorf("CutChains(quorum %d) allocates %.1f, want 1", quorum, a)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if mp.blockRoot(prev, blk.Cuts) != blk.TxRoot {
			t.Fatal("blockRoot is not stable")
		}
	}); a != 0 {
		t.Errorf("blockRoot(20 bundles) allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if len(mp.blockBundles(blk, prev)) != 20 {
			t.Fatal("blockBundles lost bundles")
		}
	}); a != 1 {
		t.Errorf("blockBundles(20 bundles) allocates %.1f, want 1", a)
	}
	// Above the scratch the root costs one allocation and is the same tree.
	for round := 0; round < 15; round++ {
		for p := range r.pools {
			r.giveAll(r.pack(p, 1))
		}
	}
	big, _ := mp.BuildPredisBlock(1, crypto.ZeroHash, prev, 0, 1, false)
	var leaves []crypto.Hash
	for _, b := range mp.blockBundles(big, prev) {
		hh := b.Header.Hash()
		leaves = append(leaves, merkle.HashLeaf(hh[:]))
	}
	if len(leaves) != 80 || big.TxRoot != merkle.RootOfHashes(leaves) {
		t.Fatalf("block root over %d bundles differs between the stack and heap leaf arrays", len(leaves))
	}
}
