package core

import (
	"testing"
	"time"

	"predis/internal/crypto"
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
