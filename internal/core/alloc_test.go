package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
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
	want, wantHdr := blk.Hash(), hdr.Hash()
	if a := testing.AllocsPerRun(100, func() {
		if blk.Hash() != want {
			t.Fatal("PredisBlock.Hash is not stable")
		}
	}); a != 0 {
		t.Errorf("PredisBlock.Hash allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		hdr.memo = crypto.Memo{} // hash afresh every run
		if hdr.Hash() != wantHdr {
			t.Fatal("BundleHeader.Hash is not stable")
		}
	}); a != 0 {
		t.Errorf("BundleHeader.Hash allocates %.1f, want 0", a)
	}
}

// TestBlockPathAllocs pins the per-block steps every proposal, validation
// and commit repeats, on a 20-bundle cut: all know their length up front,
// so the cuts and a fresh bundle list are one allocation each, a bundle
// list into warm scratch (Commit's) none — the cutting rule reads the tip
// matrix in place at either quorum — and the block root,
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
		if len(mp.blockBundles(nil, blk, prev)) != 20 {
			t.Fatal("blockBundles lost bundles")
		}
	}); a != 1 {
		t.Errorf("blockBundles(20 bundles) allocates %.1f, want 1", a)
	}
	scratch := mp.blockBundles(nil, blk, prev)
	if a := testing.AllocsPerRun(100, func() {
		if len(mp.blockBundles(scratch, blk, prev)) != 20 {
			t.Fatal("blockBundles lost bundles")
		}
	}); a != 0 {
		t.Errorf("blockBundles(20 bundles) into a warm scratch allocates %.1f, want 0", a)
	}
	// Above the scratch the root costs one allocation and is the same tree.
	for round := 0; round < 15; round++ {
		for p := range r.pools {
			r.giveAll(r.pack(p, 1))
		}
	}
	big, _ := mp.BuildPredisBlock(1, crypto.ZeroHash, prev, 0, 1, false)
	var leaves []crypto.Hash
	for _, b := range mp.blockBundles(nil, big, prev) {
		hh := b.Header.Hash()
		leaves = append(leaves, merkle.HashLeaf(hh[:]))
	}
	if len(leaves) != 80 || big.TxRoot != merkle.RootOfHashes(leaves) {
		t.Fatalf("block root over %d bundles differs between the stack and heap leaf arrays", len(leaves))
	}
}

// TestProduceTimerRearmAllocs: the bundle interval timer re-arms with a
// callback bound once, so a re-arm allocates nothing.
func TestProduceTimerRearmAllocs(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	p := pn.peers[0]
	p.ctx = &idleCtx{p.ctx}
	if a := testing.AllocsPerRun(100, p.armProduceTimer); a != 0 {
		t.Errorf("re-arming the produce timer allocates %.1f, want 0", a)
	}
}

// TestCommitBlockAllocs: once warm, committing a block that confirms a held
// bundle allocates nothing. The mempool hands back the bundles in its
// scratch, the transactions are flattened into the component's, and the
// distribution and the OnCommit hook see the block and the list as they
// are. PredisBlock.Hash encodes through the wire encoder pool, whose
// sync.Pool drops entries at random under the race detector, so the count
// holds only without it.
func TestCommitBlockAllocs(t *testing.T) {
	const n = 128
	suite := crypto.NewSimSuite(4, 23)
	tap, committed := &blockTap{}, 0
	p, err := NewPredis(Options{
		Params: Params{NC: 4, F: 1, BundleSize: 10, BundleInterval: 10 * time.Millisecond, Signer: suite.Signer(0)},
		Dist:   tap,
		OnCommit: func(_ uint64, txs []*types.Transaction) {
			committed += len(txs)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(&fakeCtx{rng: rand.New(rand.NewSource(1))})
	blocks := make([]*PredisBlock, n)
	var tail *BundleHeader
	var parent crypto.Hash
	for h := range blocks {
		txs := make([]*types.Transaction, 10)
		for k := range txs {
			txs[k] = types.NewTransaction(500, uint64(10*h+k), 512, 0)
		}
		b := PackBundle(suite.Signer(0), 0, tail, txs, TipList{uint64(h + 1), 0, 0, 0})
		if _, _, _, err := p.mp.AddBundle(b); err != nil {
			t.Fatal(err)
		}
		tail = &b.Header
		blk := &PredisBlock{Height: uint64(h + 1), Parent: parent, Cuts: make([]Cut, 4)}
		blk.Cuts[0] = Cut{Height: uint64(h + 1), Head: b.Header.Hash()}
		parent = blk.Hash()
		blocks[h] = blk
	}
	for _, blk := range blocks[:n/2] {
		p.commitBlock(blk)
	}
	i := n / 2
	if a := testing.AllocsPerRun(n/2-1, func() { p.commitBlock(blocks[i]); i++ }); a != 0 && !raceEnabled {
		t.Errorf("committing a block allocates %.2f, want 0", a)
	}
	if p.LastHeight() != n || committed != 10*n || tap.blocks != n || tap.last != blocks[n-1] {
		t.Fatalf("head %d, %d txs committed, %d blocks distributed (last %p); want %d, %d, %d (last %p)",
			p.LastHeight(), committed, tap.blocks, tap.last, n, 10*n, n, blocks[n-1])
	}
}

// blockTap is a Distribution that counts the committed blocks it gets and
// keeps the last, allocating nothing.
type blockTap struct {
	blocks int
	last   *PredisBlock
}

func (*blockTap) StripeRoot([]*types.Transaction) crypto.Hash { return crypto.ZeroHash }
func (*blockTap) OnBundleStored(*Bundle)                      {}
func (d *blockTap) OnBlockCommit(blk *PredisBlock)            { d.blocks, d.last = d.blocks+1, blk }

// idleCtx wraps a node's context with timers that never fire, so a test
// counts a re-arm's own allocations, not the runtime's.
type idleCtx struct{ env.Context }

func (*idleCtx) After(time.Duration, func()) env.Timer { return nil }

// TestBundleResponseLyingCount: a BundleResponse body whose count claims
// more bundles than its bytes could hold fails having allocated no more
// than the frame's size. The smallest bundle encodes to minBundle bytes,
// which bounds any honest count.
func TestBundleResponseLyingCount(t *testing.T) {
	e := wire.NewEncoder(minBundle)
	(&Bundle{}).EncodeTo(e)
	if e.Len() != minBundle {
		t.Fatalf("an empty bundle encodes to %d bytes, minBundle is %d", e.Len(), minBundle)
	}
	body := make([]byte, 1<<20)
	for _, n := range []int{len(body) - 4, (len(body)-4)/minBundle + 1} {
		binary.BigEndian.PutUint32(body, uint32(n))
		var err error
		got := allocBytes(func() { _, err = decodeBundleResponse(wire.NewDecoder(body)) })
		if err == nil {
			t.Fatalf("count %d over a %d-byte body decoded", n, len(body))
		}
		if got > uint64(len(body)) {
			t.Errorf("count %d over a %d-byte body allocated %d bytes", n, len(body), got)
		}
	}
}

// allocBytes returns the heap bytes one call of run allocates.
func allocBytes(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
