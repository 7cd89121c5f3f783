package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// blockQuorum is block mode's cut quorum n_c−f for the n_c = 4, f = 1 rigs.
const blockQuorum = 3

// populate fills every node's mempool: each producer packs `per` bundles of
// one transaction, delivered to everyone. Tip lists therefore advertise
// full receipt.
func populate(r *testRig, per int) {
	for round := 0; round < per; round++ {
		for p := range r.pools {
			b := r.pack(p, 1)
			r.giveAll(b)
		}
	}
	// One extra round of empty bundles so tip lists reflect the last
	// deliveries (the 2·ls effect from §III-F).
	for p := range r.pools {
		b := r.pack(p, 0)
		r.giveAll(b)
	}
}

func TestCutChainsQuorumRule(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	cuts := r.pools[0].CutChains(0, prev, blockQuorum)
	// All transaction bundles (heights ≤ 3) are quorum-proven by the tip
	// exchange round, so every chain cuts at least there. The very last
	// empty bundles may not be provable yet — that is the 2·ls effect of
	// §III-F, not a bug.
	for i, c := range cuts {
		if c.Height < 3 {
			t.Fatalf("chain %d cut at %d, want ≥ 3", i, c.Height)
		}
		if c.Head.IsZero() {
			t.Fatalf("chain %d head hash empty", i)
		}
	}
}

func TestCutChainsRespectsLaggards(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producer 0 packs 3 bundles; only nodes 0 and 1 receive them, and no
	// follow-up bundles advertise receipt. The leader must not cut chain 0
	// above what n_c−f = 3 nodes can prove.
	for i := 0; i < 3; i++ {
		b := r.pack(0, 1)
		r.give(0, b)
		r.give(1, b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[0].Height != 0 {
		t.Fatalf("chain 0 cut at %d, want 0 (only 2 receipts claimable)", cuts[0].Height)
	}
}

func TestCutChainsCountsTipListClaims(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producer 0 packs one bundle; nodes 1 and 2 receive it and then pack
	// their own bundles whose tip lists claim receipt. The leader (0)
	// receives those bundles, so the matrix shows 3 holders: cut at 1.
	b0 := r.pack(0, 1)
	r.give(0, b0)
	r.give(1, b0)
	r.give(2, b0)
	for _, p := range []int{1, 2} {
		b := r.pack(p, 1)
		r.giveAll(b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[0].Height != 1 {
		t.Fatalf("chain 0 cut at %d, want 1", cuts[0].Height)
	}
}

func TestCutChainsClampsToSelfHoldings(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producers 1,2,3 each pack 2 bundles; node 0 only has the first of
	// chain 1. Even if the rest of the network has both, node 0 can only
	// cut what it holds.
	var firstOf1 *Bundle
	for _, p := range []int{1, 2, 3} {
		b1 := r.pack(p, 1)
		b2 := r.pack(p, 1)
		for n := 0; n < 4; n++ {
			if n == 0 && p == 1 {
				continue // node 0 deprived of chain 1
			}
			r.give(n, b1)
			r.give(n, b2)
		}
		if p == 1 {
			firstOf1 = b1
		}
	}
	// Fresh bundles from 2 and 3 advertise full receipt of chain 1.
	for _, p := range []int{2, 3} {
		b := r.pack(p, 0)
		r.giveAll(b)
	}
	cuts := r.pools[0].CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[1].Height != 0 {
		t.Fatalf("chain 1 cut %d, want 0 (node 0 holds nothing)", cuts[1].Height)
	}
	// After node 0 receives the first bundle it can cut height 1.
	r.give(0, firstOf1)
	cuts = r.pools[0].CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[1].Height != 1 {
		t.Fatalf("chain 1 cut %d, want 1", cuts[1].Height)
	}
}

func TestCutChainsSkipsBanned(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	r.pools[0].Ban(2, nil)
	cuts := r.pools[0].CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[2].Height != 0 {
		t.Fatalf("banned chain cut at %d, want 0", cuts[2].Height)
	}
	if !cuts[2].Head.IsZero() {
		t.Fatal("banned chain head must be zero")
	}
}

// TestCutChainsReadsEachRow: the rule counts self's local tips as its
// row, a producer's latest header as its row with its own entry raised to
// that header's height, and a silent producer as a row of zeros.
func TestCutChainsReadsEachRow(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	// Producer 1 packs two bundles whose tip lists lag on its own entry;
	// nodes 0 and 1 receive both. Node 2 tells node 0 it holds chain 1 up
	// to 2. Node 3 is silent.
	for k := 0; k < 2; k++ {
		b := PackBundle(r.suite.Signer(1), 1, r.tails[1], r.txs(1), make(TipList, 4))
		r.tails[1] = &b.Header
		r.give(0, b)
		r.give(1, b)
	}
	r.give(0, PackBundle(r.suite.Signer(2), 2, nil, nil, TipList{0, 2, 1, 0}))
	mp, prev := r.pools[0], ZeroCuts(4)
	// Chain 1's column at node 0: self 2, producer 2, node 2 2, node 3 0.
	// A zero self row, or the producer's unraised 0, leaves only two.
	if got := mp.CutChains(0, prev, 3)[1].Height; got != 2 {
		t.Fatalf("self row and producer row: chain 1 cut at quorum 3 = %d, want 2", got)
	}
	if got := mp.CutChains(0, prev, 4)[1].Height; got != 0 {
		t.Fatalf("silent producer row: chain 1 cut at quorum 4 = %d, want 0", got)
	}
	// Chain 2's column: self 1, producer 1 (its header's own entry), and
	// zeros from node 1's lagging lists and silent node 3.
	if got := mp.CutChains(0, prev, 2)[2].Height; got != 1 {
		t.Fatalf("chain 2 cut at quorum 2 = %d, want 1", got)
	}
	if got := mp.CutChains(0, prev, 3)[2].Height; got != 0 {
		t.Fatalf("chain 2 cut at quorum 3 = %d, want 0", got)
	}
}

// matrixCuts is the block-mode rule as it stood on a materialised tip
// matrix: the (n_c−f)-th largest receipt height per chain, clamped to the
// leader's own tip, never below prev.
func matrixCuts(m *Mempool, self wire.NodeID, prev []uint64) []Cut {
	nc, f := m.params.NC, m.params.F
	matrix := make([]TipList, nc)
	for j := range matrix {
		if wire.NodeID(j) == self {
			matrix[j] = m.Tips()
		} else if th := m.chains[j].tipHeader(); th != nil {
			matrix[j] = th.Tips.Clone()
			if matrix[j][j] < th.Height {
				matrix[j][j] = th.Height
			}
		} else {
			matrix[j] = make(TipList, nc)
		}
	}
	selfTips := m.Tips()
	cuts := make([]Cut, nc)
	for i := range cuts {
		cut := prev[i]
		if !m.banned[i] {
			heights := make([]uint64, nc)
			for j := range heights {
				heights[j] = matrix[j][i]
			}
			sort.Slice(heights, func(a, b int) bool { return heights[a] > heights[b] })
			if candidate := min(heights[nc-f-1], selfTips[i]); candidate > cut {
				cut = candidate
			}
		}
		cuts[i] = Cut{Height: cut}
		if cut > prev[i] {
			cuts[i].Head = m.chains[i].at(cut).Header.Hash()
		}
	}
	return cuts
}

// eagerCuts is the stream-mode rule as it stood: every non-banned chain
// cut at the leader's own tip, never below prev.
func eagerCuts(m *Mempool, prev []uint64) []Cut {
	cuts := make([]Cut, m.params.NC)
	for i := range cuts {
		cut := prev[i]
		if tip := m.chains[i].tip(); !m.banned[i] && tip > cut {
			cut = tip
		}
		cuts[i] = Cut{Height: cut}
		if cut > prev[i] {
			cuts[i].Head = m.chains[i].at(cut).Header.Hash()
		}
	}
	return cuts
}

// TestCutChainsIsBothRules: on random mempool states — random deliveries
// with gaps, tip lists that sometimes lag on the producer's own entry,
// banned chains, and baselines at or above some tips — the one rule cuts
// exactly where the matrix rule does at quorum n_c−f and where the eager
// rule does at quorum 1.
func TestCutChainsIsBothRules(t *testing.T) {
	for _, nc := range []int{4, 16} {
		f := (nc - 1) / 3
		suite := crypto.NewSimSuite(nc, 91)
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pools := make([]*Mempool, nc)
			for i := range pools {
				mp, err := NewMempool(Params{NC: nc, F: f, BundleSize: 4, Signer: suite.Signer(i)})
				if err != nil {
					t.Fatal(err)
				}
				pools[i] = mp
			}
			tails := make([]*BundleHeader, nc)
			for k := 0; k < 6*nc; k++ {
				p := rng.Intn(nc)
				tips := pools[p].Tips()
				if rng.Intn(4) > 0 {
					tips[p]++
				}
				b := PackBundle(suite.Signer(p), wire.NodeID(p), tails[p], nil, tips)
				tails[p] = &b.Header
				for n := range pools {
					if n == p || rng.Intn(3) > 0 {
						pools[n].AddBundle(b)
					}
				}
			}
			for n, mp := range pools {
				if rng.Intn(3) == 0 {
					mp.Ban(wire.NodeID(rng.Intn(nc)), nil)
				}
				prev := make([]uint64, nc)
				for i := range prev {
					if rng.Intn(2) == 0 {
						prev[i] = uint64(rng.Intn(int(mp.Tip(wire.NodeID(i))) + 3))
					}
				}
				self := wire.NodeID(n)
				for _, c := range []struct {
					quorum int
					want   []Cut
				}{{nc - f, matrixCuts(mp, self, prev)}, {1, eagerCuts(mp, prev)}} {
					got := mp.CutChains(self, prev, c.quorum)
					for i := range got {
						if got[i] != c.want[i] {
							t.Fatalf("nc %d seed %d node %d quorum %d: chain %d cut %d %s, want %d %s",
								nc, seed, n, c.quorum, i, got[i].Height, got[i].Head.Short(),
								c.want[i].Height, c.want[i].Head.Short())
						}
					}
				}
			}
		}
	}
}

// TestDrainBlock: with nothing new to cut a builder emits a block only when
// asked to drain, and that block repeats prev with an empty root.
func TestDrainBlock(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 1)
	prev := r.pools[0].Tips()
	if _, ok := r.pools[0].BuildPredisBlock(2, crypto.ZeroHash, prev, 0, 1, false); ok {
		t.Fatal("a block with nothing new to cut")
	}
	blk, ok := r.pools[0].BuildPredisBlock(2, crypto.ZeroHash, prev, 0, 1, true)
	if !ok || !blk.TxRoot.IsZero() || newlyCut(prev, blk.Cuts) != 0 {
		t.Fatalf("drain block %+v, ok %v; want prev's cuts and a zero root", blk, ok)
	}
	if _, err := r.pools[1].ValidatePredisBlock(blk, crypto.ZeroHash, prev); err != nil {
		t.Fatalf("replica rejects the drain block: %v", err)
	}
}

func TestBuildValidateCommitRoundtrip(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)
	if !ok {
		t.Fatal("BuildPredisBlock returned nothing")
	}
	if blk.Height != 1 || blk.Leader != 0 {
		t.Fatalf("block fields wrong: %+v", blk)
	}
	// Every other node validates and reconstructs the same content.
	var wantTxs int
	for n := 1; n < 4; n++ {
		missing, err := r.pools[n].ValidatePredisBlock(blk, crypto.ZeroHash, prev)
		if err != nil || missing != nil {
			t.Fatalf("node %d validate: %v (missing %v)", n, err, missing)
		}
		bundles, err := r.pools[n].Commit(blk)
		if err != nil {
			t.Fatalf("node %d commit: %v", n, err)
		}
		txs := BlockTxs(nil, bundles)
		if wantTxs == 0 {
			wantTxs = len(txs)
		} else if len(txs) != wantTxs {
			t.Fatalf("node %d reconstructed %d txs, want %d (Theorem 3.3)", n, len(txs), wantTxs)
		}
		if r.pools[n].ConfirmedHeight(0) != blk.Cuts[0].Height {
			t.Fatalf("node %d confirmed not advanced", n)
		}
		if r.pools[n].HasUnconfirmedPayload() {
			t.Fatalf("node %d still reports unconfirmed payload after full commit", n)
		}
	}
	if wantTxs != 12 { // 4 chains × 3 bundles × 1 tx
		t.Fatalf("block confirmed %d txs, want 12", wantTxs)
	}
}

func TestValidateRejectsBadBlocks(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	prev := ZeroCuts(4)
	blk, ok := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)
	if !ok {
		t.Fatal("no block")
	}

	t.Run("wrong parent", func(t *testing.T) {
		_, err := r.pools[1].ValidatePredisBlock(blk, crypto.HashBytes([]byte("x")), prev)
		if !errors.Is(err, ErrBlockParent) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad signature", func(t *testing.T) {
		bad := *blk
		bad.Sig = append([]byte(nil), blk.Sig...)
		bad.Sig[0] ^= 1
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockSignature) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("tampered cut resigned by non-leader index", func(t *testing.T) {
		bad := *blk
		bad.Cuts = append([]Cut(nil), blk.Cuts...)
		bad.Cuts[0].Height++ // now head/hash invalid
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); err == nil {
			t.Fatal("tampered block accepted")
		}
	})
	t.Run("wrong cut count", func(t *testing.T) {
		bad := *blk
		bad.Cuts = blk.Cuts[:2]
		if _, err := r.pools[1].ValidatePredisBlock(&bad, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockShape) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("regressed cut", func(t *testing.T) {
		higher := make([]uint64, 4)
		for i := range higher {
			higher[i] = blk.Cuts[i].Height + 5
		}
		if _, err := r.pools[1].ValidatePredisBlock(blk, crypto.ZeroHash, higher); !errors.Is(err, ErrBlockRegressed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("banned producer", func(t *testing.T) {
		r2 := newRig(t, 4, 1, 50)
		populate(r2, 2)
		blk2, _ := r2.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)
		r2.pools[1].Ban(2, nil)
		if _, err := r2.pools[1].ValidatePredisBlock(blk2, crypto.ZeroHash, prev); !errors.Is(err, ErrBlockBanned) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestValidateReportsMissingBundles(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	populate(r, 3)
	prev := ZeroCuts(4)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)

	// A fresh node with an empty mempool must report every chain missing.
	fresh := newRig(t, 4, 1, 50)
	missing, err := fresh.pools[3].ValidatePredisBlock(blk, crypto.ZeroHash, prev)
	if !errors.Is(err, ErrBlockMissing) {
		t.Fatalf("err = %v, want ErrBlockMissing", err)
	}
	if len(missing) != 4 {
		t.Fatalf("missing %d chains, want 4", len(missing))
	}
	for _, m := range missing {
		if m.From != 1 || m.To != blk.Cuts[m.Producer].Height {
			t.Fatalf("missing range %+v inconsistent with cut", m)
		}
	}
}

func TestValidateHeadMismatchAfterEquivocation(t *testing.T) {
	// Leader cuts its (honest) chain; a validator that somehow stored a
	// different bundle at the cut height must reject by head hash.
	r := newRig(t, 4, 1, 50)
	populate(r, 1)
	prev := ZeroCuts(4)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, prev, 0, blockQuorum, false)

	// Build a divergent rig with the same signers but different transaction
	// content, so bundles (and head hashes) differ while signatures verify.
	r2 := newRig(t, 4, 1, 50)
	r2.seq = 10000
	populate(r2, 1)
	if _, err := r2.pools[1].ValidatePredisBlock(blk, crypto.ZeroHash, prev); err == nil {
		t.Fatal("block from a different universe accepted")
	}
}

func TestPredisBlockCodecAndSize(t *testing.T) {
	RegisterMessages()
	r := newRig(t, 4, 1, 50)
	populate(r, 2)
	blk, _ := r.pools[0].BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 0, blockQuorum, false)
	got, err := wire.Roundtrip(blk)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*PredisBlock)
	if gb.Hash() != blk.Hash() {
		t.Fatal("roundtrip changed block hash")
	}
	if len(wire.Marshal(blk)) != blk.WireSize() {
		t.Fatalf("WireSize %d, marshaled %d", blk.WireSize(), len(wire.Marshal(blk)))
	}
}

// TestPredisBlockConstantSize reproduces the §III-F block-size claim: the
// proposal size depends only on n_c, not on the transaction volume it maps
// to. At n_c = 80 a Predis block stays in the low kilobytes even when it
// confirms 50,000 transactions.
func TestPredisBlockConstantSize(t *testing.T) {
	nc := 80
	cuts := make([]Cut, nc)
	for i := range cuts {
		cuts[i] = Cut{Height: 1000, Head: crypto.HashBytes([]byte{byte(i)})}
	}
	blk := &PredisBlock{Height: 5, Leader: 0, Cuts: cuts, Sig: make([]byte, crypto.SignatureSize)}
	size := blk.WireSize()
	if size > 4096 {
		t.Fatalf("Predis block at n_c=80 is %d bytes; paper claims ~2.5 KB, ours must stay Θ(n_c)", size)
	}
	// Doubling the mapped transaction volume (higher cuts) must not change
	// the size at all.
	for i := range cuts {
		cuts[i].Height *= 2
	}
	blk2 := &PredisBlock{Height: 5, Leader: 0, Cuts: cuts, Sig: make([]byte, crypto.SignatureSize)}
	if blk2.WireSize() != size {
		t.Fatal("block size varied with transaction volume")
	}
}
