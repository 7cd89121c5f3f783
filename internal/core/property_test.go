package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// TestQuickTipListAtLeast checks the tip-list partial order used by the
// bundle-monotonicity rule.
func TestQuickTipListAtLeast(t *testing.T) {
	f := func(base []uint8, bumps []uint8) bool {
		if len(base) == 0 {
			return true
		}
		a := make(TipList, len(base))
		for i, v := range base {
			a[i] = uint64(v)
		}
		// b = a + nonnegative bumps must always be AtLeast a.
		b := a.Clone()
		for i, d := range bumps {
			b[i%len(b)] += uint64(d)
		}
		if !b.AtLeast(a) {
			return false
		}
		// A genuine regression breaks the order.
		r := b.Clone()
		for i := range r {
			if r[i] > 0 {
				r[i]--
				return !r.AtLeast(b)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCuttingRuleSafety is the §III-D availability property driven
// with random dissemination patterns: build random chains at each of n_c
// nodes (each bundle delivered to a random node subset that always
// includes the producer), exchange one round of tip-advertising bundles,
// and check that wherever the leader cuts, at least n_c−f nodes actually
// hold every bundle at or below the cut.
func TestQuickCuttingRuleSafety(t *testing.T) {
	const nc, f = 4, 1
	suite := crypto.NewSimSuite(nc, 77)

	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pools := make([]*Mempool, nc)
		for i := range pools {
			mp, err := NewMempool(Params{NC: nc, F: f, BundleSize: 4, Signer: suite.Signer(i)})
			if err != nil {
				t.Fatal(err)
			}
			pools[i] = mp
		}
		tails := make([]*BundleHeader, nc)

		// holders[producer][height] = set of nodes holding that bundle.
		holders := make([]map[uint64]map[int]bool, nc)
		for i := range holders {
			holders[i] = make(map[uint64]map[int]bool)
		}

		deliver := func(b *Bundle, to int) {
			res, _, _, err := pools[to].AddBundle(b)
			if err == nil && (res == Added || res == Duplicate) {
				if holders[b.Header.Producer][b.Header.Height] == nil {
					holders[b.Header.Producer][b.Header.Height] = make(map[int]bool)
				}
				holders[b.Header.Producer][b.Header.Height][to] = true
			}
		}

		// Random production: 20 bundles from random producers, each
		// delivered IN ORDER to a random subset including the producer.
		for k := 0; k < 20; k++ {
			p := r.Intn(nc)
			tips := pools[p].Tips()
			tips[p]++
			b := PackBundle(suite.Signer(p), wire.NodeID(p), tails[p], nil, tips)
			tails[p] = &b.Header
			deliver(b, p)
			for n := 0; n < nc; n++ {
				if n != p && r.Intn(2) == 0 {
					deliver(b, n)
				}
			}
		}
		// One tip-exchange round: every node emits an empty bundle carrying
		// its tips, delivered to everyone (honest heartbeat round).
		for p := 0; p < nc; p++ {
			tips := pools[p].Tips()
			tips[p]++
			b := PackBundle(suite.Signer(p), wire.NodeID(p), tails[p], nil, tips)
			tails[p] = &b.Header
			for n := 0; n < nc; n++ {
				deliver(b, n)
			}
		}

		// Every node acting as leader must cut only quorum-held prefixes.
		for leader := 0; leader < nc; leader++ {
			cuts := pools[leader].CutChains(wire.NodeID(leader), ZeroCuts(nc), nc-f)
			for chain, cut := range cuts {
				for h := uint64(1); h <= cut.Height; h++ {
					if len(holders[chain][h]) < nc-f {
						t.Fatalf("seed %d: leader %d cut chain %d at %d but height %d held by only %d nodes",
							seed, leader, chain, cut.Height, h, len(holders[chain][h]))
					}
				}
				// The leader must itself hold the head it references.
				if cut.Height > 0 && pools[leader].Bundle(wire.NodeID(chain), cut.Height) == nil {
					t.Fatalf("seed %d: leader %d cut chain %d at %d without holding the head",
						seed, leader, chain, cut.Height)
				}
			}
		}
		return true
	}
	for seed := int64(1); seed <= 40; seed++ {
		if !run(seed) {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

// TestQuickBlockRootDeterministic: two mempools with the same bundles
// produce identical blocks for identical cuts (Theorem 3.3's other half).
func TestQuickBlockRootDeterministic(t *testing.T) {
	r1 := newRig(t, 4, 1, 50)
	populate(r1, 2)
	blk1, ok1 := r1.pools[0].BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 0, blockQuorum, false)
	blk2, ok2 := r1.pools[1].BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 1, blockQuorum, false)
	if !ok1 || !ok2 {
		t.Fatal("no blocks built")
	}
	// Different leaders, same mempool content: the cut heights and roots
	// must agree even though Leader and Sig differ.
	for i := range blk1.Cuts {
		if blk1.Cuts[i].Height != blk2.Cuts[i].Height || blk1.Cuts[i].Head != blk2.Cuts[i].Head {
			t.Fatalf("chain %d cut differs across leaders: %+v vs %+v", i, blk1.Cuts[i], blk2.Cuts[i])
		}
	}
	if blk1.TxRoot != blk2.TxRoot {
		t.Fatal("tx roots differ for identical content")
	}
}

// refChain is the reference model for chain pruning: the implementation
// MarkConfirmed had before it stopped copying — a fresh slice holding
// exactly the retained bundles after every prune.
type refChain struct {
	base, confirmed uint64
	bundles         []*Bundle
}

func (c *refChain) tip() uint64 { return c.base + uint64(len(c.bundles)) }

func (c *refChain) at(h uint64) *Bundle {
	if h <= c.base || h > c.tip() {
		return nil
	}
	return c.bundles[h-c.base-1]
}

func (c *refChain) markConfirmed(height, keep uint64) {
	if height > c.confirmed {
		c.confirmed = height
	}
	if c.confirmed > keep && c.confirmed-keep > c.base {
		drop := min(c.confirmed-keep-c.base, uint64(len(c.bundles)))
		c.bundles = append([]*Bundle(nil), c.bundles[drop:]...)
		c.base += drop
	}
}

func (c *refChain) fastForward(cut uint64) {
	if cut > c.tip() {
		c.bundles, c.base = nil, cut
	}
	if cut > c.confirmed {
		c.confirmed = cut
	}
}

// TestQuickPruningMatchesReference drives one chain through random
// appends, confirmations (with pruning), fast-forwards and lookups, and
// checks after every step that the re-slicing MarkConfirmed is
// indistinguishable from the copying reference — every height, every
// Range, tip, base and confirmed height — and that pruned slots are
// cleared in the shared backing array, so pruned bundles are collectable.
func TestQuickPruningMatchesReference(t *testing.T) {
	const nc, keep = 4, 5
	suite := crypto.NewSimSuite(nc, 31)
	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mp, err := NewMempool(Params{NC: nc, F: 1, BundleSize: 4, Signer: suite.Signer(0), KeepConfirmed: keep})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refChain{}
		c := mp.chains[0]
		var tail *BundleHeader
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 6: // append 1–3 bundles at the tip
				for n := 1 + r.Intn(3); n > 0; n-- {
					tips := mp.Tips()
					tips[0]++
					b := PackBundle(suite.Signer(0), 0, tail, nil, tips)
					tail = &b.Header
					if res, _, _, err := mp.AddBundle(b); err != nil || res != Added {
						t.Logf("seed %d step %d: AddBundle at %d: res=%d err=%v", seed, step, b.Header.Height, res, err)
						return false
					}
					ref.bundles = append(ref.bundles, b)
				}
			case op < 9: // confirm somewhere between the confirmed height and the tip
				if ref.tip() == ref.confirmed {
					continue
				}
				h := ref.confirmed + 1 + uint64(r.Int63n(int64(ref.tip()-ref.confirmed)))
				before := c.bundles
				oldBase := c.base
				mp.MarkConfirmed(0, h)
				ref.markConfirmed(h, keep)
				for i := uint64(0); i < c.base-oldBase; i++ {
					if before[i] != nil {
						t.Logf("seed %d step %d: pruned slot %d still references its bundle", seed, step, i)
						return false
					}
				}
			default: // skip-sync to a cut at or beyond the tip
				cut := ref.tip() + uint64(r.Intn(4))
				if cut > ref.tip() { // the chain restarts above a gap: any parent links
					tail = &BundleHeader{Producer: 0, Height: cut, Tips: make(TipList, nc)}
				}
				head, _ := mp.Head()
				anchor := &PredisBlock{Height: head + 1, Cuts: make([]Cut, nc)}
				for i, h := range mp.Confirmed() {
					anchor.Cuts[i].Height = h
				}
				anchor.Cuts[0].Height = cut
				mp.FastForward(anchor)
				ref.fastForward(cut)
			}
			if c.tip() != ref.tip() || c.base != ref.base || c.confirmed != ref.confirmed ||
				mp.Bases()[0] != ref.base || mp.ConfirmedHeight(0) != ref.confirmed {
				t.Logf("seed %d step %d: (tip, base, confirmed) = (%d, %d, %d), reference (%d, %d, %d)",
					seed, step, c.tip(), c.base, c.confirmed, ref.tip(), ref.base, ref.confirmed)
				return false
			}
			for h := uint64(0); h <= ref.tip()+2; h++ {
				if mp.Bundle(0, h) != ref.at(h) {
					t.Logf("seed %d step %d: Bundle(%d) differs from the reference", seed, step, h)
					return false
				}
			}
			from := uint64(r.Int63n(int64(ref.tip() + 2)))
			to := from + uint64(r.Intn(8))
			got := mp.Range(0, from, to)
			var want []*Bundle
			if servable := to <= ref.tip() && from >= ref.base; servable {
				want = ref.bundles[from-ref.base : to-ref.base]
			} else if got != nil {
				t.Logf("seed %d step %d: Range(%d, %d) served outside (base, tip] = (%d, %d]", seed, step, from, to, ref.base, ref.tip())
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d step %d: Range(%d, %d) = %d bundles, reference %d", seed, step, from, to, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d step %d: Range(%d, %d)[%d] differs from the reference", seed, step, from, to, i)
					return false
				}
			}
		}
		return true
	}
	for seed := int64(1); seed <= 40; seed++ {
		if !run(seed) {
			t.Fatalf("seed %d: pruning diverged from the reference", seed)
		}
	}
}
