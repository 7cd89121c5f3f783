package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/wire"
)

// ringServer is the block server as it stood before the mempool kept the
// committed chain: a 512-block ring beside the mempool's bundles, filtered
// through servableFrom, findAnchor and cutsHeld.
type ringServer struct {
	mp   *Mempool
	ring [512]*PredisBlock
	head uint64
}

func (r *ringServer) retain(blk *PredisBlock) {
	r.ring[blk.Height%512] = blk
	r.head = blk.Height
}

func (r *ringServer) retained(height uint64) *PredisBlock {
	if blk := r.ring[height%512]; blk != nil && blk.Height == height {
		return blk
	}
	return nil
}

func (r *ringServer) serve(s uint64) *CatchupResponse {
	resp := &CatchupResponse{Head: r.head}
	start := s
	if !r.servableFrom(start) {
		if resp.Anchor = r.findAnchor(start); resp.Anchor == nil {
			return resp
		}
		start = resp.Anchor.Height
	}
	for h := start + 1; h <= r.head && len(resp.Blocks) < maxCatchupBlocks; h++ {
		blk := r.retained(h)
		if blk == nil {
			break
		}
		resp.Blocks = append(resp.Blocks, blk)
	}
	return resp
}

func (r *ringServer) servableFrom(s uint64) bool {
	cuts := ZeroCuts(r.mp.params.NC)
	if s > 0 {
		blk := r.retained(s)
		if blk == nil {
			return s == r.head
		}
		cuts = blk.CutHeights(nil)
	}
	return (s == r.head || r.retained(s+1) != nil) && r.cutsHeld(cuts)
}

func (r *ringServer) findAnchor(s uint64) *PredisBlock {
	for h := s + 1; h <= r.head; h++ {
		if blk := r.retained(h); blk != nil && r.cutsHeld(blk.CutHeights(nil)) {
			if next := r.retained(h + 1); next != nil {
				return next
			}
			return blk
		}
	}
	return nil
}

func (r *ringServer) cutsHeld(cuts []uint64) bool {
	for i, base := range r.mp.Bases() {
		if i < len(cuts) && cuts[i] < base {
			return false
		}
	}
	return true
}

// recCtx is a fakeCtx that also keeps what is sent and logged.
type recCtx struct {
	fakeCtx
	msgs []wire.Message
	logs []string
}

func (c *recCtx) Send(to wire.NodeID, m wire.Message) {
	c.fakeCtx.Send(to, m)
	c.msgs = append(c.msgs, m)
}

func (c *recCtx) Logf(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// chainRig drives one mempool through a random commit history: bundles
// arrive on random chains, and each block cuts every chain somewhere
// between its confirmed height and its tip (sometimes nowhere, a drain
// block). history[h] is the block committed or adopted at height h since
// the last anchor.
type chainRig struct {
	t       *testing.T
	rng     *rand.Rand
	suite   *crypto.SignerSuite
	mp      *Mempool
	tails   []*BundleHeader
	history map[uint64]*PredisBlock
}

const chainNC = 4

func newChainRig(t *testing.T, seed int64, keep int) *chainRig {
	suite := crypto.NewSimSuite(chainNC, 41)
	mp, err := NewMempool(Params{NC: chainNC, F: 1, BundleSize: 1, Signer: suite.Signer(0), KeepConfirmed: keep})
	if err != nil {
		t.Fatal(err)
	}
	return &chainRig{t: t, rng: rand.New(rand.NewSource(seed)), suite: suite, mp: mp,
		tails: make([]*BundleHeader, chainNC), history: make(map[uint64]*PredisBlock)}
}

// grow appends up to three bundles to each chain.
func (r *chainRig) grow() {
	for p := range r.tails {
		for n := r.rng.Intn(4); n > 0; n-- {
			tips := r.mp.Tips()
			tips[p]++
			b := PackBundle(r.suite.Signer(p), wire.NodeID(p), r.tails[p], nil, tips)
			if res, _, _, err := r.mp.AddBundle(b); err != nil || res != Added {
				r.t.Fatalf("AddBundle(%d, %d): res %d, err %v", p, b.Header.Height, res, err)
			}
			r.tails[p] = &b.Header
		}
	}
}

// next builds the block after the head, cutting each chain up to over
// beyond its tip.
func (r *chainRig) next(height uint64, over int) *PredisBlock {
	_, parent := r.mp.Head()
	blk := &PredisBlock{Height: height, Parent: parent, Cuts: make([]Cut, chainNC)}
	drain := r.rng.Intn(10) == 0
	for i, conf := range r.mp.Confirmed() {
		cut := conf
		if tip := r.mp.Tip(wire.NodeID(i)); !drain {
			cut += uint64(r.rng.Int63n(int64(tip-conf) + int64(over) + 1))
		}
		blk.Cuts[i].Height = cut
		if b := r.mp.Bundle(wire.NodeID(i), cut); b != nil {
			blk.Cuts[i].Head = b.Header.Hash()
		}
	}
	return blk
}

func (r *chainRig) commit() *PredisBlock {
	head, _ := r.mp.Head()
	blk := r.next(head+1, 0)
	if _, err := r.mp.Commit(blk); err != nil {
		r.t.Fatalf("commit %d: %v", blk.Height, err)
	}
	r.history[blk.Height] = blk
	return blk
}

// anchor adopts an anchor a few heights above the head whose cuts may run
// past the tips; chains reset there continue above the cut.
func (r *chainRig) anchor() *PredisBlock {
	head, _ := r.mp.Head()
	a := r.next(head+1+uint64(r.rng.Intn(3)), 3)
	for i, c := range a.Cuts {
		if c.Height > r.mp.Tip(wire.NodeID(i)) {
			r.tails[i] = &BundleHeader{Producer: wire.NodeID(i), Height: c.Height, Tips: make(TipList, chainNC)}
		}
	}
	r.mp.FastForward(a)
	r.history = map[uint64]*PredisBlock{a.Height: a}
	return a
}

// check asserts the committed chain's invariants after last was committed
// or adopted: it is the head, its cuts are the confirmed heights, and the
// kept blocks are exactly the blocks since the last anchor whose cuts are
// all at or above the pruning bases.
func (r *chainRig) check(last *PredisBlock) {
	r.t.Helper()
	if height, hash := r.mp.Head(); height != last.Height || hash != last.Hash() {
		r.t.Fatalf("head %d, want %d, the last block committed or adopted", height, last.Height)
	}
	if got, want := r.mp.Confirmed(), last.CutHeights(nil); !slices.Equal(got, want) {
		r.t.Fatalf("confirmed %v, head cuts %v", got, want)
	}
	bases := r.mp.Bases()
	for h := uint64(0); h <= last.Height+1; h++ {
		blk := r.history[h]
		held := blk != nil
		for i := 0; held && i < chainNC; i++ {
			held = blk.Cuts[i].Height >= bases[i]
		}
		if got := r.mp.Block(h); held && got != blk || !held && got != nil {
			r.t.Fatalf("height %d: kept %v, want kept %v (bases %v)", h, got != nil, held, bases)
		}
	}
}

// TestCommittedChainServesAsTheRing: on random commit histories (no
// anchors, KeepConfirmed 1 to 8), ServeBlocks answers every request height
// from 0 to above the head exactly as the 512-block ring server did, and
// the committed chain's invariants hold after every Commit.
func TestCommittedChainServesAsTheRing(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		keep := 1 + int(seed%8)
		r := newChainRig(t, seed, keep)
		ring := &ringServer{mp: r.mp}
		ctx := &recCtx{fakeCtx: fakeCtx{rng: rand.New(rand.NewSource(seed))}}
		c := NewCatchup(r.mp, env.DefaultBackoff(time.Millisecond), CatchupOwner{})
		c.Start(ctx)
		for n := 10 + r.rng.Intn(140); n > 0; n-- {
			r.grow()
			blk := r.commit()
			ring.retain(blk)
			r.check(blk)
			for s := uint64(0); s <= blk.Height+1; s++ {
				ctx.msgs = ctx.msgs[:0]
				c.ServeBlocks(1, &CatchupRequest{Height: s})
				got, want := ctx.msgs[0].(*CatchupResponse), ring.serve(s)
				if got.Head != want.Head || got.Anchor != want.Anchor || !slices.Equal(got.Blocks, want.Blocks) {
					t.Fatalf("seed %d (keep %d), head %d, request %d: answer (head %d, anchor %v, %d blocks), the ring's (head %d, anchor %v, %d blocks)",
						seed, keep, blk.Height, s, got.Head, got.Anchor != nil, len(got.Blocks), want.Head, want.Anchor != nil, len(want.Blocks))
				}
			}
		}
	}
}

// TestCommittedChainAcrossAnchors: with anchors mixed into random commit
// histories, the invariants hold after every Commit and FastForward,
// ServeBlocks serves only kept blocks, and a block that does not extend
// the head is refused and changes nothing.
func TestCommittedChainAcrossAnchors(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		r := newChainRig(t, seed, 1+int(seed%8))
		ctx := &recCtx{fakeCtx: fakeCtx{rng: rand.New(rand.NewSource(seed))}}
		c := NewCatchup(r.mp, env.DefaultBackoff(time.Millisecond), CatchupOwner{})
		c.Start(ctx)
		for n := 10 + r.rng.Intn(140); n > 0; n-- {
			r.grow()
			var last *PredisBlock
			if r.rng.Intn(12) == 0 {
				last = r.anchor()
			} else {
				last = r.commit()
			}
			r.check(last)
			// Every answer is a run of kept blocks right above the asked
			// height or above a kept anchor.
			for s := uint64(0); s <= last.Height+1; s++ {
				ctx.msgs = ctx.msgs[:0]
				c.ServeBlocks(1, &CatchupRequest{Height: s})
				resp := ctx.msgs[0].(*CatchupResponse)
				from := s
				if resp.Anchor != nil {
					from = resp.Anchor.Height
				}
				for i, blk := range resp.Blocks {
					if blk == nil || blk != r.mp.Block(from+1+uint64(i)) || resp.Anchor != nil && r.mp.Block(from) != resp.Anchor {
						t.Fatalf("seed %d, head %d, request %d: block %d of the answer is not the kept block above %d", seed, last.Height, s, i, from)
					}
				}
			}
			gap := r.next(last.Height+2, 0)
			if _, err := r.mp.Commit(gap); err == nil {
				t.Fatalf("seed %d: block %d committed over head %d", seed, gap.Height, last.Height)
			}
			r.check(last)
		}
	}
}
