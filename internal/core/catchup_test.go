package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// fakeCtx is a context that records what is sent and scheduled, and counts
// the draws of its random source.
type fakeCtx struct {
	sent   []wire.NodeID // recipients, in send order
	timers []*fakeTimer
	draws  int
	rng    *rand.Rand
}

type fakeTimer struct {
	fn      func()
	stopped bool
}

func (t *fakeTimer) Stop() bool {
	was := !t.stopped
	t.stopped = true
	return was
}

func (c *fakeCtx) ID() wire.NodeID                     { return 0 }
func (c *fakeCtx) Now() time.Time                      { return simnet.Epoch }
func (c *fakeCtx) Send(to wire.NodeID, _ wire.Message) { c.sent = append(c.sent, to) }
func (c *fakeCtx) Logf(string, ...any)                 {}

func (c *fakeCtx) After(_ time.Duration, fn func()) env.Timer {
	t := &fakeTimer{fn: fn}
	c.timers = append(c.timers, t)
	return t
}

func (c *fakeCtx) Rand() *rand.Rand {
	c.draws++
	return c.rng
}

// catchupRig is one Catchup on a fake context, n_c = 3f+1, whose owner
// records what it is handed; its head is its mempool's.
type catchupRig struct {
	ctx     *fakeCtx
	c       *Catchup
	mp      *Mempool
	suite   *crypto.SignerSuite
	applied []*PredisBlock
	anchors []*PredisBlock
}

func newCatchupRig(t *testing.T, f int, peers []wire.NodeID, k int) *catchupRig {
	t.Helper()
	suite := crypto.NewSimSuite(3*f+1, 61)
	mp, err := NewMempool(Params{NC: 3*f + 1, F: f, BundleSize: 1, Signer: suite.Signer(0)})
	if err != nil {
		t.Fatal(err)
	}
	r := &catchupRig{ctx: &fakeCtx{rng: rand.New(rand.NewSource(1))}, mp: mp, suite: suite}
	r.c = NewCatchup(mp, env.DefaultBackoff(10*time.Millisecond), CatchupOwner{
		Peers: peers,
		K:     k,
		Apply: func(_ wire.NodeID, blocks []*PredisBlock) { r.applied = append(r.applied, blocks...) },
		Anchor: func(a *PredisBlock) {
			r.anchors = append(r.anchors, a)
			mp.FastForward(a)
		},
	})
	r.c.Start(r.ctx)
	return r
}

// head is the rig's head height.
func (r *catchupRig) head() uint64 {
	h, _ := r.mp.Head()
	return h
}

// setHead moves the rig's head up to height through an anchor.
func (r *catchupRig) setHead(height uint64) {
	if height > 0 {
		r.mp.FastForward(r.block(height, 0))
	}
}

// block is a block at height signed by leader 1; salt tells blocks apart.
func (r *catchupRig) block(height uint64, salt byte) *PredisBlock {
	blk := &PredisBlock{Height: height, Leader: 1, Cuts: make([]Cut, 4), TxRoot: crypto.HashBytes([]byte{salt})}
	blk.Sig = r.suite.Signer(1).Sign(blk.Hash())
	return blk
}

// TestCatchupAdoptsAtK: k−1 vouchers adopt nothing, k adopt the block, and
// one peer vouching twice counts once.
func TestCatchupAdoptsAtK(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		r := newCatchupRig(t, 1, []wire.NodeID{1, 2, 3}, k)
		blk := r.block(1, 0)
		for v := 1; v <= k; v++ {
			for range 2 {
				r.c.Answered(wire.NodeID(v), &CatchupResponse{Head: 1, Blocks: []*PredisBlock{blk}})
			}
			if adopted := r.c.Adopted(1) != nil; adopted != (v == k) || (len(r.applied) > 0) != (v == k) {
				t.Fatalf("k=%d: after %d vouchers adopted=%v applied=%d", k, v, adopted, len(r.applied))
			}
		}
	}
}

// TestCatchupDropsBadSignature: a block whose leader signature fails is
// never tallied, nor is the rest of the answer it came in.
func TestCatchupDropsBadSignature(t *testing.T) {
	r := newCatchupRig(t, 1, []wire.NodeID{1, 2, 3}, 1)
	bad := r.block(1, 0)
	bad.Sig = r.suite.Signer(2).Sign(bad.Hash()) // signed, but not by its leader
	for _, from := range []wire.NodeID{1, 2} {
		r.c.Answered(from, &CatchupResponse{Head: 2, Blocks: []*PredisBlock{bad, r.block(2, 0)}})
	}
	if len(r.applied) != 0 || r.c.Adopted(1) != nil || len(r.c.votes) != 0 {
		t.Fatalf("a block with a bad signature was tallied: applied %d, votes %v", len(r.applied), r.c.votes)
	}
}

// TestCatchupAnchorsNeedK: with k = 2, two matching anchors are adopted
// (once), and two differing ones are not.
func TestCatchupAnchorsNeedK(t *testing.T) {
	r := newCatchupRig(t, 1, []wire.NodeID{1, 2, 3}, 2)
	a := r.block(7, 0)
	r.c.Answered(1, &CatchupResponse{Head: 9, Anchor: a})
	if len(r.anchors) != 0 {
		t.Fatal("one voucher adopted an anchor")
	}
	r.c.Answered(2, &CatchupResponse{Head: 9, Anchor: a})
	r.c.Answered(3, &CatchupResponse{Head: 9, Anchor: a})
	if len(r.anchors) != 1 || r.anchors[0] != a || r.head() != 7 {
		t.Fatalf("two matching anchors: adopted %v, head %d; want the anchor once, head 7", r.anchors, r.head())
	}

	r = newCatchupRig(t, 1, []wire.NodeID{1, 2, 3}, 2)
	r.c.Answered(1, &CatchupResponse{Head: 9, Anchor: r.block(7, 0)})
	r.c.Answered(2, &CatchupResponse{Head: 9, Anchor: r.block(7, 1)})
	if len(r.anchors) != 0 || r.head() != 0 {
		t.Fatalf("two differing anchors: adopted %v", r.anchors)
	}
}

// parentConsensusTargets is a consensus node's round targets as the parent
// of the one catch-up component picked them.
func parentConsensusTargets(self wire.NodeID, peers []wire.NodeID, f, attempt int) []wire.NodeID {
	others := make([]wire.NodeID, 0, len(peers))
	for _, peer := range peers {
		if peer != self {
			others = append(others, peer)
		}
	}
	sort.Slice(others, func(i, j int) bool { return others[i] < others[j] })
	k := min(f+1, len(others))
	out := make([]wire.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, others[(attempt*k+i)%len(others)])
	}
	return out
}

// parentFullNodeTargets is a full node's round targets as the parent of the
// one catch-up component picked them.
func parentFullNodeTargets(self wire.NodeID, backups, zone []wire.NodeID, f, attempt int) []wire.NodeID {
	cands := make([]wire.NodeID, 0, len(backups)+len(zone))
	seen := make(map[wire.NodeID]bool)
	for _, p := range backups {
		if p != self && !seen[p] {
			seen[p] = true
			cands = append(cands, p)
		}
	}
	zp := append([]wire.NodeID(nil), zone...)
	sort.Slice(zp, func(i, j int) bool { return zp[i] < zp[j] })
	for _, p := range zp {
		if p != self && !seen[p] {
			seen[p] = true
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	k := min(f+1, len(cands))
	out := make([]wire.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, cands[(attempt*k+i)%len(cands)])
	}
	return out
}

// TestCatchupRoundTargets: every round goes where the parent's consensus
// and full-node copies sent it, for both candidate orders, and draws once
// from the node's random source.
func TestCatchupRoundTargets(t *testing.T) {
	for _, tc := range []struct {
		name        string
		full        bool
		f           int
		self        wire.NodeID
		first, rest []wire.NodeID // a full node's backups and zone peers; a consensus node's peers
	}{
		{"consensus n_c=4", false, 1, 2, nil, []wire.NodeID{3, 0, 2, 1}},
		{"consensus n_c=16", false, 5, 9, nil, []wire.NodeID{15, 3, 9, 0, 12, 1, 2, 4, 5, 6, 7, 8, 10, 11, 13, 14}},
		{"full node", true, 1, 105, []wire.NodeID{301, 105, 301}, []wire.NodeID{104, 102, 105, 103, 301, 101}},
		{"full node, one zone", true, 1, 102, nil, []wire.NodeID{103, 101}},
		{"full node, alone", true, 1, 101, nil, nil},
	} {
		parent := func(attempt int) []wire.NodeID {
			if tc.full {
				return parentFullNodeTargets(tc.self, tc.first, tc.rest, tc.f, attempt)
			}
			return parentConsensusTargets(tc.self, tc.rest, tc.f, attempt)
		}
		r := newCatchupRig(t, tc.f, CatchupPeers(tc.self, tc.first, tc.rest), 1)
		r.c.Begin()
		for attempt := 0; attempt < 8; attempt++ {
			if attempt > 0 {
				r.ctx.timers[len(r.ctx.timers)-1].fn()
			}
			var got []wire.NodeID
			got, r.ctx.sent = r.ctx.sent, nil
			if want := parent(attempt); !slices.Equal(got, want) {
				t.Fatalf("%s, round %d: asked %v, the parent asked %v", tc.name, attempt, got, want)
			}
			if r.ctx.draws != attempt+1 {
				t.Fatalf("%s, round %d: %d random draws in %d rounds", tc.name, attempt, r.ctx.draws, attempt+1)
			}
		}
	}
}

// TestCatchupCompletionMatchesParentRules: on random claim sets the one
// completion rule ends catch-up exactly when the parent's did — a
// consensus node at n_c = 4 once f+1 peers' heads are at or below its own,
// a full node once its head reaches the highest claim.
func TestCatchupCompletionMatchesParentRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		head := uint64(rng.Intn(8))
		// Consensus node: one claim per answering peer, k = f+1 = 2.
		r := newCatchupRig(t, 1, []wire.NodeID{1, 2, 3}, 2)
		r.c.Begin()
		r.setHead(head)
		agree := 0
		var claims []uint64
		for _, peer := range []wire.NodeID{1, 2, 3} {
			if rng.Intn(3) == 0 {
				continue
			}
			h := uint64(rng.Intn(8))
			claims = append(claims, h)
			r.c.Claim(peer, h)
			if h <= head {
				agree++
			}
		}
		if got, want := r.c.Check(), agree >= 2; got != want {
			t.Fatalf("consensus, head %d, claims %v: done %v, the parent's rule says %v", head, claims, got, want)
		}

		// Full node: at least one claim, any peer any number of times; the
		// parent's target started at the head, which only grows.
		r = newCatchupRig(t, 1, []wire.NodeID{101, 102, 103}, 1)
		r.c.Begin()
		r.setHead(head)
		target := uint64(rng.Intn(int(head) + 1))
		claims = claims[:0]
		for n := 1 + rng.Intn(5); n > 0; n-- {
			h := uint64(rng.Intn(8))
			claims = append(claims, h)
			r.c.Claim(wire.NodeID(100+rng.Intn(4)), h)
			target = max(target, h)
		}
		if got, want := r.c.Check(), head >= target; got != want {
			t.Fatalf("full node, head %d, claims %v: done %v, the parent's rule says %v", head, claims, got, want)
		}
	}
}

// TestPrunedConsensusNodeAnswersWithAnchor: a consensus node whose pruning
// has passed block s+1's cuts answers CatchupRequest{s} with an anchor it
// can serve a complete suffix from, and with no block whose bodies it no
// longer holds: nobody could validate those.
func TestPrunedConsensusNodeAnswersWithAnchor(t *testing.T) {
	pn := newPredisNetWith(t, 4, 1, func(_ int, o *Options) { o.Params.KeepConfirmed = 1 })
	var got []*CatchupResponse
	pn.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, _ time.Time) {
		if resp, ok := m.(*CatchupResponse); ok && from == 1 && to == 0 {
			got = append(got, resp)
		}
	}
	pn.net.Start()
	suite := crypto.NewSimSuite(4, 23)
	server := pn.peers[1]
	var parent *BundleHeader
	var prev crypto.Hash
	const head = 10
	for h := uint64(1); h <= head; h++ { // block h confirms producer 0's bundle h
		tips := make(TipList, 4)
		tips[0] = h
		b := PackBundle(suite.Signer(0), 0, parent, nil, tips)
		server.Receive(0, &BundleMsg{Bundle: b})
		parent = &b.Header
		blk := &PredisBlock{Height: h, Parent: prev, Leader: 0, Cuts: make([]Cut, 4)}
		blk.Cuts[0] = Cut{Height: h, Head: b.Header.Hash()}
		blk.Sig = suite.Signer(0).Sign(blk.Hash())
		server.OnCommit(h, blk)
		prev = blk.Hash()
	}
	if base := server.Mempool().Bases()[0]; base != head-1 {
		t.Fatalf("server pruned producer 0 to %d, want %d", base, head-1)
	}
	const s = 4 // block 5 confirms bundle 5, pruned long ago
	server.Receive(0, &CatchupRequest{Height: s})
	pn.net.Run(50 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("%d answers to one request", len(got))
	}
	resp := got[0]
	if resp.Head != head || resp.Anchor == nil || resp.Anchor.Height != head || len(resp.Blocks) != 0 {
		var heights []uint64
		for _, b := range resp.Blocks {
			heights = append(heights, b.Height)
		}
		t.Fatalf("answer head %d, anchor %v, blocks %v; want head %d, anchor %d and no blocks",
			resp.Head, resp.Anchor != nil, heights, head, head)
	}
}

// TestCatchupMessageCodec round-trips the catch-up pair: an answer with an
// anchor, one without, and an empty one.
func TestCatchupMessageCodec(t *testing.T) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 93)
	blk := &PredisBlock{Height: 6, Leader: 2, Cuts: []Cut{{Height: 11, Head: crypto.HashBytes([]byte("cut"))}, {}, {}, {}}}
	blk.Sig = suite.Signer(2).Sign(blk.Hash())
	next := &PredisBlock{Height: 7, Parent: blk.Hash(), Leader: 3, Cuts: make([]Cut, 4)}
	next.Sig = suite.Signer(3).Sign(next.Hash())

	req := &CatchupRequest{Height: 41}
	if got, err := wire.Roundtrip(req); err != nil || *got.(*CatchupRequest) != *req {
		t.Fatalf("CatchupRequest roundtrip: got %+v err %v", got, err)
	}
	for _, resp := range []*CatchupResponse{
		{Head: 44, Anchor: blk, Blocks: []*PredisBlock{next}},
		{Head: 44, Blocks: []*PredisBlock{blk, next}},
		{Head: 3},
	} {
		if n := len(wire.Marshal(resp)); n != resp.WireSize() {
			t.Fatalf("CatchupResponse WireSize %d, marshaled %d", resp.WireSize(), n)
		}
		got, err := wire.Roundtrip(resp)
		if err != nil {
			t.Fatalf("CatchupResponse roundtrip: %v", err)
		}
		gr := got.(*CatchupResponse)
		if gr.Head != resp.Head || (gr.Anchor == nil) != (resp.Anchor == nil) ||
			resp.Anchor != nil && gr.Anchor.Hash() != resp.Anchor.Hash() || len(gr.Blocks) != len(resp.Blocks) {
			t.Fatalf("CatchupResponse changed: %+v, want %+v", gr, resp)
		}
		for i, b := range resp.Blocks {
			if gr.Blocks[i].Hash() != b.Hash() || !suite.Signer(0).Verify(int(b.Leader), b.Hash(), gr.Blocks[i].Sig) {
				t.Fatalf("CatchupResponse block %d changed", i)
			}
		}
	}
}
