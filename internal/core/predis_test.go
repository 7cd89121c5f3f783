package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/faults"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// predisNet wires NC bare Predis components (no consensus engine) into a
// simulated network so the data plane can be tested in isolation.
type predisNet struct {
	net   *simnet.Network
	peers []*Predis
}

func newPredisNet(t *testing.T, nc, f int) *predisNet {
	t.Helper()
	return newPredisNetWith(t, nc, f, func(int, *Options) {})
}

// newPredisNetWith is newPredisNet with a per-node hook that adjusts the
// options (BundleSize 10, BundleInterval 10 ms, honest) before building.
func newPredisNetWith(t *testing.T, nc, f int, adjust func(i int, o *Options)) *predisNet {
	t.Helper()
	RegisterMessages()
	types.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3,
	})
	suite := crypto.NewSimSuite(nc, 23)
	pn := &predisNet{net: net}
	for i := 0; i < nc; i++ {
		opts := Options{
			Params: Params{
				NC: nc, F: f, BundleSize: 10,
				BundleInterval: 10 * time.Millisecond,
				Signer:         suite.Signer(i),
			},
			Self: wire.NodeID(i),
		}
		adjust(i, &opts)
		p, err := NewPredis(opts)
		if err != nil {
			t.Fatal(err)
		}
		pn.peers = append(pn.peers, p)
		net.AddNode(wire.NodeID(i), p)
	}
	return pn
}

func (pn *predisNet) submit(node int, n int, base uint64) {
	for k := 0; k < n; k++ {
		pn.peers[node].SubmitTx(types.NewTransaction(500, base+uint64(k), 512, 0))
	}
}

var _ env.Handler = (*Predis)(nil)

func TestPredisBundleDissemination(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	pn.submit(0, 25, 0) // 2 full bundles + 5 queued
	pn.net.Run(500 * time.Millisecond)
	for i, p := range pn.peers {
		if got := p.Mempool().Tips()[0]; got < 2 {
			t.Fatalf("node %d has chain-0 tip %d, want ≥ 2", i, got)
		}
	}
	produced, _, _ := pn.peers[0].Stats()
	if produced < 2 {
		t.Fatalf("producer made %d bundles", produced)
	}
	if pn.peers[0].QueueLen() != 0 {
		// The interval timer flushes the partial bundle.
		t.Fatalf("queue still holds %d txs after interval", pn.peers[0].QueueLen())
	}
}

// TestPredisFetchRepairsPartialSends: node 3 withholds its bundles from
// node 1 for a second. The first bundle node 1 then receives sits above a
// hole; it must fetch the gap and converge on the producer's chain.
func TestPredisFetchRepairsPartialSends(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	faults.Install(pn.net, faults.Schedule{Actions: []faults.Action{
		faults.Withhold{Node: 3, Types: []wire.Type{TypeBundle}, Victims: []wire.NodeID{1},
			From: 0, To: time.Second},
	}})
	pn.net.Start()
	pn.net.Run(0) // open the window before the first bundle
	pn.submit(3, 50, 0)
	pn.submit(0, 10, 1000) // honest traffic keeps tips moving
	pn.net.Run(time.Second)
	if got := pn.peers[1].Mempool().Tips()[3]; got != 0 {
		t.Fatalf("victim holds height %d of the withholding producer's chain", got)
	}
	withheld := pn.peers[3].Mempool().Tips()[3]
	if withheld == 0 {
		t.Fatal("producer made no bundles inside the window")
	}
	pn.submit(3, 20, 2000)
	pn.net.Run(4 * time.Second)
	tip := pn.peers[3].Mempool().Tips()[3]
	// The chain keeps emitting (heartbeats included), so honest nodes
	// trail its tip by the fetch round trip. The victim saw none of the
	// first withheld bundles first hand: reaching past them proves the
	// hole was fetched.
	for i := 0; i < 3; i++ {
		got := pn.peers[i].Mempool().Tips()[3]
		if got <= withheld || got+15 < tip {
			t.Fatalf("node %d only reached height %d of %d on chain 3 (%d withheld)", i, got, tip, withheld)
		}
	}
}

// TestPredisFetchesEachHoleOnce: bundles arriving one at a time above a
// hole leave the hole unchanged, so the node sends one request for it (to
// the producer) and asks again only when its retry timer fires — never a
// widening re-request per buffered bundle. Once the hole fills, the next
// one above the linked run is asked for at once.
func TestPredisFetchesEachHoleOnce(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	type sent struct {
		to  wire.NodeID
		req *BundleRequest
	}
	var reqs []sent
	pn.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, _ time.Time) {
		if req, ok := m.(*BundleRequest); ok && from == 0 {
			reqs = append(reqs, sent{to, req})
		}
	}
	pn.net.Start()
	// Producer 1's chain, heights 1–8, reaches only node 0, which misses
	// heights 1–2 and 5: nobody can answer, so the holes stay open.
	suite := crypto.NewSimSuite(4, 23)
	var parent *BundleHeader
	chain := []*Bundle{nil} // chain[h] is height h
	for h := 1; h <= 8; h++ {
		tips := make(TipList, 4)
		tips[1] = uint64(h)
		b := PackBundle(suite.Signer(1), 1, parent, []*types.Transaction{types.NewTransaction(9, uint64(h), 512, 0)}, tips)
		chain, parent = append(chain, b), &b.Header
	}
	deliver := func(heights ...int) {
		for _, h := range heights { // one per millisecond
			pn.peers[0].Receive(1, &BundleMsg{Bundle: chain[h]})
			pn.net.Run(pn.net.Now().Sub(simnet.Epoch) + time.Millisecond)
		}
	}
	// check asserts every request since reqs[since] asks for heights
	// from–to, and returns how many there were.
	check := func(since int, from, to uint64) int {
		t.Helper()
		for _, s := range reqs[since:] {
			if s.req.Producer != 1 || s.req.From != from || s.req.To != to {
				t.Fatalf("request %+v, want producer 1 heights %d–%d", *s.req, from, to)
			}
		}
		return len(reqs) - since
	}
	// oneRound asserts the requests since reqs[since] are one request.
	oneRound := func(since int, what string) {
		t.Helper()
		if n := len(reqs) - since; n != 1 {
			t.Fatalf("%s sent %d requests; want one", what, n)
		}
	}

	// Requests take 5 ms to land; the first retry fires after 15–25 ms.
	deliver(3, 4, 6, 7, 8)
	pn.net.Run(12 * time.Millisecond)
	check(0, 1, 2)
	oneRound(0, "a buffered run of five")
	if reqs[0].to != 1 {
		t.Fatalf("the hole was asked of %d; want the producer first", reqs[0].to)
	}
	pn.net.Run(100 * time.Millisecond)
	if check(0, 1, 2) < 2 {
		t.Fatal("the retry timer never re-asked for the hole")
	}

	mark := len(reqs)
	deliver(1, 2) // the run links through 4; the hole at 5 is next
	pn.net.Run(pn.net.Now().Sub(simnet.Epoch) + 8*time.Millisecond)
	check(mark, 5, 5)
	oneRound(mark, "filling the first hole")
}

func TestPredisEvidencePropagation(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	// Forge an equivocation by node 3's key and hand both bundles to node
	// 0 only; the ban must spread to every honest node via evidence.
	suite := crypto.NewSimSuite(4, 23)
	tips := make(TipList, 4)
	tips[3] = 1
	mk := func(base uint64) *Bundle {
		txs := []*types.Transaction{types.NewTransaction(9, base, 512, 0)}
		return PackBundle(suite.Signer(3), 3, nil, txs, tips)
	}
	pn.peers[0].Receive(3, &BundleMsg{Bundle: mk(1)})
	pn.peers[0].Receive(3, &BundleMsg{Bundle: mk(2)})
	pn.net.Run(time.Second)
	for i := 0; i < 3; i++ {
		if !pn.peers[i].Mempool().Banned(3) {
			t.Fatalf("node %d did not ban the equivocator", i)
		}
	}
}

func TestPredisBogusEvidenceIgnored(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	suite := crypto.NewSimSuite(4, 23)
	tips := make(TipList, 4)
	b := PackBundle(suite.Signer(2), 2, nil, nil, tips)
	// Same header twice is not a conflict.
	pn.peers[0].Receive(1, &ConflictEvidence{A: b.Header, B: b.Header})
	pn.net.Run(100 * time.Millisecond)
	if pn.peers[0].Mempool().Banned(2) {
		t.Fatal("bogus evidence caused a ban")
	}
}

func TestPredisHeartbeatBundlesDriveTips(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	// One burst of traffic at node 0, then silence: heartbeat bundles from
	// the others must still advertise receipt so a leader could cut.
	pn.submit(0, 10, 0)
	pn.net.Run(2 * time.Second)
	cuts := pn.peers[0].Mempool().CutChains(0, ZeroCuts(4), blockQuorum)
	if cuts[0].Height == 0 {
		t.Fatal("chain 0 cannot be cut: tip exchange never happened")
	}
	// The network must quiesce once nothing is left to confirm: after one
	// commit-equivalent (Commit), heartbeats stop.
	blk, ok := pn.peers[0].Mempool().BuildPredisBlock(1, crypto.ZeroHash, ZeroCuts(4), 0, blockQuorum, false)
	if !ok {
		t.Fatal("no block to build")
	}
	_ = blk
}

func TestPredisHasPendingWork(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	if pn.peers[0].HasPendingWork() {
		t.Fatal("fresh node reports pending work")
	}
	pn.submit(0, 3, 0)
	if !pn.peers[0].HasPendingWork() {
		t.Fatal("queued txs not reported as pending work")
	}
}

// TestCommitRefusesGap: a committed block must extend the head. One that
// skips a height is refused and logged, and commits nothing; the missing
// block, then the refused one, apply in order.
func TestCommitRefusesGap(t *testing.T) {
	suite := crypto.NewSimSuite(4, 23)
	p, err := NewPredis(Options{
		Params: Params{NC: 4, F: 1, BundleSize: 10, BundleInterval: 10 * time.Millisecond, Signer: suite.Signer(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &recCtx{fakeCtx: fakeCtx{rng: rand.New(rand.NewSource(1))}}
	p.Start(ctx)
	var blocks []*PredisBlock
	var parent crypto.Hash
	for h := uint64(1); h <= 3; h++ {
		blk := &PredisBlock{Height: h, Parent: parent, Leader: 1, Cuts: make([]Cut, 4)}
		blk.Sig = suite.Signer(1).Sign(blk.Hash())
		blocks = append(blocks, blk)
		parent = blk.Hash()
	}
	p.OnCommit(1, blocks[0])
	p.OnCommit(3, blocks[2])
	if p.LastHeight() != 1 || len(ctx.logs) != 1 || !strings.Contains(ctx.logs[0], "commit refused") {
		t.Fatalf("block 3 over head 1: head %d, logs %q; want head 1 and one refusal", p.LastHeight(), ctx.logs)
	}
	p.OnCommit(2, blocks[1])
	p.OnCommit(3, blocks[2])
	if height, hash := p.Mempool().Head(); height != 3 || hash != blocks[2].Hash() || len(ctx.logs) != 1 {
		t.Fatalf("head %d after blocks 2 and 3, logs %q; want 3", height, ctx.logs)
	}
}

// TestRetryBaseUsesDefaultInterval: a node left at the default
// BundleInterval (0, which the mempool reads as 20 ms) paces its catch-up
// rounds on twice that default. Its peers are silent, so only the retry
// timer asks again: within 30 ms that is the first round alone, where a
// zero base waited 1, 2, 4, 8 ms between rounds.
func TestRetryBaseUsesDefaultInterval(t *testing.T) {
	pn := newPredisNetWith(t, 4, 1, func(_ int, o *Options) { o.Params.BundleInterval = 0 })
	const window = 30 * time.Millisecond
	faults.Install(pn.net, faults.Schedule{Actions: []faults.Action{
		faults.Silent{Node: 1, To: time.Second}, faults.Silent{Node: 2, To: time.Second},
		faults.Silent{Node: 3, To: time.Second},
	}})
	var landed []time.Duration
	pn.net.OnDeliver = func(from, _ wire.NodeID, m wire.Message, at time.Time) {
		if _, ok := m.(*CatchupRequest); ok && from == 0 {
			landed = append(landed, at.Sub(simnet.Epoch))
		}
	}
	pn.net.Start()
	pn.net.Run(0)
	pn.peers[0].StartCatchup()
	pn.net.Run(window + 5*time.Millisecond) // each request lands 5 ms after it is sent

	// A round asks f+1 peers.
	const perRound = 2
	if len(landed) != perRound {
		t.Fatalf("%d catch-up requests sent in the first %v, landing at %v; want one round of %d",
			len(landed), window, landed, perRound)
	}
}
