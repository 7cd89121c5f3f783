package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/types"
	"predis/internal/wire"
)

// recDist is a recording Distribution. Each StripeRoot call answers a root
// unique to the call; log collects the committed blocks, and a test may
// append to it from OnCommit to see one sequence.
type recDist struct {
	self    wire.NodeID
	roots   []crypto.Hash
	rootTxs [][]*types.Transaction
	stored  []stored
	log     []string
	// rooted: a StripeRoot call since the last stored bundle.
	rooted bool
}

// stored is one OnBundleStored call and the StripeRoot call right before
// it (−1: none).
type stored struct {
	b    *Bundle
	root int
}

func (d *recDist) StripeRoot(txs []*types.Transaction) crypto.Hash {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:], uint64(d.self))
	binary.BigEndian.PutUint64(buf[8:], uint64(len(d.roots)))
	root := crypto.HashBytes(buf[:])
	d.roots = append(d.roots, root)
	d.rootTxs = append(d.rootTxs, txs)
	d.rooted = true
	return root
}

func (d *recDist) OnBundleStored(b *Bundle) {
	s := stored{b: b, root: -1}
	if d.rooted {
		s.root, d.rooted = len(d.roots)-1, false
	}
	d.stored = append(d.stored, s)
}

func (d *recDist) OnBlockCommit(blk *PredisBlock) {
	d.log = append(d.log, fmt.Sprintf("block %d", blk.Height))
}

// producers returns the producers of the bundles stored since stored[from].
func (d *recDist) producers(from int) []wire.NodeID {
	var out []wire.NodeID
	for _, s := range d.stored[from:] {
		if p := s.b.Header.Producer; !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// distNet is a predisNet whose nodes each feed a recDist.
func distNet(t *testing.T, adjust func(i int, o *Options)) (*predisNet, []*recDist) {
	t.Helper()
	dists := make([]*recDist, 4)
	pn := newPredisNetWith(t, 4, 1, func(i int, o *Options) {
		dists[i] = &recDist{self: wire.NodeID(i)}
		o.Dist = dists[i]
		adjust(i, o)
	})
	return pn, dists
}

// TestDistributionStripeRootSigned: StripeRoot sees each own bundle's
// transactions before the bundle is stored, its root is in the header, and
// the producer's signature covers it, so peers store the bundle (all but
// the one in flight).
func TestDistributionStripeRootSigned(t *testing.T) {
	pn, dists := distNet(t, func(int, *Options) {})
	pn.net.Start()
	pn.submit(0, 25, 0)
	pn.net.Run(500 * time.Millisecond)
	d := dists[0]
	suite := crypto.NewSimSuite(4, 23)
	own := 0
	for _, s := range d.stored {
		b := s.b
		if b.Header.Producer != 0 {
			continue
		}
		own++
		if s.root < 0 {
			t.Fatalf("own bundle %d: stored with no StripeRoot call before it", b.Header.Height)
		}
		if b.Header.StripeRoot != d.roots[s.root] || !slices.Equal(b.Txs, d.rootTxs[s.root]) {
			t.Fatalf("own bundle %d: header root %s over %d txs; StripeRoot answered %s over %d", b.Header.Height,
				b.Header.StripeRoot.Short(), len(b.Txs), d.roots[s.root].Short(), len(d.rootTxs[s.root]))
		}
		if !suite.Signer(1).Verify(0, b.Header.Hash(), b.Header.Sig) {
			t.Fatalf("own bundle %d: the signature does not cover the stripe root", b.Header.Height)
		}
	}
	if own < 3 || own != len(d.roots) {
		t.Fatalf("%d own bundles stored, %d StripeRoot calls; want one per bundle, at least 3", own, len(d.roots))
	}
	for j := 1; j < 4; j++ { // they verified the signatures over the roots
		if tip := pn.peers[j].Mempool().Tip(0); tip+1 < uint64(own) {
			t.Fatalf("node %d holds %d of producer 0's %d bundles", j, tip, own)
		}
	}
}

// TestDistributionBlockBeforeCommit: at every height the distribution gets
// the committed block before OnCommit gets its transactions.
func TestDistributionBlockBeforeCommit(t *testing.T) {
	var d *recDist
	pn, dists := distNet(t, func(i int, o *Options) {
		if i == 0 {
			o.OnCommit = func(height uint64, txs []*types.Transaction) {
				d.log = append(d.log, fmt.Sprintf("commit %d", height))
			}
		}
	})
	d = dists[0]
	pn.net.Start()
	p := pn.peers[0]
	const heights = 3
	for h := uint64(1); h <= heights; h++ {
		pn.submit(0, 10, h*100)
		pn.net.Run(time.Duration(h) * 200 * time.Millisecond)
		head, hash := p.Mempool().Head()
		blk, ok := p.Mempool().BuildPredisBlock(head+1, hash, p.Mempool().Confirmed(), 0, blockQuorum, false)
		if !ok {
			t.Fatalf("height %d: nothing to cut", h)
		}
		p.OnCommit(blk.Height, blk)
	}
	want := []string{"block 1", "commit 1", "block 2", "commit 2", "block 3", "commit 3"}
	if !slices.Equal(d.log, want) {
		t.Fatalf("block and commit order %q, want %q", d.log, want)
	}
}

// TestDistributionSilentForPeersWhileCatchingUp: a node catching up stores
// its peers' bundles without striping them, but always stripes its own;
// once it is live it stripes its peers' again.
func TestDistributionSilentForPeersWhileCatchingUp(t *testing.T) {
	pn, dists := distNet(t, func(int, *Options) {})
	const window = time.Second
	var held []faults.Action
	for _, j := range []wire.NodeID{0, 2, 3} { // hold node 1's catch-up open
		held = append(held, faults.Withhold{Node: j, Types: []wire.Type{TypeCatchupResponse},
			Victims: []wire.NodeID{1}, From: 0, To: window})
	}
	faults.Install(pn.net, faults.Schedule{Actions: held})
	pn.net.Start()
	pn.net.Run(0)
	victim, d := pn.peers[1], dists[1]
	victim.StartCatchup()
	for i := 0; i < 4; i++ {
		pn.submit(i, 25, uint64(i)*1000)
	}
	pn.net.Run(window / 2)
	if !victim.CatchingUp() {
		t.Fatal("the catch-up finished inside the window")
	}
	if got := d.producers(0); !slices.Equal(got, []wire.NodeID{1}) {
		t.Fatalf("while catching up the distribution got bundles of %v; want only its own (1)", got)
	}
	for _, j := range []wire.NodeID{0, 2, 3} {
		if victim.Mempool().Tip(j) == 0 {
			t.Fatalf("the victim stored none of producer %d's bundles", j)
		}
	}
	pn.net.Run(window + 500*time.Millisecond)
	if victim.CatchingUp() {
		t.Fatal("the catch-up never finished")
	}
	mark := len(d.stored)
	for i := 0; i < 4; i++ {
		pn.submit(i, 25, uint64(i)*1000+500)
	}
	pn.net.Run(window + time.Second)
	if got := d.producers(mark); !slices.Equal(got, []wire.NodeID{0, 1, 2, 3}) {
		t.Fatalf("once live the distribution got bundles of %v; want every producer's", got)
	}
}

// TestNoDistributionZeroStripeRoots: without a distribution headers carry
// the zero stripe root and the mempool has no link hook.
func TestNoDistributionZeroStripeRoots(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	pn.net.Start()
	for i := 0; i < 4; i++ {
		pn.submit(i, 25, uint64(i)*1000)
	}
	pn.net.Run(500 * time.Millisecond)
	for i, p := range pn.peers {
		if p.mp.onLink != nil {
			t.Fatalf("node %d: a link hook without a distribution", i)
		}
		for j := wire.NodeID(0); j < 4; j++ {
			bundles := p.Mempool().Range(j, 0, p.Mempool().Tip(j))
			if len(bundles) == 0 {
				t.Fatalf("node %d holds none of producer %d's bundles", i, j)
			}
			for _, b := range bundles {
				if b.Header.StripeRoot != crypto.ZeroHash {
					t.Fatalf("node %d: bundle %d/%d has stripe root %s", i, j, b.Header.Height, b.Header.StripeRoot.Short())
				}
			}
		}
	}
}
