package harness

import (
	"testing"
	"time"

	"predis/internal/simnet"
	"predis/internal/topology"
	"predis/internal/wire"
)

// TestTreeChildrenShareBacking pins the memory contract: every Children
// call returns a subslice of the one Order array, never a copy.
func TestTreeChildrenShareBacking(t *testing.T) {
	order := make([]wire.NodeID, 100)
	for i := range order {
		order[i] = wire.NodeID(i)
	}
	tr := NewTree(order, 3)
	seen := 0
	for p := range order {
		kids := tr.Children(p)
		for i, kid := range kids {
			if want := order[p*3+1+i]; kid != want {
				t.Fatalf("child %d of pos %d = %d, want %d", i, p, kid, want)
			}
			seen++
		}
		if len(kids) > 0 && &kids[0] != &order[p*3+1] {
			t.Fatalf("children of pos %d are a copy, not a shared subslice", p)
		}
	}
	if seen != len(order)-1 {
		t.Fatalf("tree covers %d children, want %d (every non-root exactly once)", seen, len(order)-1)
	}
}

// TestTreeDepth pins depths for known shapes.
func TestTreeDepth(t *testing.T) {
	cases := []struct {
		n, k, depth int
	}{
		{1, 2, 0}, {2, 2, 1}, {3, 2, 1}, {4, 2, 2}, {7, 2, 2}, {8, 2, 3},
		{1000, 1000, 1}, {100, 10, 2}, {111, 10, 2}, {112, 10, 3},
	}
	for _, c := range cases {
		order := make([]wire.NodeID, c.n)
		for i := range order {
			order[i] = wire.NodeID(i)
		}
		if got := NewTree(order, c.k).Depth(); got != c.depth {
			t.Errorf("depth(n=%d, k=%d) = %d, want %d", c.n, c.k, got, c.depth)
		}
	}
}

// TestBestFanoutTradesDepthForBandwidth checks the analytic optimum moves
// the right way: latency-dominated regimes prefer shallow (large k),
// bandwidth-dominated regimes prefer deep (small k).
func TestBestFanoutTradesDepthForBandwidth(t *testing.T) {
	const n = 10000
	up := float64(simnet.Mbps100)
	// Tiny blocks + big latency: serialization is free, depth is the whole
	// cost, so the best tree is shallow.
	shallow := BestFanout(n, 512, up, 50*time.Millisecond)
	// Huge blocks + negligible latency: every extra child at a level costs
	// a full block serialization, so the best tree is deep.
	deep := BestFanout(n, 8<<20, up, 10*time.Microsecond)
	if shallow <= deep {
		t.Fatalf("BestFanout: shallow regime k=%d should exceed deep regime k=%d", shallow, deep)
	}
	if deep < 1 || shallow > n {
		t.Fatalf("fanouts out of range: deep=%d shallow=%d", deep, shallow)
	}
}

// TestTreeRelayDeliversWholePopulation runs a real simulated broadcast:
// every node in a 3-ary tree of 200 nodes must see each published height
// exactly once, children strictly after parents.
func TestTreeRelayDeliversWholePopulation(t *testing.T) {
	topology.RegisterMessages()
	const n = 200
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(time.Millisecond),
		Seed:    1,
	})
	order := make([]wire.NodeID, n)
	for i := range order {
		order[i] = wire.NodeID(i)
	}
	tr := NewTree(order, 3)
	got := make(map[wire.NodeID][]uint64)
	relays := make([]*TreeRelay, n)
	for i, id := range order {
		id := id
		relays[i] = NewTreeRelay(tr, func(h uint64, at time.Time) {
			got[id] = append(got[id], h)
		})
		net.AddNode(id, relays[i])
	}
	net.Start()
	for h := uint64(1); h <= 3; h++ {
		relays[0].Publish(h, order[0], 32<<10)
		net.RunUntilIdle(0)
	}
	for _, id := range order {
		if len(got[id]) != 3 {
			t.Fatalf("node %d saw heights %v, want exactly [1 2 3]", id, got[id])
		}
		for i, h := range got[id] {
			if h != uint64(i+1) {
				t.Fatalf("node %d height order %v", id, got[id])
			}
		}
	}
	// n-1 edges per height, 3 heights: the tree sends each block exactly
	// once per edge — no duplicate suppression traffic at all.
	if want := uint64(3 * (n - 1)); net.Delivered() != want {
		t.Fatalf("delivered %d messages, want %d (one per edge per height)", net.Delivered(), want)
	}
}

// TestStarTreeSerializesUplink runs the star topology as a one-level
// tree: the root ships k copies of a block over its one uplink, so the
// copies leave in series and the arrivals spread over at least
// (k−1)·size/rate.
func TestStarTreeSerializesUplink(t *testing.T) {
	topology.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(10 * time.Millisecond), Seed: 1,
	})
	const leaves = 6
	fulls := make([]wire.NodeID, leaves)
	for i := range fulls {
		fulls[i] = wire.NodeID(10 + i)
	}
	tr := starTrees(1, fulls)[0]
	if got := tr.Children(0); len(got) != leaves || got[0] != fulls[0] || tr.Depth() != 1 {
		t.Fatalf("star tree: root has children %v at depth %d, want %v at depth 1", got, tr.Depth(), fulls)
	}
	arrivals := make(map[wire.NodeID]time.Time)
	root := NewTreeRelay(tr, nil)
	net.AddNode(0, root)
	for _, id := range fulls {
		id := id
		net.AddNode(id, NewTreeRelay(tr, func(height uint64, at time.Time) {
			arrivals[id] = at
		}))
	}
	net.Start()
	root.Publish(1, 0, 1<<20) // 1 MB
	net.RunUntilIdle(0)

	if len(arrivals) != leaves {
		t.Fatalf("%d leaves got the block, want %d", len(arrivals), leaves)
	}
	var first, last time.Time
	for _, at := range arrivals {
		if first.IsZero() || at.Before(first) {
			first = at
		}
		if at.After(last) {
			last = at
		}
	}
	perCopy := time.Duration(float64(1<<20) / float64(simnet.Mbps100) * float64(time.Second))
	minSpread := time.Duration(leaves-1) * perCopy
	if spread := last.Sub(first); spread < minSpread*9/10 {
		t.Fatalf("spread %v too small for serialized uplink (want ≥ %v)", spread, minSpread)
	}
}

// TestStarTreeLeafDedupes checks that a leaf of a star reports each
// height once: a repeated height does not fire OnBlock again.
func TestStarTreeLeafDedupes(t *testing.T) {
	topology.RegisterMessages()
	count := 0
	leaf := NewTreeRelay(starTrees(1, []wire.NodeID{1})[0], func(h uint64, at time.Time) { count++ })
	net := simnet.New(simnet.Config{})
	net.AddNode(1, leaf)
	net.Start()
	leaf.Receive(0, &topology.BlockData{Height: 5, Size: 100})
	leaf.Receive(2, &topology.BlockData{Height: 5, Size: 100})
	leaf.Receive(2, &topology.BlockData{Height: 6, Size: 100})
	if count != 2 {
		t.Fatalf("OnBlock fired %d times, want 2", count)
	}
}
