// k-ary multicast trees for population-scale block distribution (the
// scale experiment), and, one level deep, the star topology of Figs. 7
// and 8 (starTrees).
//
// The Shallow Overlay Trees observation (PAPERS.md) is that at 10⁴–10⁵
// nodes the distribution bottleneck is the product depth × per-hop cost,
// where per-hop cost is k·B/U (serializing the block to k children at
// uplink rate U) plus the propagation latency L. A deep tree (small k)
// minimizes per-hop serialization but pays many latency hops; a shallow
// tree (large k) pays one giant serialization at every level. BestFanout
// picks k minimizing the analytic completion estimate.
//
// Memory: one shared Order slice holds the whole tree. The children of
// the node at position p are Order[p*k+1 : p*k+1+k] — shared subslices of
// the same backing array, so a 50 000-node tree costs one []wire.NodeID
// instead of 50 000 per-node child copies.

package harness

import (
	"time"

	"predis/internal/env"
	"predis/internal/topology"
	"predis/internal/wire"
)

// Tree is a k-ary multicast tree over a node population. Position 0 is
// the root; the node at position p has children at positions
// p·k+1 .. p·k+k (the classic heap layout), so parent/child relations
// need no per-node storage at all.
type Tree struct {
	// Order is the population in tree order (root first). All child
	// lookups are subslices of this one backing array.
	Order []wire.NodeID
	// Fanout is k.
	Fanout int
}

// NewTree builds a k-ary tree over the given population in the given
// order (the order is the layout: breadth-first positions). The slice is
// referenced, not copied; callers must not mutate it afterwards.
func NewTree(order []wire.NodeID, fanout int) *Tree {
	if fanout < 1 {
		fanout = 1
	}
	return &Tree{Order: order, Fanout: fanout}
}

// starTrees is the star topology of §V-B: the full nodes are attached to
// consensus nodes 0..nc-1 round-robin, and each consensus node roots a
// one-level Tree over its own, shipping every complete block straight to
// each of them.
func starTrees(nc int, fulls []wire.NodeID) []*Tree {
	trees := make([]*Tree, nc)
	for i := range trees {
		order := []wire.NodeID{wire.NodeID(i)}
		for j := i; j < len(fulls); j += nc {
			order = append(order, fulls[j])
		}
		trees[i] = NewTree(order, len(order)-1)
	}
	return trees
}

// pos returns the tree position of id, or -1. Linear probe kept out of
// hot paths — relays resolve their position once at Start.
func (t *Tree) pos(id wire.NodeID) int {
	for p, n := range t.Order {
		if n == id {
			return p
		}
	}
	return -1
}

// Children returns the child IDs of the node at position p — a shared
// subslice of Order (zero copy, zero allocation). Callers must not
// mutate it.
//
//predis:hotpath
func (t *Tree) Children(p int) []wire.NodeID {
	lo := p*t.Fanout + 1
	if lo >= len(t.Order) {
		return nil
	}
	hi := lo + t.Fanout
	if hi > len(t.Order) {
		hi = len(t.Order)
	}
	return t.Order[lo:hi]
}

// Depth returns the number of hops from the root to the deepest node.
func (t *Tree) Depth() int {
	if len(t.Order) <= 1 {
		return 0
	}
	depth := 0
	// Last position's depth: walk parents to the root.
	for p := len(t.Order) - 1; p > 0; p = (p - 1) / t.Fanout {
		depth++
	}
	return depth
}

// CompletionEstimate is the analytic full-population completion time of a
// blockBytes broadcast over a k-ary tree of n nodes: every level costs
// k·B/U (serialize to k children) + L (propagate), and there are depth
// levels. It is the objective BestFanout minimizes.
func CompletionEstimate(n, fanout, blockBytes int, uplinkBytesPerSec float64, latency time.Duration) time.Duration {
	if n <= 1 || fanout < 1 {
		return 0
	}
	// Depth of a k-ary tree with n nodes: smallest d with
	// 1 + k + k² + … + k^d ≥ n.
	depth := 0
	level := 1 // nodes at the deepest level so far
	for span := 1; span < n; depth++ {
		level *= fanout
		if level > n {
			level = n // cap so huge fanouts cannot overflow
		}
		span += level
	}
	perHop := latency
	if uplinkBytesPerSec > 0 {
		perHop += time.Duration(float64(fanout) * float64(blockBytes) / uplinkBytesPerSec * float64(time.Second))
	}
	return time.Duration(depth) * perHop
}

// BestFanout returns the fan-out minimizing CompletionEstimate for a
// population of n nodes receiving blockBytes blocks at the given uplink
// rate and one-way latency — the bandwidth-aware shallow-vs-deep choice.
// Candidates are scanned over 2..n-1 (n ≤ 2 degenerates to 1).
func BestFanout(n, blockBytes int, uplinkBytesPerSec float64, latency time.Duration) int {
	if n <= 2 {
		return 1
	}
	best, bestCost := 2, CompletionEstimate(n, 2, blockBytes, uplinkBytesPerSec, latency)
	for k := 3; k < n; k++ {
		cost := CompletionEstimate(n, k, blockBytes, uplinkBytesPerSec, latency)
		if cost < bestCost {
			best, bestCost = k, cost
		}
		// Costs are unimodal in k (serialization grows linearly once
		// depth stops shrinking); stop after the curve turns up for good.
		if k > 2*best+8 {
			break
		}
	}
	return best
}

// TreeRelay is the handler each tree node runs: on the first arrival of a
// height it forwards the same message pointer to its children (the tree
// gives every node a single parent, so no dedupe set is needed beyond
// skipping re-sends of a height) and reports the delivery.
type TreeRelay struct {
	tree *Tree
	ctx  env.Context
	p    int // own position, resolved once at Start
	// maxSeen is the deduplication state: experiments publish heights in
	// ascending order, so one watermark replaces a per-height set.
	maxSeen uint64
	// OnBlock fires on the first arrival of each height.
	OnBlock func(height uint64, at time.Time)
}

var _ env.Handler = (*TreeRelay)(nil)

// NewTreeRelay builds a relay over the shared tree.
func NewTreeRelay(tree *Tree, onBlock func(height uint64, at time.Time)) *TreeRelay {
	return &TreeRelay{tree: tree, OnBlock: onBlock}
}

// Start implements env.Handler.
func (r *TreeRelay) Start(ctx env.Context) {
	r.ctx = ctx
	r.p = r.tree.pos(ctx.ID())
}

// Receive implements env.Handler: forward first arrivals down the tree.
// Dispatch is a single type assertion (the payload pattern), not a type
// switch: topology's other message kinds (Digest, Pull) are dispatched
// by the gossip package, and a switch here would promise exhaustiveness
// this relay deliberately does not have.
//
//predis:hotpath
func (r *TreeRelay) Receive(from wire.NodeID, m wire.Message) {
	bd, ok := m.(*topology.BlockData)
	if !ok {
		return // tree relays carry only block data
	}
	if bd.Height <= r.maxSeen {
		return
	}
	r.maxSeen = bd.Height
	if r.OnBlock != nil {
		r.OnBlock(bd.Height, r.ctx.Now())
	}
	for _, child := range r.tree.Children(r.p) {
		r.ctx.Send(child, m)
	}
}

// Publish injects a block at the root: the root relay records it and
// fans it to its children exactly as if it had arrived from a parent.
func (r *TreeRelay) Publish(height uint64, origin wire.NodeID, size int) {
	r.Receive(origin, &topology.BlockData{Height: height, Origin: origin, Size: uint32(size)})
}
