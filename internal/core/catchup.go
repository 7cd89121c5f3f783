package core

import (
	"slices"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/wire"
)

// Catch-up: how a node that missed committed blocks gets them back,
// consensus nodes and full nodes alike (DESIGN.md, "Catch-up"). Rounds of
// CatchupRequests go to F+1 candidates, rotated by attempt, one backoff
// draw apart. Every node answers with ServeBlocks. A block whose leader
// signature fails is dropped before it is tallied; a block or an anchor is
// adopted once K distinct peers vouch for its hash — f+1 on a consensus
// node, which must not trust a single peer, 1 on a full node, which trusts
// the leader signature as its live path does (§IV-D). Catch-up ends once
// at least K peers' highest head claims are at or below the node's head
// and at most K−1 are above it. Answers apply whether or not a round runs.

// maxCatchupBlocks bounds the blocks of one CatchupResponse.
const maxCatchupBlocks = 64

// CatchupOwner is what differs between the nodes that catch up.
type CatchupOwner struct {
	Peers []wire.NodeID // the candidates, in rotation order (CatchupPeers)
	K     int           // how many distinct peers must vouch for a block or an anchor
	// Apply takes the blocks of one answer that K peers vouch for, in the
	// answer's order; it runs for every answer, with none too.
	Apply func(from wire.NodeID, blocks []*PredisBlock)
	// Anchor skip-syncs the node to an anchor K peers vouch for
	// (Mempool.FastForward).
	Anchor func(anchor *PredisBlock)
}

// CatchupPeers lists a node's candidates: first in its order, then rest in
// ascending order, without self or repeats.
func CatchupPeers(self wire.NodeID, first, rest []wire.NodeID) []wire.NodeID {
	rest = slices.Clone(rest)
	slices.Sort(rest)
	var out []wire.NodeID
	for _, p := range append(slices.Clone(first), rest...) {
		if p != self && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// vouch tallies the peers that sent one block hash, as a block or an anchor.
type vouch struct {
	hash   crypto.Hash
	anchor bool
	block  *PredisBlock
	peers  []wire.NodeID
}

// Catchup is one node's catch-up and block server; the node's mempool holds
// its chain head and the blocks it serves. It must be driven from the
// owner's serialized executor.
type Catchup struct {
	ctx   env.Context
	mp    *Mempool
	retry env.Backoff
	own   CatchupOwner

	running bool
	attempt int
	timer   env.Timer
	claims  map[wire.NodeID]uint64 // each peer's highest head claim in this catch-up
	votes   map[uint64][]*vouch    // by height, until the head passes it
}

// NewCatchup builds the catch-up of the node whose bundles mp holds; retry
// paces its rounds. Call Start before use.
func NewCatchup(mp *Mempool, retry env.Backoff, own CatchupOwner) *Catchup {
	return &Catchup{mp: mp, retry: retry, own: own, votes: make(map[uint64][]*vouch)}
}

// Start binds the catch-up to its owner's context.
func (c *Catchup) Start(ctx env.Context) { c.ctx = ctx }

// Running reports whether a catch-up is in flight.
func (c *Catchup) Running() bool { return c.running }

// Begin starts a catch-up; it is idempotent while one is running.
func (c *Catchup) Begin() {
	if c.running {
		return
	}
	c.running, c.attempt, c.claims = true, 0, make(map[wire.NodeID]uint64)
	c.round()
}

// round asks this attempt's F+1 candidates and arms the next round.
func (c *Catchup) round() {
	n := min(c.mp.params.F+1, len(c.own.Peers))
	targets := make([]wire.NodeID, n)
	for i := range targets {
		targets[i] = c.own.Peers[(c.attempt*n+i)%len(c.own.Peers)]
	}
	c.Ask(targets...)
	c.attempt++
	c.timer = c.ctx.After(c.retry.Delay(c.attempt-1, c.ctx.Rand()), c.round)
}

// Ask sends peers a CatchupRequest for the blocks above the node's head.
func (c *Catchup) Ask(peers ...wire.NodeID) {
	head, _ := c.mp.Head()
	req := &CatchupRequest{Height: head}
	for _, peer := range peers {
		c.ctx.Send(peer, req)
	}
}

// Claim records that peer's head is at least head, while a catch-up runs:
// an answer claims its Head, and a full node's live block that jumps its
// head claims the height below it for its sender.
func (c *Catchup) Claim(peer wire.NodeID, head uint64) {
	if c.running {
		c.claims[peer] = max(c.claims[peer], head)
	}
}

// Answered takes in a CatchupResponse: it claims the answer's head, adopts
// its anchor once K peers vouch for it, and hands the owner the blocks K
// peers vouch for.
func (c *Catchup) Answered(from wire.NodeID, resp *CatchupResponse) {
	c.Claim(from, resp.Head)
	head, _ := c.mp.Head()
	for h := range c.votes {
		if h <= head {
			delete(c.votes, h)
		}
	}
	if a := resp.Anchor; a != nil && a.Height > head {
		if adopted, ok := c.tally(from, a, true); adopted && ok {
			c.own.Anchor(a)
			head, _ = c.mp.Head()
		}
	}
	var blocks []*PredisBlock
	for _, blk := range resp.Blocks {
		if blk.Height <= head {
			continue
		}
		adopted, ok := c.tally(from, blk, false)
		if !ok {
			break
		}
		if adopted {
			blocks = append(blocks, blk)
		}
	}
	c.own.Apply(from, blocks)
}

// tally counts from's vouch for blk and reports whether K peers vouch for
// it; ok is false when its leader signature fails. Each hash is checked
// once: a copy that hashes alike carries the same block.
func (c *Catchup) tally(from wire.NodeID, blk *PredisBlock, anchor bool) (adopted, ok bool) {
	h := blk.Hash()
	vs := c.votes[blk.Height]
	i := slices.IndexFunc(vs, func(v *vouch) bool { return v.hash == h && v.anchor == anchor })
	if i < 0 {
		if int(blk.Leader) >= c.mp.params.NC || !blk.VerifySig(c.mp.params.Signer) {
			c.ctx.Logf("catchup: block %d with a bad signature from %d", blk.Height, from)
			return false, false
		}
		i, vs = len(vs), append(vs, &vouch{hash: h, anchor: anchor, block: blk})
		c.votes[blk.Height] = vs
	}
	if !slices.Contains(vs[i].peers, from) {
		vs[i].peers = append(vs[i].peers, from)
	}
	return len(vs[i].peers) >= c.own.K, true
}

// Adopted returns the block at height that K peers vouch for, or nil.
func (c *Catchup) Adopted(height uint64) *PredisBlock {
	for _, v := range c.votes[height] {
		if !v.anchor && len(v.peers) >= c.own.K {
			return v.block
		}
	}
	return nil
}

// Check ends a running catch-up once the claims allow it, and reports
// whether it just ended. The owner calls it whenever its head may have
// moved.
func (c *Catchup) Check() bool {
	if !c.running {
		return false
	}
	head, _ := c.mp.Head()
	at, above := 0, 0
	for _, claim := range c.claims {
		if claim <= head {
			at++
		} else {
			above++
		}
	}
	if at < c.own.K || above >= c.own.K {
		return false
	}
	c.timer.Stop()
	c.running = false
	c.ctx.Logf("catchup: complete at height %d after %d rounds", head, c.attempt)
	return true
}

// ServeBlocks answers a CatchupRequest, on both kinds of node, with the run
// of kept blocks above the asked height, at most maxCatchupBlocks. When the
// requester's next bodies are no longer held here, the run starts above a
// snapshot anchor the answer carries, from which the requester replays: the
// kept block one above the lowest, which sits on the pruning edge and leaves
// it before the requester's first bundle pull arrives one round trip later.
// Above the head, the answer is the head alone.
func (c *Catchup) ServeBlocks(from wire.NodeID, req *CatchupRequest) {
	head, _ := c.mp.Head()
	resp := &CatchupResponse{Head: head}
	start := req.Height
	if start < head && !c.servable(start) {
		low := max(start+1, c.mp.blocks[0].Height)
		resp.Anchor = c.mp.Block(min(low+1, head))
		start = resp.Anchor.Height
	}
	for h := start + 1; h <= head && len(resp.Blocks) < maxCatchupBlocks; h++ {
		resp.Blocks = append(resp.Blocks, c.mp.Block(h))
	}
	c.ctx.Send(from, resp)
}

// servable reports whether the blocks above s are kept here with every
// bundle they reference: block s is kept, or s is the genesis, block 1 is
// kept and no chain is pruned.
func (c *Catchup) servable(s uint64) bool {
	if s > 0 {
		return c.mp.Block(s) != nil
	}
	return c.mp.Block(1) != nil && !slices.ContainsFunc(c.mp.Bases(), func(base uint64) bool { return base > 0 })
}
