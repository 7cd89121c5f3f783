package core

import (
	"errors"
	"fmt"
	"slices"

	"predis/internal/crypto"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// Errors from Predis block validation.
var (
	ErrBlockShape     = errors.New("core: predis block malformed")
	ErrBlockSignature = errors.New("core: predis block signature invalid")
	ErrBlockParent    = errors.New("core: predis block parent mismatch")
	ErrBlockBanned    = errors.New("core: predis block includes bundles from a banned producer")
	ErrBlockRegressed = errors.New("core: predis block cut below parent cut")
	ErrBlockHead      = errors.New("core: predis block head hash does not match local chain")
	ErrBlockRoot      = errors.New("core: predis block tx root mismatch")
	// ErrBlockMissing means locally missing bundles prevent validation;
	// callers translate it to consensus.ErrPending after issuing fetches.
	ErrBlockMissing = errors.New("core: predis block references bundles not yet received")
)

// ZeroCuts returns the all-zero baseline cut vector for nc chains (the
// state before the first block).
func ZeroCuts(nc int) []uint64 { return make([]uint64, nc) }

// CutHeights appends the height vector of a block's cuts to dst.
func (m *PredisBlock) CutHeights(dst []uint64) []uint64 {
	for _, c := range m.Cuts {
		dst = append(dst, c.Height)
	}
	return dst
}

// CutChains runs the cutting rule (§III-B) relative to a baseline cut
// vector prev (the parent block's cuts): for every chain, the cut is the
// highest height that at least quorum nodes (including self) have received
// according to the tip matrix, clamped to what self holds (it must possess
// the head header) and never below prev. Banned producers' chains are never
// advanced. Block mode's quorum is n_c−f; stream mode's is 1, which cuts at
// self's own tips, since self's row of the matrix is its tips. Replicas
// that lack a bundle such a cut references fetch it during validation
// (ErrBlockMissing → consensus.ErrPending): safety is unchanged, and only
// proposal-time liveness is spent when the leader runs ahead of the swarm.
//
// Row j of the matrix is node j's claimed receipt heights: self's local
// tips, or the tip list of the latest bundle on j's chain with j's own
// entry raised to that bundle's height (a producer holds its own bundles),
// or zeros while j's chain is empty. The rule reads them in place; the
// returned cuts are its only allocation up to 64 nodes.
func (m *Mempool) CutChains(self wire.NodeID, prev []uint64, quorum int) []Cut {
	nc := m.params.NC
	var stack [64]uint64
	col := stack[:0]
	if nc > len(stack) {
		col = make([]uint64, 0, nc) //predis:allocok more than 64 nodes
	}
	cuts := make([]Cut, nc)
	for i := range cuts {
		cut := prev[i]
		if own := m.chains[i].tip(); !m.banned[i] && own > cut {
			col = col[:0]
			for j := 0; j < nc; j++ {
				col = append(col, m.receipt(self, j, i))
			}
			slices.Sort(col)
			// The quorum-th largest receipt height: at least quorum nodes
			// claim to hold everything at or below it.
			cut = max(cut, min(col[nc-quorum], own))
		}
		cuts[i] = Cut{Height: cut}
		if cut > prev[i] {
			cuts[i].Head = m.chains[i].at(cut).Header.Hash()
		}
	}
	return cuts
}

// receipt is node j's claimed receipt height on chain i: row j, column i
// of the tip matrix (see CutChains).
func (m *Mempool) receipt(self wire.NodeID, j, i int) uint64 {
	if wire.NodeID(j) == self {
		return m.chains[i].tip()
	}
	th := m.chains[j].tipHeader()
	switch {
	case th == nil:
		return 0
	case i == j:
		return max(th.Tips[i], th.Height)
	}
	return th.Tips[i]
}

// BuildPredisBlock packs a Predis block at the given consensus height
// extending a parent block identified by parentHash with baseline cuts
// prev, cutting at the given quorum (see CutChains). When the cut confirms
// no new bundles it returns ok=false — unless drain is set, in which case
// it emits a drain block whose cuts equal prev (zero bundles, TxRoot of an
// empty leaf set). Drain blocks exist so chained engines (HotStuff) can
// push already-proposed cuts over their multi-block commit rule without
// waiting for new payload; ValidatePredisBlock accepts them because
// freshness is a builder-side rule only.
func (m *Mempool) BuildPredisBlock(height uint64, parentHash crypto.Hash, prev []uint64,
	leader wire.NodeID, quorum int, drain bool) (*PredisBlock, bool) {
	cuts := m.CutChains(leader, prev, quorum)
	if newlyCut(prev, cuts) == 0 && !drain {
		return nil, false
	}
	blk := &PredisBlock{
		Height: height,
		Parent: parentHash,
		Leader: leader,
		Cuts:   cuts,
		TxRoot: m.blockRoot(prev, cuts),
	}
	blk.Sig = blk.memo.Sign(m.params.Signer, int(leader), blk.Hash())
	blk.rootOK = true
	return blk, true
}

// blockRoot computes the Merkle root over the header hashes of every newly
// confirmed bundle, in (chain, height) order. Header hashes commit to each
// bundle's TxRoot, so the root binds the block's full transaction set
// (Theorem 3.3's "identical candidate blocks").
func (m *Mempool) blockRoot(prev []uint64, cuts []Cut) crypto.Hash {
	m.roots++
	n := newlyCut(prev, cuts)
	if n == 0 {
		return crypto.ZeroHash
	}
	var stack [64]crypto.Hash // as in TxMerkleRoot
	leaves := stack[:0]
	if n > len(stack) {
		leaves = make([]crypto.Hash, 0, n) //predis:allocok blocks above 64 bundles
	}
	for i, c := range cuts {
		ch := m.chains[i]
		for h := prev[i] + 1; h <= c.Height; h++ {
			hh := ch.at(h).Header.Hash()
			leaves = append(leaves, merkle.HashLeaf(hh[:]))
		}
	}
	return merkle.RootInPlace(leaves)
}

// newlyCut returns how many bundles cuts confirm beyond the baseline prev.
func newlyCut(prev []uint64, cuts []Cut) int {
	n := 0
	for i, c := range cuts {
		if c.Height > prev[i] {
			n += int(c.Height - prev[i])
		}
	}
	return n
}

// ValidatePredisBlock runs the replica-side checks (§III-B) against the
// expected parent hash and baseline cuts. On ErrBlockMissing the returned
// ranges say which bundles to fetch.
//
// The leader's signature and the TxRoot are checked once per block (see
// PredisBlock.memo); the checks against this node's own state run every
// time: parent hash, cut regression, banned chains, and every cut head
// present and equal to the local header at its height. They are what make
// the root memo sound: the parent hash fixes the baseline cuts, and a
// matching head hash fixes every hash-chained header below it, so two
// nodes whose checks pass confirm the same headers and compute the same
// root.
//
//predis:hotpath
func (m *Mempool) ValidatePredisBlock(blk *PredisBlock, wantParent crypto.Hash,
	prev []uint64) ([]MissingRange, error) {
	if len(blk.Cuts) != m.params.NC || len(prev) != m.params.NC {
		return nil, fmt.Errorf("%w: %d cuts for %d chains", ErrBlockShape, len(blk.Cuts), m.params.NC) //predis:allocok reject path
	}
	if int(blk.Leader) >= m.params.NC {
		return nil, fmt.Errorf("%w: leader %d out of range", ErrBlockShape, blk.Leader) //predis:allocok reject path
	}
	if !blk.VerifySig(m.params.Signer) {
		return nil, ErrBlockSignature
	}
	if blk.Parent != wantParent {
		return nil, ErrBlockParent
	}
	var missing []MissingRange
	for i, c := range blk.Cuts {
		ch := m.chains[i]
		if c.Height < prev[i] {
			return nil, fmt.Errorf("%w: chain %d cut %d < parent cut %d", ErrBlockRegressed, i, c.Height, prev[i]) //predis:allocok reject path
		}
		if c.Height == prev[i] {
			continue // no new bundles on this chain
		}
		if m.banned[i] {
			return nil, fmt.Errorf("%w: chain %d", ErrBlockBanned, i) //predis:allocok reject path
		}
		if c.Height > ch.tip() {
			if missing == nil {
				missing = make([]MissingRange, 0, len(blk.Cuts)-i) //predis:allocok bundles missing: the fetch path
			}
			missing = append(missing, MissingRange{ //predis:allocok bundles missing: the fetch path
				Producer: wire.NodeID(i), From: ch.tip() + 1, To: c.Height,
			})
			continue
		}
		if ch.at(c.Height).Header.Hash() != c.Head {
			return nil, fmt.Errorf("%w: chain %d height %d", ErrBlockHead, i, c.Height) //predis:allocok reject path
		}
	}
	if len(missing) > 0 {
		return missing, ErrBlockMissing
	}
	if !blk.rootOK {
		if m.blockRoot(prev, blk.Cuts) != blk.TxRoot {
			return nil, ErrBlockRoot
		}
		blk.rootOK = true
	}
	return nil, nil
}

// blockBundles appends to dst[:0] every bundle a block newly confirms
// relative to the baseline cuts prev, in (chain, height) order, or
// returns nil if some are missing locally. It allocates only when dst is
// too short.
func (m *Mempool) blockBundles(dst []*Bundle, blk *PredisBlock, prev []uint64) []*Bundle {
	out := dst[:0]
	if n := newlyCut(prev, blk.Cuts); cap(out) < n {
		out = make([]*Bundle, 0, n)
	}
	for i, c := range blk.Cuts {
		ch := m.chains[i]
		for h := prev[i] + 1; h <= c.Height; h++ {
			b := ch.at(h)
			if b == nil {
				return nil
			}
			out = append(out, b)
		}
	}
	return out
}

// BlockTxs appends a block's bundles' transactions to dst, in bundle order,
// and returns the extended slice: a caller that flattens every block passes
// its previous result, truncated, as dst and allocates only when a block
// is larger than any before it.
func BlockTxs(dst []*types.Transaction, bundles []*Bundle) []*types.Transaction {
	n := len(dst)
	for _, b := range bundles {
		n += len(b.Txs)
	}
	dst = slices.Grow(dst, n-len(dst))
	for _, b := range bundles {
		dst = append(dst, b.Txs...)
	}
	return dst
}
