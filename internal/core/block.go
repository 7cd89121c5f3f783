package core

import (
	"errors"
	"fmt"
	"sort"

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

// CutHeights extracts the height vector from a block's cuts.
func (m *PredisBlock) CutHeights() []uint64 {
	out := make([]uint64, len(m.Cuts))
	for i, c := range m.Cuts {
		out[i] = c.Height
	}
	return out
}

// CutChains runs the cutting rule (§III-B) relative to a baseline cut
// vector prev (the parent block's cuts): for every chain, the cut is the
// highest height that at least n_c−f nodes (including this node) have
// received according to the tip matrix, clamped to what this node itself
// holds (it must possess the head header) and never below prev. Banned
// producers' chains are never advanced.
func (m *Mempool) CutChains(self wire.NodeID, prev []uint64) []Cut {
	nc, f := m.params.NC, m.params.F
	matrix := m.TipMatrix(self)
	selfTips := m.Tips()
	cuts := make([]Cut, nc)
	heights := make([]uint64, nc)
	for i := 0; i < nc; i++ {
		cut := prev[i]
		if !m.banned[i] {
			for j := 0; j < nc; j++ {
				heights[j] = matrix[j][i]
			}
			sort.Slice(heights, func(a, b int) bool { return heights[a] > heights[b] })
			// The (n_c−f)-th largest receipt height: at least n_c−f nodes
			// claim to hold everything at or below it.
			candidate := heights[nc-f-1]
			if candidate > selfTips[i] {
				candidate = selfTips[i]
			}
			if candidate > cut {
				cut = candidate
			}
		}
		c := Cut{Height: cut}
		if cut > prev[i] {
			c.Head = m.chains[i].at(cut).Header.Hash()
		}
		cuts[i] = c
	}
	return cuts
}

// BuildPredisBlock packs a Predis block at the given consensus height
// extending a parent block identified by parentHash with baseline cuts
// prev. It returns ok=false when the cut confirms no new bundles (nothing
// to propose).
func (m *Mempool) BuildPredisBlock(height uint64, parentHash crypto.Hash, prev []uint64,
	leader wire.NodeID) (*PredisBlock, bool) {
	return m.packBlock(height, parentHash, prev, m.CutChains(leader, prev), leader, false)
}

// CutChainsEager runs the streaming-mode cutting rule: every non-banned
// chain is cut at this node's own tip (clamped to never regress below
// prev) instead of at the n_c−f quorum receipt height. The leader does not
// wait for heartbeat rounds to prove dissemination; replicas that lack a
// referenced bundle fetch it during validation (ErrBlockMissing →
// consensus.ErrPending), so safety is unchanged and only proposal-time
// liveness is spent when the leader runs ahead of the swarm.
func (m *Mempool) CutChainsEager(prev []uint64) []Cut {
	nc := m.params.NC
	selfTips := m.Tips()
	cuts := make([]Cut, nc)
	for i := 0; i < nc; i++ {
		cut := prev[i]
		if !m.banned[i] && selfTips[i] > cut {
			cut = selfTips[i]
		}
		c := Cut{Height: cut}
		if cut > prev[i] {
			c.Head = m.chains[i].at(cut).Header.Hash()
		}
		cuts[i] = c
	}
	return cuts
}

// BuildPredisBlockStream packs a streaming-mode Predis block using the
// eager cutting rule. When the eager cut confirms nothing new it returns
// ok=false — unless allowEmpty is set, in which case it emits a drain
// block whose cuts equal prev (zero bundles, TxRoot of an empty leaf set).
// Drain blocks exist so pipelined engines (chained HotStuff) can push
// already-proposed cuts over their multi-block commit rule without waiting
// for new payload; ValidatePredisBlock accepts them because freshness is a
// builder-side rule only.
func (m *Mempool) BuildPredisBlockStream(height uint64, parentHash crypto.Hash, prev []uint64,
	leader wire.NodeID, allowEmpty bool) (*PredisBlock, bool) {
	return m.packBlock(height, parentHash, prev, m.CutChainsEager(prev), leader, allowEmpty)
}

// packBlock assembles, roots and signs a block over the given cuts,
// enforcing the builder-side freshness rule unless allowEmpty.
func (m *Mempool) packBlock(height uint64, parentHash crypto.Hash, prev []uint64,
	cuts []Cut, leader wire.NodeID, allowEmpty bool) (*PredisBlock, bool) {
	fresh := false
	for i, c := range cuts {
		if c.Height > prev[i] {
			fresh = true
			break
		}
	}
	if !fresh && !allowEmpty {
		return nil, false
	}
	blk := &PredisBlock{
		Height: height,
		Parent: parentHash,
		Leader: leader,
		Cuts:   cuts,
		TxRoot: m.blockRoot(prev, cuts),
	}
	blk.Sig = m.params.Signer.Sign(blk.Hash())
	return blk, true
}

// blockRoot computes the Merkle root over the header hashes of every newly
// confirmed bundle, in (chain, height) order. Header hashes commit to each
// bundle's TxRoot, so the root binds the block's full transaction set
// (Theorem 3.3's "identical candidate blocks").
func (m *Mempool) blockRoot(prev []uint64, cuts []Cut) crypto.Hash {
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
func (m *Mempool) ValidatePredisBlock(blk *PredisBlock, wantParent crypto.Hash,
	prev []uint64) ([]MissingRange, error) {
	if len(blk.Cuts) != m.params.NC || len(prev) != m.params.NC {
		return nil, fmt.Errorf("%w: %d cuts for %d chains", ErrBlockShape, len(blk.Cuts), m.params.NC)
	}
	if int(blk.Leader) >= m.params.NC {
		return nil, fmt.Errorf("%w: leader %d out of range", ErrBlockShape, blk.Leader)
	}
	if !m.params.Signer.Verify(int(blk.Leader), blk.Hash(), blk.Sig) {
		return nil, ErrBlockSignature
	}
	if blk.Parent != wantParent {
		return nil, ErrBlockParent
	}
	var missing []MissingRange
	for i, c := range blk.Cuts {
		ch := m.chains[i]
		if c.Height < prev[i] {
			return nil, fmt.Errorf("%w: chain %d cut %d < parent cut %d",
				ErrBlockRegressed, i, c.Height, prev[i])
		}
		if c.Height == prev[i] {
			continue // no new bundles on this chain
		}
		if m.banned[i] {
			return nil, fmt.Errorf("%w: chain %d", ErrBlockBanned, i)
		}
		if c.Height > ch.tip() {
			if missing == nil {
				missing = make([]MissingRange, 0, len(blk.Cuts)-i)
			}
			missing = append(missing, MissingRange{
				Producer: wire.NodeID(i), From: ch.tip() + 1, To: c.Height,
			})
			continue
		}
		if ch.at(c.Height).Header.Hash() != c.Head {
			return nil, fmt.Errorf("%w: chain %d height %d", ErrBlockHead, i, c.Height)
		}
	}
	if len(missing) > 0 {
		return missing, ErrBlockMissing
	}
	if m.blockRoot(prev, blk.Cuts) != blk.TxRoot {
		return nil, ErrBlockRoot
	}
	return nil, nil
}

// blockBundles returns every bundle a block newly confirms relative to the
// baseline cuts prev, in (chain, height) order, or nil if some are
// missing locally.
func (m *Mempool) blockBundles(blk *PredisBlock, prev []uint64) []*Bundle {
	out := make([]*Bundle, 0, newlyCut(prev, blk.Cuts))
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

// BlockTxs flattens a block's bundles into its transaction list.
func BlockTxs(bundles []*Bundle) []*types.Transaction {
	n := 0
	for _, b := range bundles {
		n += len(b.Txs)
	}
	out := make([]*types.Transaction, 0, n)
	for _, b := range bundles {
		out = append(out, b.Txs...)
	}
	return out
}
