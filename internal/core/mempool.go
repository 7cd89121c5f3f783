package core

import (
	"bytes"
	"errors"
	"fmt"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// AddResult describes the outcome of Mempool.AddBundle.
type AddResult int

// AddBundle outcomes.
const (
	// Added means the bundle extended its chain (and possibly linked
	// buffered descendants).
	Added AddResult = iota + 1
	// Duplicate means the bundle (or its height) was already present or
	// confirmed; nothing changed.
	Duplicate
	// Buffered means the bundle arrived ahead of a gap and waits for its
	// parent; the caller should fetch the missing range.
	Buffered
	// Conflicting means the bundle equivocates with a stored one; the
	// returned evidence must be broadcast and the producer is now banned.
	Conflicting
)

// Errors returned by AddBundle.
var (
	ErrUnknownProducer = errors.New("core: producer out of range")
	ErrBannedProducer  = errors.New("core: producer is banned")
	ErrBadSignature    = errors.New("core: bundle signature invalid")
	ErrBadBody         = errors.New("core: bundle body does not match header")
	ErrBadParent       = errors.New("core: bundle parent hash does not match chain")
	ErrBadTips         = errors.New("core: bundle tip list not monotone versus parent")
	ErrBadTipsLen      = errors.New("core: bundle tip list has wrong length")
)

// chain holds one producer's bundle chain: a contiguous run of bundles
// (base, tip] plus out-of-order descendants buffered by parent hash.
type chain struct {
	// base: all heights ≤ base have been pruned; bundles[0] has height
	// base+1.
	base    uint64
	bundles []*Bundle
	// confirmed is the highest height included in a committed block.
	confirmed uint64
	// buffered maps parentHash → bundle awaiting that parent.
	buffered map[crypto.Hash]*Bundle
}

func (c *chain) tip() uint64 { return c.base + uint64(len(c.bundles)) }

// at returns the bundle at the given height, or nil when outside (base, tip].
func (c *chain) at(h uint64) *Bundle {
	if h <= c.base || h > c.tip() {
		return nil
	}
	return c.bundles[h-c.base-1]
}

func (c *chain) tipHeader() *BundleHeader {
	if len(c.bundles) == 0 {
		return nil
	}
	return &c.bundles[len(c.bundles)-1].Header
}

// Mempool is a node's Predis mempool: NC parallel bundle chains plus the
// ban list. It is a passive data structure driven from the node's
// serialized executor; it performs no I/O.
type Mempool struct {
	params Params
	chains []*chain
	banned []bool
	// evidence keeps the first conflict evidence per banned producer so
	// it can be served to peers.
	evidence map[wire.NodeID]*ConflictEvidence
	// liveTxBundles counts unconfirmed non-empty bundles across all
	// non-banned chains; it backs HasUnconfirmedPayload.
	liveTxBundles int
	// onLink, when set, observes every bundle the moment it links into a
	// chain (including cascaded out-of-order arrivals). Multi-Zone's
	// distributor ships stripes from this hook.
	onLink func(*Bundle)

	// The committed chain (see Commit): the kept blocks, ascending and
	// contiguous, ending at the head; the head's hash; headCuts' scratch;
	// the bundles the last Commit returned.
	blocks    []*PredisBlock
	headHash  crypto.Hash
	prev      []uint64
	committed []*Bundle

	// roots counts blockRoot runs (see BlockRoots).
	roots uint64
}

// SetOnLink installs the bundle-linked observer; pass nil to clear.
func (m *Mempool) SetOnLink(fn func(*Bundle)) { m.onLink = fn }

// NewMempool builds an empty mempool.
func NewMempool(params Params) (*Mempool, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	p := params.withDefaults()
	chains := make([]*chain, p.NC)
	for i := range chains {
		chains[i] = &chain{buffered: make(map[crypto.Hash]*Bundle)}
	}
	return &Mempool{
		params:   p,
		chains:   chains,
		banned:   make([]bool, p.NC),
		evidence: make(map[wire.NodeID]*ConflictEvidence),
	}, nil
}

// BlockRoots returns how many Predis block roots this mempool computed,
// building blocks or checking them. A block's root is computed once per
// process (see PredisBlock.memo), so a mempool that validates a block
// another mempool in the process built or checked computes none.
func (m *Mempool) BlockRoots() uint64 { return m.roots }

// Params returns the mempool's configuration.
func (m *Mempool) Params() Params { return m.params }

// Tips returns this node's tip list: the highest contiguous bundle height
// held per chain.
func (m *Mempool) Tips() TipList {
	out := make(TipList, len(m.chains))
	for i, c := range m.chains {
		out[i] = c.tip()
	}
	return out
}

// Tip returns the highest contiguous bundle height held on one chain.
func (m *Mempool) Tip(producer wire.NodeID) uint64 { return m.chains[producer].tip() }

// Confirmed returns the confirmed height of each chain.
func (m *Mempool) Confirmed() []uint64 {
	out := make([]uint64, len(m.chains))
	for i, c := range m.chains {
		out[i] = c.confirmed
	}
	return out
}

// TipHeader returns the latest bundle header on a chain, or nil when the
// chain is empty.
func (m *Mempool) TipHeader(producer wire.NodeID) *BundleHeader {
	if int(producer) >= len(m.chains) {
		return nil
	}
	return m.chains[producer].tipHeader()
}

// Bundle returns the stored bundle at (producer, height), or nil.
func (m *Mempool) Bundle(producer wire.NodeID, height uint64) *Bundle {
	if int(producer) >= len(m.chains) {
		return nil
	}
	return m.chains[producer].at(height)
}

// Banned reports whether a producer is banned.
func (m *Mempool) Banned(producer wire.NodeID) bool {
	return int(producer) < len(m.banned) && m.banned[producer]
}

// Ban registers a producer in the ban list with the evidence that
// justifies it (may be nil when adopted from a peer's Predis-block
// rejection path).
func (m *Mempool) Ban(producer wire.NodeID, ev *ConflictEvidence) {
	if int(producer) >= len(m.banned) {
		return
	}
	if !m.banned[producer] {
		m.banned[producer] = true
		if ev != nil {
			m.evidence[producer] = ev
		}
		// Unconfirmed bundles on a banned chain can never commit; stop
		// counting them as pending work.
		c := m.chains[producer]
		for h := c.confirmed + 1; h <= c.tip(); h++ {
			if b := c.at(h); b != nil && b.Header.TxCount > 0 {
				m.liveTxBundles--
			}
		}
	}
}

// Unban removes a producer from the ban list (§III-E allows banned nodes
// to rejoin after a period).
func (m *Mempool) Unban(producer wire.NodeID) {
	if int(producer) < len(m.banned) {
		m.banned[producer] = false
		delete(m.evidence, producer)
	}
}

// Evidence returns stored conflict evidence for a producer, or nil.
func (m *Mempool) Evidence(producer wire.NodeID) *ConflictEvidence {
	return m.evidence[producer]
}

// MissingRange describes a gap the caller should fetch: bundles
// [From, To] on Producer's chain.
type MissingRange struct {
	Producer wire.NodeID
	From, To uint64
}

// AddBundle validates and stores a bundle (§III-A validity rules). On
// Conflicting, the returned evidence must be multicast; on Buffered, the
// returned MissingRange tells the caller what to fetch. The signature and
// body checks run once per bundle (see BundleHeader.memo): a bundle this
// process packed or already checked passes them without hashing.
func (m *Mempool) AddBundle(b *Bundle) (AddResult, *ConflictEvidence, *MissingRange, error) {
	p := b.Header.Producer
	if int(p) >= len(m.chains) {
		return 0, nil, nil, fmt.Errorf("%w: %d", ErrUnknownProducer, p)
	}
	if m.banned[p] {
		return 0, nil, nil, ErrBannedProducer
	}
	if len(b.Header.Tips) != m.params.NC {
		return 0, nil, nil, ErrBadTipsLen
	}
	if b.Header.Height == 0 {
		return 0, nil, nil, fmt.Errorf("core: bundle height 0 invalid")
	}
	if !b.Header.VerifySig(m.params.Signer) {
		return 0, nil, nil, ErrBadSignature
	}
	if err := b.VerifyBody(); err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrBadBody, err)
	}

	c := m.chains[p]
	h := b.Header.Height
	switch {
	case h <= c.tip():
		return m.checkExisting(c, b)
	case h == c.tip()+1:
		res, ev, err := m.link(c, b)
		if err != nil || res != Added {
			return res, ev, nil, err
		}
		// Cascade buffered descendants.
		for {
			next, ok := c.buffered[c.tipHeader().Hash()]
			if !ok {
				break
			}
			delete(c.buffered, c.tipHeader().Hash())
			if res2, _, err2 := m.link(c, next); err2 != nil || res2 != Added {
				break
			}
		}
		return Added, nil, nil, nil
	default: // gap: buffer and report what is missing
		c.buffered[b.Header.Parent] = b
		return Buffered, nil, m.Hole(p), nil
	}
}

// Hole returns the gap between a chain's tip and the lowest bundle buffered
// above tip+1, or nil when nothing waits there. The heights above the gap
// are held, so a run buffered one bundle at a time keeps naming the same
// hole instead of widening it, and a fetch never asks for what is here.
func (m *Mempool) Hole(producer wire.NodeID) *MissingRange {
	c := m.chains[producer]
	from := c.tip() + 1
	low := c.lowestBufferedAbove(from)
	if low == 0 {
		return nil
	}
	return &MissingRange{Producer: producer, From: from, To: low - 1}
}

// checkExisting handles a bundle at or below the chain tip: duplicate or
// equivocation.
func (m *Mempool) checkExisting(c *chain, b *Bundle) (AddResult, *ConflictEvidence, *MissingRange, error) {
	existing := c.at(b.Header.Height)
	if existing == nil {
		// Below base: already confirmed and pruned. Treat as duplicate.
		return Duplicate, nil, nil, nil
	}
	if existing.Header.Hash() == b.Header.Hash() {
		return Duplicate, nil, nil, nil
	}
	if existing.Header.Parent == b.Header.Parent {
		// Equivocation: same parent, different header (§III-A). Ban and
		// return evidence.
		ev := &ConflictEvidence{A: existing.Header, B: b.Header}
		m.Ban(b.Header.Producer, ev)
		return Conflicting, ev, nil, nil
	}
	return 0, nil, nil, ErrBadParent
}

// link appends a bundle at exactly tip+1 after structural checks.
func (m *Mempool) link(c *chain, b *Bundle) (AddResult, *ConflictEvidence, error) {
	parent := c.tipHeader()
	if parent == nil {
		// First bundle we hold. If the chain was never pruned, require a
		// genesis (zero parent); after pruning we accept the next height
		// with any parent hash consistency left to the confirmed prefix.
		if c.base == 0 && !b.Header.Parent.IsZero() {
			return 0, nil, ErrBadParent
		}
	} else {
		if b.Header.Parent != parent.Hash() {
			return 0, nil, ErrBadParent
		}
		if !TipList(b.Header.Tips).AtLeast(parent.Tips) {
			return 0, nil, ErrBadTips
		}
	}
	c.bundles = append(c.bundles, b)
	if b.Header.TxCount > 0 {
		m.liveTxBundles++
	}
	if m.onLink != nil {
		m.onLink(b)
	}
	return Added, nil, nil
}

// HasUnconfirmedPayload reports whether any non-banned chain holds
// unconfirmed bundles that carry transactions. It backs the engines'
// leader-suspicion logic and the heartbeat-bundle rule.
func (m *Mempool) HasUnconfirmedPayload() bool { return m.liveTxBundles > 0 }

// MarkConfirmed advances a chain's confirmed height (called at commit) and
// prunes bundles deeper than KeepConfirmed below it. Pruning clears the
// dropped slots (their bundles become collectable) and re-slices; the
// append that next outgrows the array compacts, copying only the live
// part — O(1) amortised, not O(KeepConfirmed) per commit.
func (m *Mempool) MarkConfirmed(producer wire.NodeID, height uint64) {
	c := m.chains[producer]
	if height > c.confirmed {
		c.confirmed = height
	}
	keep := uint64(m.params.KeepConfirmed)
	if c.confirmed > keep {
		newBase := c.confirmed - keep
		if newBase > c.base {
			drop := newBase - c.base
			if drop > uint64(len(c.bundles)) {
				drop = uint64(len(c.bundles))
				newBase = c.base + drop
			}
			clear(c.bundles[:drop])
			c.bundles = c.bundles[drop:]
			c.base = newBase
		}
	}
}

// ConfirmedHeight returns the confirmed height of one chain.
func (m *Mempool) ConfirmedHeight(producer wire.NodeID) uint64 {
	return m.chains[producer].confirmed
}

// Bases returns each chain's pruning base: heights at or below the base
// have been discarded and can no longer be served to peers.
func (m *Mempool) Bases() []uint64 {
	out := make([]uint64, len(m.chains))
	for i, c := range m.chains {
		out[i] = c.base
	}
	return out
}

// Head returns the committed head's height and hash: the last block
// committed or adopted (0 and the zero hash before the first).
func (m *Mempool) Head() (uint64, crypto.Hash) {
	if len(m.blocks) == 0 {
		return 0, crypto.ZeroHash
	}
	return m.blocks[len(m.blocks)-1].Height, m.headHash
}

// Block returns the kept committed block at height, or nil. A block is kept
// while none of its cuts is below its chain's pruning base, so the bundles
// its successors reference are held; the head is always kept.
func (m *Mempool) Block(height uint64) *PredisBlock {
	if len(m.blocks) == 0 || height < m.blocks[0].Height {
		return nil
	}
	if i := height - m.blocks[0].Height; i < uint64(len(m.blocks)) {
		return m.blocks[i]
	}
	return nil
}

// headCuts returns the head's cuts, the confirmed heights, in a scratch
// slice that the next call overwrites.
func (m *Mempool) headCuts() []uint64 {
	m.prev = m.prev[:0]
	for _, c := range m.chains {
		m.prev = append(m.prev, c.confirmed)
	}
	return m.prev
}

// ValidateNext runs ValidatePredisBlock for blk as the block after the head.
func (m *Mempool) ValidateNext(blk *PredisBlock) ([]MissingRange, error) {
	return m.ValidatePredisBlock(blk, m.headHash, m.headCuts())
}

// Commit applies the next committed block, which must extend the head. It
// returns the bundles the block newly confirms, in (chain, height) order
// (nil when some are not held), and releases their stripe sets, whose
// stripes have shipped. The returned slice is the mempool's scratch: it
// stays valid until the next Commit, so a caller that keeps the bundles
// copies them. The chains advance to the block's cuts and prune, the
// block becomes the head, and kept blocks leave from the front while any
// of their cuts is below its chain's pruning base.
func (m *Mempool) Commit(blk *PredisBlock) ([]*Bundle, error) {
	if height, hash := m.Head(); blk.Height != height+1 || blk.Parent != hash {
		return nil, fmt.Errorf("%w: block %d does not extend head %d", ErrBlockParent, blk.Height, height)
	}
	// The scratch holds no bundle past its block, a tail written by a cut
	// that found a bundle missing included.
	clear(m.committed[:cap(m.committed)])
	bundles := m.blockBundles(m.committed[:0], blk, m.headCuts())
	if bundles != nil {
		m.committed = bundles
	}
	for _, b := range bundles {
		b.SetStripeCache(nil)
	}
	for i, c := range blk.Cuts {
		ch := m.chains[i]
		if c.Height <= ch.confirmed {
			continue
		}
		for h := ch.confirmed + 1; h <= c.Height; h++ {
			if b := ch.at(h); b != nil && b.Header.TxCount > 0 {
				m.liveTxBundles--
			}
		}
		m.MarkConfirmed(wire.NodeID(i), c.Height)
	}
	m.blocks = append(m.blocks, blk)
	m.headHash = blk.Hash()
	drop := 0
	for drop < len(m.blocks)-1 && !m.holds(m.blocks[drop]) {
		drop++
	}
	clear(m.blocks[:drop])
	m.blocks = m.blocks[drop:]
	return bundles, nil
}

// holds reports whether no chain is pruned past its cut in blk.
func (m *Mempool) holds(blk *PredisBlock) bool {
	for i, c := range blk.Cuts {
		if c.Height < m.chains[i].base {
			return false
		}
	}
	return true
}

// FastForward adopts a snapshot anchor above the head: it becomes the head
// and the only kept block. For every producer whose cut lies beyond the
// locally held tip, the chain resets to an empty pruned state at the cut
// (base = confirmed = cut); chains already at or past the cut are only
// marked confirmed. A node whose downtime exceeded its peers' bundle
// retention uses this to resume from a recent block's cuts instead of
// replaying bodies the network no longer holds (§III-D pruning: confirmed
// bundles eventually leave every hot store, exactly like a pruning full
// node's history gap).
func (m *Mempool) FastForward(anchor *PredisBlock) {
	if height, _ := m.Head(); anchor.Height <= height || len(anchor.Cuts) != len(m.chains) {
		return
	}
	for i, c := range m.chains {
		cut := anchor.Cuts[i].Height
		if cut > c.tip() {
			m.reset(i, cut)
		}
		if cut > c.confirmed {
			c.confirmed = cut
		}
	}
	clear(m.blocks)
	m.blocks = append(m.blocks[:0], anchor)
	m.headHash = anchor.Hash()
}

// reset empties chain i at cut, above its tip: base = cut, and what is
// parked at or below cut goes.
func (m *Mempool) reset(i int, cut uint64) {
	c := m.chains[i]
	// Unconfirmed payload bundles being skipped leave the pending count
	// (banned chains were already discounted by Ban).
	if !m.banned[i] {
		for h := c.confirmed + 1; h <= c.tip(); h++ {
			if b := c.at(h); b != nil && b.Header.TxCount > 0 {
				m.liveTxBundles--
			}
		}
	}
	c.bundles = nil
	c.base = cut
	for ph, b := range c.buffered {
		if b.Header.Height <= cut {
			delete(c.buffered, ph)
		}
	}
}

// SkipTo gives up producer's heights up to height when its tip is below,
// as FastForward does at an anchor's cut: the chain restarts empty at
// height, which counts as confirmed, and the bundle parked at height+1
// links, with the run parked above it (of two parked there, which only an
// equivocating producer makes, the lower hash). A shared-mempool baseline,
// which commits no blocks to anchor on, resumes with it a chain whose hole
// every holder has pruned.
func (m *Mempool) SkipTo(producer wire.NodeID, height uint64) {
	c := m.chains[producer]
	if height <= c.tip() {
		return
	}
	m.reset(int(producer), height)
	c.confirmed = height
	var next *Bundle
	var low crypto.Hash
	for _, b := range c.buffered {
		if h := b.Header.Hash(); b.Header.Height == height+1 && (next == nil || bytes.Compare(h[:], low[:]) < 0) {
			next, low = b, h
		}
	}
	if next != nil {
		delete(c.buffered, next.Header.Parent)
		m.AddBundle(next)
	}
}

// Range returns the bundles (from, to] on a chain if all are present,
// otherwise nil.
func (m *Mempool) Range(producer wire.NodeID, from, to uint64) []*Bundle {
	c := m.chains[producer]
	if from > to || to > c.tip() || from < c.base {
		return nil
	}
	out := make([]*Bundle, 0, to-from)
	for h := from + 1; h <= to; h++ {
		b := c.at(h)
		if b == nil {
			return nil
		}
		out = append(out, b)
	}
	return out
}

// LowestBuffered returns the lowest height parked out of order on a chain
// (0 when nothing is): the hole above the tip ends just below it, and a
// fetch that ran past it would ask for bundles already held.
func (m *Mempool) LowestBuffered(producer wire.NodeID) uint64 {
	return m.chains[producer].lowestBufferedAbove(0)
}

// lowestBufferedAbove returns the lowest buffered height above h (0 when
// there is none).
func (c *chain) lowestBufferedAbove(h uint64) uint64 {
	var low uint64
	for _, b := range c.buffered {
		if bh := b.Header.Height; bh > h && (low == 0 || bh < low) {
			low = bh
		}
	}
	return low
}

// BufferedCount returns how many out-of-order bundles are parked on a
// chain (diagnostics).
func (m *Mempool) BufferedCount(producer wire.NodeID) int {
	return len(m.chains[producer].buffered)
}
