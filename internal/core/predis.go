package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// FaultMode selects a Byzantine behaviour for fault-injection experiments
// (Fig. 6).
type FaultMode int

// Fault modes.
const (
	// FaultNone is honest behaviour.
	FaultNone FaultMode = iota
	// FaultSilent reproduces Fig. 6 case 1: the node neither produces
	// bundles nor votes.
	FaultSilent
	// FaultPartial reproduces Fig. 6 case 2: the node refuses to vote and
	// sends each bundle to a random subset of n_c−f−1 peers, so the
	// remaining nodes must fetch the missing bundles.
	FaultPartial
)

// Options configures a Predis instance (the active component wrapping a
// Mempool).
type Options struct {
	// Params are the data-structure parameters.
	Params Params
	// Self is this consensus node's ID (= chain index).
	Self wire.NodeID
	// Peers lists all consensus node IDs, including Self.
	Peers []wire.NodeID
	// OnCommit, when non-nil, receives every committed block in order.
	OnCommit func(CommitInfo)
	// StripeRoot, when non-nil, computes the stripe Merkle root of a
	// bundle body so it can be committed in the header before signing
	// (Multi-Zone: full nodes verify stripes against it).
	StripeRoot func(txs []*types.Transaction) crypto.Hash
	// OnBundleStored, when non-nil, fires for every bundle that links
	// into the mempool (own and peer bundles alike); Multi-Zone ships
	// stripes to full nodes from here.
	OnBundleStored func(b *Bundle)
	// Fault selects a Byzantine behaviour.
	Fault FaultMode
	// Stream enables streaming commit mode (StreamChain-style): every
	// submitted transaction seals into a bundle immediately instead of
	// waiting for the BundleInterval tick, and proposals cut chains at
	// this node's own tips, the cutting rule at a quorum of one, instead of
	// waiting for n_c−f receipt confirmations through the tip matrix.
	// Under a paced engine sealing rides on its proposals instead (see
	// SubmitTx), and under a chained one proposers drain (see
	// BuildProposal); consensus.Cadence says which. Off (the default)
	// reproduces block mode byte-for-byte.
	Stream bool
	// Trace, when non-nil, records the bundle_sealed lifecycle stage
	// (first queued transaction → bundle packed and signed). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
}

// CommitInfo describes one committed Predis block.
type CommitInfo struct {
	Height uint64
	Block  *PredisBlock
	Txs    []*types.Transaction
}

// Predis is the per-node data production component (§III). It owns the
// mempool, packs and disseminates bundles, serves and issues bundle
// fetches, maintains the ban list, and implements consensus.Application so
// a BFT engine can order Predis blocks.
//
// It must be driven from a single serialized executor (env contract).
type Predis struct {
	opts Options
	ctx  env.Context
	mp   *Mempool

	queue []*types.Transaction
	// queueTimes parallels queue with each transaction's enqueue time, so
	// the bundle_sealed span can start at the first queued transaction.
	queueTimes     []time.Time
	produceTimer   env.Timer
	lastAdvertised TipList
	// sealed: a payload bundle was sealed since the last proposal this
	// node built or validated. sealLater is sealQueue bound once, as the
	// zero-delay timer callback.
	sealed    bool
	sealLater func()
	// quorum is the cutting rule's: n_c−f, or 1 in stream mode. paced and
	// drain are stream mode under a paced or a chained engine (SetEngine).
	quorum       int
	paced, drain bool

	// fetch asks for the bundles this node misses (fetch.go).
	fetch *FetchPlane
	// retry is the shared backoff policy for missing-bundle fetches and
	// catch-up rounds: env.DefaultBackoff(2×BundleInterval).
	retry env.Backoff

	// catchup recovers the blocks this node missed, and serves its peers'
	// (catchup.go, recovery.go).
	catchup *Catchup

	engine consensus.Engine

	// stats; bundlesSealed counts payload bundles and sealWait sums the
	// wait of their first queued transactions.
	bundlesProduced uint64
	bundlesAccepted uint64
	txsCommitted    uint64
	bundlesSealed   uint64
	sealWait        time.Duration
}

var _ consensus.Application = (*Predis)(nil)

// NewPredis builds the component; call Start before use and SetEngine once
// the consensus engine exists.
func NewPredis(opts Options) (*Predis, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Peers) != opts.Params.NC {
		return nil, fmt.Errorf("core: %d peers for NC=%d", len(opts.Peers), opts.Params.NC)
	}
	mp, err := NewMempool(opts.Params)
	if err != nil {
		return nil, err
	}
	if opts.OnBundleStored != nil {
		mp.SetOnLink(opts.OnBundleStored)
	}
	p := &Predis{
		opts:   opts,
		mp:     mp,
		quorum: opts.Params.NC - opts.Params.F,
		retry:  env.DefaultBackoff(2 * opts.Params.BundleInterval),
	}
	if opts.Stream {
		p.quorum = 1
	}
	p.fetch = NewFetchPlane(mp, p.retry, p.holders)
	p.catchup = NewCatchup(mp, p.retry, p.catchupOwner())
	return p, nil
}

// Mempool exposes the underlying mempool (read-mostly; external mutation
// is limited to Ban/Unban).
func (p *Predis) Mempool() *Mempool { return p.mp }

// SetEngine wires the consensus engine for Poke notifications; in stream
// mode its cadence decides how sealing is clocked and whether proposers
// drain.
func (p *Predis) SetEngine(e consensus.Engine) {
	p.engine = e
	if c, ok := e.(consensus.Cadence); ok && p.opts.Stream {
		p.paced, p.drain = c.Paced(), c.Chained()
	}
}

// Stats returns (bundles produced, bundles accepted from peers, txs
// committed).
func (p *Predis) Stats() (produced, accepted, committed uint64) {
	return p.bundlesProduced, p.bundlesAccepted, p.txsCommitted
}

// Seals returns the payload bundles this node sealed and the summed time
// their first transactions waited in the queue (heartbeat bundles carry
// no payload and count in neither).
func (p *Predis) Seals() (sealed uint64, wait time.Duration) {
	return p.bundlesSealed, p.sealWait
}

// PullStats returns the fetch plane's counters (see FetchPlane.PullStats).
func (p *Predis) PullStats() (requests, bundles, suppressed, retries uint64) {
	return p.fetch.PullStats()
}

// QueueLen returns the number of transactions awaiting bundling.
func (p *Predis) QueueLen() int { return len(p.queue) }

// LastHeight returns the height of the mempool's committed head (an engine
// commit, a catch-up replay or an adopted anchor).
func (p *Predis) LastHeight() uint64 {
	head, _ := p.mp.Head()
	return head
}

// Start arms the bundle production timer.
func (p *Predis) Start(ctx env.Context) {
	p.ctx = ctx
	p.fetch.Start(ctx)
	p.catchup.Start(ctx)
	p.sealLater = p.sealQueue
	p.armProduceTimer()
}

func (p *Predis) armProduceTimer() {
	if p.opts.Fault == FaultSilent {
		return
	}
	p.produceTimer = p.ctx.After(p.mp.params.BundleInterval, func() {
		p.produceBundle()
		p.armProduceTimer()
	})
}

// SubmitTx enqueues a client transaction for bundling; full bundles are
// emitted immediately (without waiting for the interval timer). In stream
// mode a submission seals on arrival — the bundle-chain cursor advances at
// transaction granularity — unless the engine is paced and this node
// already sealed since the last proposal: then it waits for the next one
// (proposalSeen), a full bundle, or the tick. Bundle size is then 1 when
// idle and grows with load.
func (p *Predis) SubmitTx(tx *types.Transaction) {
	if p.opts.Fault == FaultSilent {
		return
	}
	p.queue = append(p.queue, tx)
	p.queueTimes = append(p.queueTimes, p.ctx.Now())
	if p.opts.Stream && !(p.paced && p.sealed) {
		p.sealQueue()
		return
	}
	for len(p.queue) >= p.mp.params.BundleSize {
		p.produceBundle()
	}
}

// sealQueue seals everything queued.
func (p *Predis) sealQueue() {
	for len(p.queue) > 0 {
		p.produceBundle()
	}
}

// proposalSeen runs for every block this node built or validated. Under a
// paced engine it opens the next sealing slot. What is
// queued seals from a zero-delay timer, so the leader's engine is not
// re-entered mid-proposal. (The vote no longer needs the head start: it
// takes the uplink's consensus lane and never waits behind bundle bytes.)
//
//predis:hotpath
func (p *Predis) proposalSeen() {
	p.sealed = false
	if p.paced && len(p.queue) > 0 {
		p.ctx.After(0, p.sealLater)
	}
}

// HasPendingWork implements consensus.WorkReporter: there is work when
// transactions await bundling or unconfirmed non-empty bundles exist.
func (p *Predis) HasPendingWork() bool {
	return len(p.queue) > 0 || p.mp.HasUnconfirmedPayload()
}

// produceBundle packs the next bundle from the queue and disseminates it.
// With an empty queue it may emit an empty *heartbeat* bundle: tip lists
// ride on bundles, so confirming the tail of traffic requires one more
// round of tip exchange (§III-F: only bundles produced 2·ls earlier can be
// cut). Heartbeats are emitted only while unconfirmed payload exists and
// our advertised tips are stale, so an idle network quiesces.
func (p *Predis) produceBundle() {
	if p.opts.Fault == FaultSilent {
		return
	}
	if len(p.queue) == 0 {
		if !p.mp.HasUnconfirmedPayload() {
			return
		}
		tips := p.mp.Tips()
		if tipsEqual(tips, p.lastAdvertised) {
			return
		}
	}
	n := p.mp.params.BundleSize
	if n > len(p.queue) {
		n = len(p.queue)
	}
	// The bundle owns its slice; the queue keeps its arrays, index-aligned.
	txs := slices.Clone(p.queue[:n])
	var firstQueued time.Time
	if n > 0 {
		firstQueued = p.queueTimes[0]
		p.sealed = true
		p.queue = slices.Delete(p.queue, 0, n)
		p.queueTimes = slices.Delete(p.queueTimes, 0, n)
	}

	tips := p.mp.Tips()
	parent := p.mp.TipHeader(p.opts.Self)
	tips[p.opts.Self]++ // the producer holds the bundle it is creating
	stripeRoot := crypto.ZeroHash
	if p.opts.StripeRoot != nil {
		stripeRoot = p.opts.StripeRoot(txs)
	}
	b := PackBundleStriped(p.mp.params.Signer, p.opts.Self, parent, txs, tips, stripeRoot)
	// Self-insertion skips signature/body verification.
	if _, _, _, err := p.mp.AddBundle(b, false); err != nil {
		p.ctx.Logf("predis: self bundle rejected: %v", err)
		return
	}
	p.bundlesProduced++
	if n > 0 {
		// bundle_sealed: first queued transaction → bundle packed and
		// signed. Heartbeat bundles carry no payload and record nothing.
		now := p.ctx.Now()
		p.opts.Trace.Span(obs.StageBundleSealed,
			obs.BundleKey(p.opts.Self, b.Header.Height), p.opts.Self, firstQueued, now)
		p.bundlesSealed++
		p.sealWait += now.Sub(firstQueued)
	}
	p.lastAdvertised = b.Header.Tips // private to the sealed header, which is immutable
	p.disseminate(b)
	p.poke()
}

func tipsEqual(a, b TipList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (p *Predis) disseminate(b *Bundle) {
	msg := &BundleMsg{Bundle: b}
	if p.opts.Fault == FaultPartial {
		// Send to a random subset of n_c−f−1 peers (Fig. 6 case 2).
		k := p.mp.params.NC - p.mp.params.F - 1
		perm := p.ctx.Rand().Perm(len(p.opts.Peers))
		sent := 0
		for _, idx := range perm {
			peer := p.opts.Peers[idx]
			if peer == p.opts.Self || sent >= k {
				continue
			}
			p.ctx.Send(peer, msg)
			sent++
		}
		return
	}
	env.Multicast(p.ctx, p.opts.Peers, msg)
}

// Receive handles Predis data-plane messages. The node layer routes
// messages of core types here.
func (p *Predis) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *BundleMsg:
		p.onBundle(from, msg.Bundle)
	case *BundleRequest:
		ServeBundles(p.ctx, p.mp, from, msg)
	case *BundleResponse:
		fresh := false
		for _, b := range msg.Bundles {
			fresh = p.onBundle(from, b) || fresh
		}
		p.fetch.Answered(from, msg.Bundles, fresh)
	case *ConflictEvidence:
		p.onEvidence(from, msg)
	case *CatchupRequest:
		p.catchup.ServeBlocks(from, msg)
	case *CatchupResponse:
		p.catchup.Answered(from, msg)
	default:
		p.ctx.Logf("predis: unexpected message %s from %d", wire.TypeName(m.Type()), from)
	}
}

// onBundle stores a peer's bundle and reports whether it linked into its
// chain.
func (p *Predis) onBundle(from wire.NodeID, b *Bundle) bool {
	res, ev, miss, err := p.mp.AddBundle(b, true)
	switch {
	case err != nil:
		if !errors.Is(err, ErrBannedProducer) {
			p.ctx.Logf("predis: bundle from %d rejected: %v", from, err)
		}
	case res == Conflicting:
		// Spread the evidence so every honest node bans the producer.
		env.Multicast(p.ctx, p.opts.Peers, ev)
	case res == Buffered:
		p.need(miss)
	case res == Added:
		p.bundlesAccepted++
		// The run linked up to the next hole, if bundles wait above one.
		p.need(p.mp.Hole(b.Header.Producer))
		// A catch-up block may have been waiting on this body.
		p.advanceCatchup()
		p.poke()
		return true
	}
	return false
}

func (p *Predis) onEvidence(from wire.NodeID, ev *ConflictEvidence) {
	producer := ev.A.Producer
	if p.mp.Banned(producer) {
		return // already known; do not re-flood
	}
	if !ev.Verify(p.mp.params.Signer) {
		p.ctx.Logf("predis: bogus conflict evidence from %d", from)
		return
	}
	p.mp.Ban(producer, ev)
	env.Multicast(p.ctx, p.opts.Peers, ev)
}

// need states a missing range to the fetch plane (nil: nothing missing).
func (p *Predis) need(miss *MissingRange) {
	if miss != nil {
		p.fetch.Need(miss.Producer, miss.To, wire.NoNode, wire.NoNode)
	}
}

// holders is a consensus node's rotation for producer's bundles: the
// producer, the one node certain to hold them; then the peers whose
// advertised tip lists prove they hold the next missing height (§III-D: the
// cutting rule leaves n_c−2f honest holders); then the rest, each group in
// ring order from the producer. Tips ride on bundles and can lag the
// bundles themselves, so an unproven peer may hold them too.
func (p *Predis) holders(producer, _, _ wire.NodeID) []wire.NodeID {
	nc := p.mp.params.NC
	need := p.mp.Tip(producer) + 1
	out := make([]wire.NodeID, 0, nc)
	if producer != p.opts.Self {
		out = append(out, producer)
	}
	for _, proven := range []bool{true, false} {
		for i := 1; i < nc; i++ {
			id := wire.NodeID((int(producer) + i) % nc)
			th := p.mp.TipHeader(id)
			if id != p.opts.Self && (th != nil && th.Tips[producer] >= need) == proven {
				out = append(out, id)
			}
		}
	}
	return out
}

func (p *Predis) poke() {
	if p.engine != nil {
		p.engine.Poke()
	}
}

// --- consensus.Application ---

// parentState resolves the baseline cut vector and parent hash from a
// parent payload (nil = genesis).
func (p *Predis) parentState(parent wire.Message) ([]uint64, crypto.Hash, error) {
	if parent == nil {
		return ZeroCuts(p.mp.params.NC), crypto.ZeroHash, nil
	}
	pb, ok := parent.(*PredisBlock)
	if !ok {
		return nil, crypto.ZeroHash, fmt.Errorf("%w: parent payload is %T", ErrBlockShape, parent)
	}
	return pb.CutHeights(), pb.Hash(), nil
}

// BuildProposal implements consensus.Application: cut the chains relative
// to the parent block at this node's quorum and pack a Predis block. Under
// a chained engine in stream mode it emits empty drain blocks while
// proposed cuts await commit.
func (p *Predis) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	if p.opts.Fault != FaultNone {
		return nil, crypto.ZeroHash, false
	}
	prev, parentHash, err := p.parentState(parent)
	if err != nil {
		p.ctx.Logf("predis: build: %v", err)
		return nil, crypto.ZeroHash, false
	}
	drain := p.drain && p.cutsAhead(prev)
	blk, ok := p.mp.BuildPredisBlock(height, parentHash, prev, p.opts.Self, p.quorum, drain)
	if !ok {
		return nil, crypto.ZeroHash, false
	}
	p.proposalSeen()
	return blk, blk.Hash(), true
}

// cutsAhead reports whether the parent chain's cuts confirm bundles the
// committed state has not: the drain gate. While true, the tail of
// ordered-but-uncommitted traffic still needs follow-up blocks to push a
// chained engine's commit rule over it; once committed cuts catch up the
// network quiesces (drain blocks themselves never advance cuts, so they
// cannot re-arm the gate).
func (p *Predis) cutsAhead(prev []uint64) bool {
	for i, c := range p.mp.chains {
		if prev[i] > c.confirmed {
			return true
		}
	}
	return false
}

// ValidateProposal implements consensus.Application.
func (p *Predis) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	if p.opts.Fault != FaultNone {
		// Faulty replicas refuse to vote (Fig. 6).
		return crypto.ZeroHash, errors.New("core: faulty replica refuses to vote")
	}
	blk, ok := payload.(*PredisBlock)
	if !ok {
		return crypto.ZeroHash, fmt.Errorf("%w: payload is %T", ErrBlockShape, payload)
	}
	if blk.Height != height {
		return crypto.ZeroHash, fmt.Errorf("%w: block height %d, consensus height %d",
			ErrBlockShape, blk.Height, height)
	}
	prev, parentHash, err := p.parentState(parent)
	if err != nil {
		return crypto.ZeroHash, err
	}
	missing, err := p.mp.ValidatePredisBlock(blk, parentHash, prev)
	if errors.Is(err, ErrBlockMissing) {
		for i := range missing {
			p.need(&missing[i])
		}
		return crypto.ZeroHash, consensus.ErrPending
	}
	if err != nil {
		return crypto.ZeroHash, err
	}
	p.proposalSeen()
	return blk.Hash(), nil
}

// OnCommit implements consensus.Application.
func (p *Predis) OnCommit(height uint64, payload wire.Message) {
	blk, ok := payload.(*PredisBlock)
	if !ok {
		p.ctx.Logf("predis: commit with payload %T", payload)
		return
	}
	if head, _ := p.mp.Head(); height <= head {
		// Already applied (catch-up can race a commit quorum that finished
		// while we were replaying); commits are idempotent by height.
		return
	}
	p.commitBlock(blk)
	p.poke()
}

// commitBlock applies one committed block through the mempool, which
// refuses a block that does not extend its head: the shared tail of the
// engine commit path and the catch-up replay path.
func (p *Predis) commitBlock(blk *PredisBlock) {
	bundles, err := p.mp.Commit(blk)
	if err != nil {
		p.ctx.Logf("predis: commit refused: %v", err)
		return
	}
	txs := BlockTxs(bundles)
	p.txsCommitted += uint64(len(txs))
	if p.opts.OnCommit != nil {
		p.opts.OnCommit(CommitInfo{Height: blk.Height, Block: blk, Txs: txs})
	}
}
