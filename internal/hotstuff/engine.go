package hotstuff

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/wire"
)

// Config parameterizes an Engine.
type Config struct {
	// N is the number of replicas; IDs must be 0..N-1.
	N int
	// Self is this replica's ID.
	Self wire.NodeID
	// App supplies and consumes payloads.
	App consensus.Application
	// Signer signs and verifies protocol messages.
	Signer crypto.Signer
	// ViewTimeout is the base pacemaker timeout; it doubles per
	// consecutive timeout, up to 16 × ViewTimeout. Default 2s.
	ViewTimeout time.Duration
	// Trace, when non-nil, records the block_proposed (proposal learned →
	// QC formed) and prepare_commit (QC → execution) lifecycle stages on
	// this replica's timeline. Nil disables tracing.
	Trace *obs.Tracer
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ViewTimeout <= 0 {
		out.ViewTimeout = 2 * time.Second
	}
	return out
}

// blockEnt is a node in the local block tree.
type blockEnt struct {
	block     *Block
	hash      crypto.Hash
	validated bool
	invalid   bool
	committed bool
}

// Engine is a chained-HotStuff replica implementing consensus.Engine.
type Engine struct {
	cfg Config
	ctx env.Context
	f   int
	quo int

	curView       uint64
	lastVotedView uint64
	highQC        *QC
	lockedQC      *QC

	blocks map[crypto.Hash]*blockEnt

	// pendingVotes holds, in (view, hash) order, the blocks of the tree a
	// vote may still be owed to (see awaitsVote); every proposal enters it
	// and retryPendingVotes drops what stopped qualifying. voteScratch is
	// the walk's snapshot buffer.
	pendingVotes []*blockEnt
	voteScratch  []*blockEnt

	// execHead is the hash of the last executed block; execHeight its
	// height. Committed-but-unexecuted blocks (pending app validation)
	// queue behind it in chain order.
	execHead   crypto.Hash
	execHeight uint64

	// commitQueue holds committed blocks awaiting execution, oldest first.
	commitQueue []*blockEnt

	// votes collected by this replica as next leader, per block hash.
	votes map[crypto.Hash]*QC // keyed by voteDigest(view, block)

	// newViews collected per view.
	newViews map[uint64]map[wire.NodeID]*QC

	proposedInView uint64 // last view in which we proposed

	// seenProp records the first authenticated proposal block per view; a
	// second distinct leader-signed block, or a QC certifying a different
	// block of the view, is equivocation evidence.
	seenProp map[uint64]*Block
	// evidenced marks views whose equivocation this replica has proven,
	// so one attack counts (and broadcasts) once.
	evidenced map[uint64]bool

	// pacemaker is the one liveness timer, the view timer; pacemakerFire
	// is its callback, bound once. At most one is pending: armPacemaker
	// stops a live one, and a view change restarts it.
	pacemaker     env.Timer
	pacemakerFire func()
	backoff       int

	peers []wire.NodeID

	// stats
	committed     uint64
	timeouts      uint64
	equivocations uint64
}

var _ consensus.Engine = (*Engine)(nil)

// New builds a HotStuff replica.
func New(cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	if c.N < 1 || int(c.Self) >= c.N {
		return nil, fmt.Errorf("hotstuff: bad N=%d Self=%d", c.N, c.Self)
	}
	if c.App == nil || c.Signer == nil {
		return nil, errors.New("hotstuff: App and Signer are required")
	}
	peers := make([]wire.NodeID, c.N)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	e := &Engine{
		cfg:       c,
		f:         consensus.FaultBound(c.N),
		quo:       consensus.Quorum(c.N),
		curView:   1,
		highQC:    GenesisQC(),
		lockedQC:  GenesisQC(),
		blocks:    make(map[crypto.Hash]*blockEnt),
		votes:     make(map[crypto.Hash]*QC),
		newViews:  make(map[uint64]map[wire.NodeID]*QC),
		seenProp:  make(map[uint64]*Block),
		evidenced: make(map[uint64]bool),
		peers:     peers,
	}
	// Seed the tree with the implicit genesis block.
	e.blocks[crypto.ZeroHash] = &blockEnt{
		block:     &Block{Height: 0, View: 0, Justify: GenesisQC()},
		hash:      crypto.ZeroHash,
		validated: true,
		committed: true,
	}
	return e, nil
}

// View returns the current view.
func (e *Engine) View() uint64 { return e.curView }

// LastExecuted returns the height of the last executed block.
func (e *Engine) LastExecuted() uint64 { return e.execHeight }

// Stats returns (blocks committed, pacemaker timeouts).
func (e *Engine) Stats() (committed, timeouts uint64) { return e.committed, e.timeouts }

// Equivocations returns how many leader equivocations this replica has
// proven, first-hand or through received evidence.
func (e *Engine) Equivocations() uint64 { return e.equivocations }

// Paced implements consensus.Engine: a leader proposes as soon as the
// previous block's QC forms.
func (e *Engine) Paced() bool { return false }

// Chained implements consensus.Engine: a block commits once a three-chain
// of descendants certifies it.
func (e *Engine) Chained() bool { return true }

// Leader returns the leader of the current view.
func (e *Engine) Leader() wire.NodeID { return consensus.LeaderOf(e.curView, e.cfg.N) }

func (e *Engine) leaderOf(view uint64) wire.NodeID { return consensus.LeaderOf(view, e.cfg.N) }

func (e *Engine) isLeader() bool { return e.Leader() == e.cfg.Self }

// Start implements env.Handler.
func (e *Engine) Start(ctx env.Context) {
	e.ctx = ctx
	e.pacemakerFire = e.onPacemaker
	e.tryPropose()
}

// Poke implements consensus.Engine.
func (e *Engine) Poke() {
	if e.ctx == nil {
		return
	}
	e.tryExecute()
	e.retryPendingVotes()
	e.tryPropose()
	if e.pacemaker == nil && e.cfg.App.HasPendingWork() {
		e.armPacemaker()
	}
}

// armPacemaker (re)arms the view timer for the current backoff, capped
// at 16 × ViewTimeout and without jitter, so it draws no Rand; a live
// one is stopped first, so the handle is the only timer pending.
//
//predis:hotpath
func (e *Engine) armPacemaker() {
	e.resetPacemaker()
	d := env.Backoff{Base: e.cfg.ViewTimeout, Max: 16 * e.cfg.ViewTimeout}.Delay(e.backoff, nil)
	e.pacemaker = e.ctx.After(d, e.pacemakerFire)
}

// onPacemaker is the view timer: no progress in this view, with work
// pending, times it out. A timer pending at a view change is restarted,
// so the one that fires belongs to the current view.
//
//predis:coldpath
func (e *Engine) onPacemaker() {
	e.pacemaker = nil
	if e.hasWork() {
		e.onTimeout()
	}
}

func (e *Engine) resetPacemaker() {
	if e.pacemaker != nil {
		e.pacemaker.Stop()
		e.pacemaker = nil
	}
}

// restartPacemaker starts the view timer afresh while work is pending and
// stops it otherwise: a new view or a commit is progress.
func (e *Engine) restartPacemaker() {
	e.resetPacemaker()
	if e.hasWork() {
		e.armPacemaker()
	}
}

// hasWork reports whether the application or the commit queue still
// waits on consensus.
func (e *Engine) hasWork() bool {
	return e.cfg.App.HasPendingWork() || len(e.commitQueue) > 0
}

// onTimeout advances the view and tells the new leader.
func (e *Engine) onTimeout() {
	e.timeouts++
	e.backoff++
	e.advanceView(e.curView + 1)
	nv := &NewViewMsg{View: e.curView, HighQC: e.highQC, Replica: e.cfg.Self}
	nv.Sig = e.cfg.Signer.Sign(nv.signDigest())
	leader := e.Leader()
	if leader == e.cfg.Self {
		e.onNewView(e.cfg.Self, nv)
	} else {
		e.ctx.Send(leader, nv)
	}
}

// advanceView moves to the given view (monotonic) and re-arms the
// pacemaker when work remains.
func (e *Engine) advanceView(view uint64) {
	if view <= e.curView {
		return
	}
	e.curView = view
	e.restartPacemaker()
}

// tryPropose proposes in the current view when this replica leads it and
// has not proposed yet. The new block extends highQC's block.
func (e *Engine) tryPropose() {
	if e.ctx == nil || !e.isLeader() || e.proposedInView >= e.curView {
		return
	}
	// Liveness precondition: leading view v requires either the QC of
	// v−1 or a quorum of NewView(v) messages.
	if !(e.highQC.View == e.curView-1 || len(e.newViews[e.curView]) >= e.quo) {
		return
	}
	parentEnt := e.blocks[e.highQC.Block]
	if parentEnt == nil {
		return // should not happen: highQC implies we saw the block
	}
	height := parentEnt.block.Height + 1
	payload, _, ok := e.cfg.App.BuildProposal(height, parentEnt.block.Payload)
	if !ok {
		return
	}
	b := &Block{
		Height:  height,
		View:    e.curView,
		Parent:  e.highQC.Block,
		Justify: e.highQC,
		Payload: payload,
		Leader:  e.cfg.Self,
	}
	b.Sig = b.auth.Sign(e.cfg.Signer, int(e.cfg.Self), b.Hash())
	e.proposedInView = e.curView
	prop := &Proposal{Block: b}
	env.Multicast(e.ctx, e.peers, prop)
	e.onProposal(e.cfg.Self, prop)
}

// Receive implements env.Handler.
func (e *Engine) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *Proposal:
		e.onProposal(from, msg)
	case *Vote:
		e.onVote(from, msg)
	case *NewViewMsg:
		e.onNewView(from, msg)
	case *Evidence:
		e.onEvidence(from, msg)
	default:
		e.ctx.Logf("hotstuff: unexpected message %s from %d", wire.TypeName(m.Type()), from)
	}
}

func (e *Engine) onProposal(from wire.NodeID, m *Proposal) {
	b := m.Block
	if b.Leader != e.leaderOf(b.View) || (from != b.Leader && from != e.cfg.Self) {
		return
	}
	hash := b.Hash()
	if _, seen := e.blocks[hash]; seen {
		return
	}
	if !b.auth.Verify(e.cfg.Signer, int(b.Leader), hash, b.Sig) {
		return
	}
	// Record the first authenticated proposal per view — before the
	// justify/parent checks, so a forged variant that cannot extend the
	// chain is still remembered as the leader's signed word. A second,
	// distinct leader-signed block for the view is first-hand proof of
	// equivocation.
	if prev, ok := e.seenProp[b.View]; ok {
		if prev.Hash() != hash {
			e.foundEquivocation(b.View, b.Leader, prev, b)
			return
		}
	} else {
		e.seenProp[b.View] = b
	}
	if !b.Justify.Verify(e.cfg.Signer, e.cfg.N, e.quo) {
		return
	}
	if b.Justify.Block != b.Parent {
		return // a block must extend the block its QC certifies
	}
	parent, ok := e.blocks[b.Parent]
	if !ok || b.Height != parent.block.Height+1 {
		// Unknown parent (we fell behind): without it the proposal cannot
		// be validated, so it is dropped, and nothing fetches the parent
		// (ROADMAP item 8(b)).
		return
	}
	ent := &blockEnt{block: b, hash: hash}
	e.blocks[hash] = ent
	e.addPendingVote(ent)

	// block_proposed: this replica learned an authenticated proposal for
	// the height (first learn wins).
	e.cfg.Trace.Begin(obs.StageBlockProposed, obs.BlockKey(b.Height), e.cfg.Self, e.ctx.Now())
	e.processQC(b.Justify)
	e.advanceView(b.View) // seeing a valid proposal for view v synchronizes us into it
	e.tryVote(ent)
	e.tryPropose() // the parent we were waiting for may have arrived
}

// tryVote applies the chained-HotStuff voting rule and the application's
// semantic validation; on success it sends a vote to the next leader.
func (e *Engine) tryVote(ent *blockEnt) {
	b := ent.block
	if b.View < e.curView || b.View <= e.lastVotedView || ent.invalid {
		return
	}
	// Safety rule: extend the locked block, or see a higher QC.
	if !(b.Justify.View > e.lockedQC.View || e.extendsLocked(b)) {
		return
	}
	if !ent.validated {
		parent := e.blocks[b.Parent]
		if parent == nil {
			return
		}
		_, err := e.cfg.App.ValidateProposal(b.Height, b.Payload, parent.block.Payload)
		switch {
		case err == nil:
			ent.validated = true
		case errors.Is(err, consensus.ErrPending):
			return // Poke retries via retryPendingVotes
		default:
			ent.invalid = true
			return
		}
	}
	e.lastVotedView = b.View
	vote := &Vote{View: b.View, Block: ent.hash, Replica: e.cfg.Self}
	vote.Sig = e.cfg.Signer.Sign(voteDigest(vote.View, vote.Block))
	next := e.leaderOf(b.View + 1)
	if next == e.cfg.Self {
		e.onVote(e.cfg.Self, vote)
	} else {
		e.ctx.Send(next, vote)
	}
}

// awaitsVote reports whether a vote may still be owed to ent: it sits in
// the tree unvalidated, undecided and uncommitted, in a view that has not
// passed. Every clause is monotone — once false it stays false.
func (e *Engine) awaitsVote(ent *blockEnt) bool {
	return !ent.validated && !ent.invalid && !ent.committed &&
		ent.block.View >= e.curView && e.blocks[ent.hash] == ent
}

// addPendingVote files a new tree entry in (view, hash) order; proposals
// arrive in view order, so the scan from the back ends at once.
func (e *Engine) addPendingVote(ent *blockEnt) {
	i := len(e.pendingVotes)
	for i > 0 {
		p := e.pendingVotes[i-1]
		if p.block.View < ent.block.View ||
			(p.block.View == ent.block.View && bytes.Compare(p.hash[:], ent.hash[:]) < 0) {
			break
		}
		i--
	}
	e.pendingVotes = append(e.pendingVotes, nil)
	copy(e.pendingVotes[i+1:], e.pendingVotes[i:])
	e.pendingVotes[i] = ent
}

// retryPendingVotes revisits blocks whose validation was pending (missing
// bundles) and votes if the view is still current. It runs on every Poke —
// once per stored bundle — and with nothing pending it is one length check.
//
//predis:hotpath
func (e *Engine) retryPendingVotes() {
	if len(e.pendingVotes) > 0 {
		e.votePending()
	}
}

// votePending drops the entries that stopped qualifying and offers the
// rest to tryVote in (view, hash) order, so map iteration never affects
// the wire. A vote can commit, and a commit re-enters Poke, so the walk is
// over a snapshot: the scratch buffer is taken for the duration, and only
// a nested walk that still finds something pending allocates its own.
//
//predis:coldpath
func (e *Engine) votePending() {
	kept := e.pendingVotes[:0]
	for _, ent := range e.pendingVotes {
		if e.awaitsVote(ent) {
			kept = append(kept, ent)
		}
	}
	clear(e.pendingVotes[len(kept):])
	e.pendingVotes = kept
	if len(kept) == 0 {
		return
	}
	snap := append(e.voteScratch[:0], kept...)
	e.voteScratch = nil
	for _, ent := range snap {
		e.tryVote(ent)
	}
	clear(snap)
	e.voteScratch = snap[:0]
}

// OnRestart implements env.Restartable: a crash suppressed the pending
// pacemaker, so restart it with its backoff cleared, and Poke. The
// restarted replica stays consensus-passive until its application
// fast-forwards it or the chain reaches it again; full HotStuff restart
// recovery would additionally need block-tree sync and is out of scope
// (DESIGN.md §5, item 10).
func (e *Engine) OnRestart() {
	if e.ctx == nil {
		return
	}
	e.backoff = 0
	e.restartPacemaker()
	e.Poke()
}

func (e *Engine) extendsLocked(b *Block) bool {
	if e.lockedQC.IsGenesis() {
		return true
	}
	// Walk ancestors until we pass the locked block's height.
	locked, ok := e.blocks[e.lockedQC.Block]
	if !ok {
		return true
	}
	cur := b
	for {
		if cur.Parent == e.lockedQC.Block {
			return true
		}
		parent, ok := e.blocks[cur.Parent]
		if !ok || parent.block.Height <= locked.block.Height {
			return false
		}
		cur = parent.block
	}
}

func (e *Engine) onVote(from wire.NodeID, m *Vote) {
	if m.Replica != from {
		return
	}
	if e.leaderOf(m.View+1) != e.cfg.Self {
		return // not the collector for this view
	}
	if int(m.Replica) >= e.cfg.N {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), voteDigest(m.View, m.Block), m.Sig) {
		return
	}
	key := voteDigest(m.View, m.Block) // bind view+block so forged views cannot poison a QC
	qc := e.votes[key]
	if qc == nil {
		qc = &QC{View: m.View, Block: m.Block}
		e.votes[key] = qc
	}
	for _, id := range qc.Signers {
		if id == m.Replica {
			return // duplicate
		}
	}
	qc.Signers = append(qc.Signers, m.Replica)
	qc.Sigs = append(qc.Sigs, m.Sig)
	if len(qc.Signers) >= e.quo {
		// Complete, and valid by construction: each share was verified on
		// arrival, from a distinct replica below N. Nothing appends to it
		// after this.
		qc.memo.Claim()
		delete(e.votes, key)
		e.processQC(qc)
		e.advanceView(qc.View + 1)
		e.backoff = 0
		e.tryPropose()
	}
}

func (e *Engine) onNewView(from wire.NodeID, m *NewViewMsg) {
	if m.Replica != from || int(m.Replica) >= e.cfg.N {
		return
	}
	if e.leaderOf(m.View) != e.cfg.Self || m.View < e.curView {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), m.signDigest(), m.Sig) {
		return
	}
	if !m.HighQC.Verify(e.cfg.Signer, e.cfg.N, e.quo) {
		return
	}
	e.processQC(m.HighQC)
	byReplica, ok := e.newViews[m.View]
	if !ok {
		byReplica = make(map[wire.NodeID]*QC)
		e.newViews[m.View] = byReplica
	}
	byReplica[m.Replica] = m.HighQC
	if len(byReplica) >= e.quo {
		e.advanceView(m.View)
		e.tryPropose()
	}
}

// foundEquivocation runs when this replica holds two leader-signed blocks
// for one view: count it once, broadcast the self-authenticating
// evidence, and abandon the view.
func (e *Engine) foundEquivocation(view uint64, leader wire.NodeID, a, b *Block) {
	if !e.evidenced[view] {
		e.evidenced[view] = true
		e.equivocations++
		ev := &Evidence{
			View: view, Leader: leader,
			BlockA: a.Hash(), SigA: a.Sig,
			BlockB: b.Hash(), SigB: b.Sig,
			Conflict: GenesisQC(),
		}
		env.Multicast(e.ctx, e.peers, ev)
		e.ctx.Logf("hotstuff: leader %d equivocated in view %d", leader, view)
	}
	e.viewChangeTo(view + 1)
}

// foundQCConflict runs when a quorum certified a different block than the
// authenticated proposal this replica received for the same view — the
// leader showed different blocks to different replicas. The leader-signed
// proposal half plus the conflicting certificate form the evidence.
func (e *Engine) foundQCConflict(prop *Block, qc *QC) {
	if e.evidenced[qc.View] {
		return
	}
	e.evidenced[qc.View] = true
	e.equivocations++
	ev := &Evidence{
		View: qc.View, Leader: e.leaderOf(qc.View),
		BlockA: prop.Hash(), SigA: prop.Sig,
		Conflict: qc,
	}
	env.Multicast(e.ctx, e.peers, ev)
	e.ctx.Logf("hotstuff: view %d QC conflicts with leader %d's proposal", qc.View, e.leaderOf(qc.View))
}

// viewChangeTo abandons the current view in favour of a later one and
// tells its leader, exactly as a pacemaker timeout does — equivocation
// evidence is a proof-backed timeout.
func (e *Engine) viewChangeTo(view uint64) {
	if view <= e.curView {
		return
	}
	e.advanceView(view)
	nv := &NewViewMsg{View: e.curView, HighQC: e.highQC, Replica: e.cfg.Self}
	nv.Sig = e.cfg.Signer.Sign(nv.signDigest())
	if leader := e.Leader(); leader == e.cfg.Self {
		e.onNewView(e.cfg.Self, nv)
	} else {
		e.ctx.Send(leader, nv)
	}
}

func (e *Engine) onEvidence(from wire.NodeID, m *Evidence) {
	if m.Leader != e.leaderOf(m.View) || e.evidenced[m.View] {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), m.BlockA, m.SigA) {
		return
	}
	viaQC := m.Conflict != nil && !m.Conflict.IsGenesis()
	switch {
	case len(m.SigB) > 0:
		if m.BlockB == m.BlockA || !e.cfg.Signer.Verify(int(m.Leader), m.BlockB, m.SigB) {
			return
		}
	case viaQC:
		if m.Conflict.View != m.View || m.Conflict.Block == m.BlockA ||
			!m.Conflict.Verify(e.cfg.Signer, e.cfg.N, e.quo) {
			return
		}
	default:
		return // no second half; not evidence
	}
	e.evidenced[m.View] = true
	e.equivocations++
	e.ctx.Logf("hotstuff: evidence of leader %d equivocating in view %d", m.Leader, m.View)
	if viaQC {
		e.processQC(m.Conflict) // a valid QC is useful state regardless
	}
	e.viewChangeTo(m.View + 1)
}

// processQC folds a certificate into local state: raise highQC, update the
// lock (two-chain), and commit (three-chain).
func (e *Engine) processQC(qc *QC) {
	if qc.IsGenesis() {
		return
	}
	if prev, ok := e.seenProp[qc.View]; ok && prev.Hash() != qc.Block {
		e.foundQCConflict(prev, qc)
	}
	if qc.View > e.highQC.View {
		e.highQC = qc
	}
	// b'' = block certified by qc; b' = parent; b = grandparent.
	b2, ok := e.blocks[qc.Block]
	if !ok {
		return
	}
	// The QC is HotStuff's prepare-quorum analogue: close block_proposed
	// for the certified height, open prepare_commit (QC → execution).
	// End/Begin are idempotent, so re-derived QCs never distort spans.
	now := e.ctx.Now()
	e.cfg.Trace.End(obs.StageBlockProposed, obs.BlockKey(b2.block.Height), e.cfg.Self, now)
	e.cfg.Trace.Begin(obs.StagePrepareCommit, obs.BlockKey(b2.block.Height), e.cfg.Self, now)
	b1, ok := e.blocks[b2.block.Parent]
	if !ok || b1.block.Height == b2.block.Height {
		return
	}
	// Two-chain lock: adopt the certified block's justify (the QC of b')
	// whenever it is newer than the current lock.
	if b2.block.Justify.View > e.lockedQC.View {
		e.lockedQC = b2.block.Justify
	}
	b0, ok := e.blocks[b1.block.Parent]
	if !ok {
		return
	}
	// Three-chain commit: consecutive views b–b'–b'' commit b.
	if b2.block.View == b1.block.View+1 && b1.block.View == b0.block.View+1 {
		e.commitUpTo(b0)
	}
}

// commitUpTo marks b0 and all uncommitted ancestors committed, queues them
// in chain order, and tries to execute.
func (e *Engine) commitUpTo(b0 *blockEnt) {
	if b0.committed {
		return
	}
	var chain []*blockEnt
	cur := b0
	for !cur.committed {
		chain = append(chain, cur)
		parent, ok := e.blocks[cur.block.Parent]
		if !ok {
			break
		}
		cur = parent
	}
	// chain is newest→oldest; append oldest-first to the queue.
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].committed = true
		e.commitQueue = append(e.commitQueue, chain[i])
	}
	e.tryExecute()
}

// tryExecute delivers committed blocks in chain order, gating each on
// application validation (a replica may learn a block committed before it
// can reconstruct it, e.g. with bundles still in flight).
func (e *Engine) tryExecute() {
	for len(e.commitQueue) > 0 {
		ent := e.commitQueue[0]
		if ent.block.Parent != e.execHead {
			// Should not happen: commit order follows the chain.
			e.ctx.Logf("hotstuff: commit queue out of order at height %d", ent.block.Height)
			return
		}
		if !ent.validated {
			parent := e.blocks[ent.block.Parent]
			_, err := e.cfg.App.ValidateProposal(ent.block.Height, ent.block.Payload, parent.block.Payload)
			if err != nil {
				if !errors.Is(err, consensus.ErrPending) {
					// A committed block the app rejects outright would be a
					// quorum of faulty validators; log loudly.
					e.ctx.Logf("hotstuff: committed block failed validation: %v", err)
				}
				return
			}
			ent.validated = true
		}
		e.commitQueue = e.commitQueue[1:]
		e.execHead = ent.hash
		e.execHeight = ent.block.Height
		e.committed++
		e.cfg.Trace.End(obs.StagePrepareCommit, obs.BlockKey(ent.block.Height), e.cfg.Self, e.ctx.Now())
		e.cfg.App.OnCommit(ent.block.Height, ent.block.Payload)
		e.pruneBelow(ent.block.Height)
		e.restartPacemaker()
	}
}

// pruneBelow drops block-tree entries well below the executed height to
// bound memory; a margin is kept for late votes and ancestor walks.
func (e *Engine) pruneBelow(height uint64) {
	const margin = 64
	if height <= margin {
		return
	}
	floor := height - margin
	for h, ent := range e.blocks {
		if ent.block.Height < floor && h != crypto.ZeroHash && ent.hash != e.execHead {
			delete(e.blocks, h)
		}
	}
	for v := range e.newViews {
		if v+margin < e.curView {
			delete(e.newViews, v)
		}
	}
	for v := range e.seenProp {
		if v+margin < e.curView {
			delete(e.seenProp, v)
		}
	}
	for v := range e.evidenced {
		if v+margin < e.curView {
			delete(e.evidenced, v)
		}
	}
}
