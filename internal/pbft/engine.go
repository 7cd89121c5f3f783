package pbft

import (
	"errors"
	"fmt"
	"sort"
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
	// ViewTimeout is the base leader-suspicion timeout; it doubles on
	// consecutive failed view changes. Default 2s.
	ViewTimeout time.Duration
	// Pipeline is the maximum number of in-flight instances (sequence
	// numbers past lastExec the leader may have proposed but not yet
	// executed). The default 1 is classic single-slot PBFT. Streaming
	// commit mode raises it so the leader keeps ordering new cuts while
	// earlier slots run their prepare/commit rounds; execution stays
	// strictly sequential, and replicas chain-validate a slot against the
	// in-flight parent payload instead of waiting for it to execute.
	// A pipelined leader also paces itself (see Engine.paceOpen).
	Pipeline int
	// Trace, when non-nil, records the block_proposed (proposal learned →
	// prepare quorum) and prepare_commit (prepare quorum → execution)
	// lifecycle stages on this replica's timeline. Nil disables tracing.
	Trace *obs.Tracer
}

// reproposeInterval is how often an idle leader re-asks the app for a
// proposal.
const reproposeInterval = 10 * time.Millisecond

func (c *Config) withDefaults() Config {
	out := *c
	if out.ViewTimeout <= 0 {
		out.ViewTimeout = 2 * time.Second
	}
	if out.Pipeline <= 0 {
		out.Pipeline = 1
	}
	return out
}

// instance is one consensus slot (sequence number).
type instance struct {
	view    uint64
	seq     uint64
	digest  crypto.Hash
	payload wire.Message

	prepares map[wire.NodeID]struct{}
	commits  map[wire.NodeID]struct{}

	validated    bool // app accepted the payload
	invalid      bool // app rejected the payload permanently
	pendingValid bool // app returned ErrPending
	sentPrepare  bool
	sentCommit   bool
	prepared     bool
	commitQuorum bool

	// ppDigest/ppSig hold the leader-signed proposal seen for this slot
	// (nil ppSig until one arrives). A second leader-signed digest, or a
	// ProposalProof naming one, is equivocation evidence.
	ppDigest crypto.Hash
	ppSig    []byte
	// proofSent throttles the ProposalProof broadcast to once per slot.
	proofSent bool
	// proposedAt is when this replica, as a pipelined leader, sent the
	// slot's pre-prepare; its execution samples the pace estimate.
	proposedAt time.Time
}

// Engine is a PBFT replica. It implements consensus.Engine and is driven
// entirely from its env executor.
type Engine struct {
	cfg  Config
	ctx  env.Context
	f    int
	quo  int // 2f+1
	view uint64

	lastExec    uint64
	lastPayload wire.Message // payload executed at lastExec (parent link)
	// window holds the live instances in ascending seq order. It is kept
	// ordered as it is mutated (it is small: Pipeline slots plus whatever
	// votes ran ahead), so every walk is deterministic without a sort.
	window []*instance

	// view change state
	inViewChange bool
	proposedView uint64
	viewChanges  map[uint64]map[wire.NodeID]*ViewChange
	vcBackoff    int

	suspicion env.Timer
	repropose env.Timer

	// Pace of a pipelined leader (see paceOpen): the smoothed
	// propose→execute latency of its own slots in this view (0 = no
	// estimate), when its last pre-prepare left, when the pace timer fires
	// (past = none pending), and that timer's callback, bound once.
	paceLat     time.Duration
	lastPropose time.Time
	paceDue     time.Time
	propose     func()

	// statusViews collects view claims from StatusReply messages after a
	// restart; nil while no status sync is running.
	statusViews map[wire.NodeID]uint64

	peers []wire.NodeID

	// evidenced marks slots whose leader equivocation this replica has
	// already proven, so one attack counts (and broadcasts) once.
	evidenced map[uint64]bool

	// stats
	committed     uint64
	viewChanged   uint64
	restarts      uint64
	equivocations uint64
	paceDelayed   uint64
	paceDelay     time.Duration
}

var _ consensus.Engine = (*Engine)(nil)
var _ consensus.FastForwarder = (*Engine)(nil)
var _ consensus.Cadence = (*Engine)(nil)
var _ env.Restartable = (*Engine)(nil)

// New builds a PBFT replica engine.
func New(cfg Config) (*Engine, error) {
	c := cfg.withDefaults()
	if c.N < 1 || int(c.Self) >= c.N {
		return nil, fmt.Errorf("pbft: bad N=%d Self=%d", c.N, c.Self)
	}
	if c.App == nil || c.Signer == nil {
		return nil, errors.New("pbft: App and Signer are required")
	}
	peers := make([]wire.NodeID, c.N)
	for i := range peers {
		peers[i] = wire.NodeID(i)
	}
	return &Engine{
		cfg:         c,
		f:           consensus.FaultBound(c.N),
		quo:         consensus.Quorum(c.N),
		viewChanges: make(map[uint64]map[wire.NodeID]*ViewChange),
		evidenced:   make(map[uint64]bool),
		peers:       peers,
	}, nil
}

// View returns the current view number.
func (e *Engine) View() uint64 { return e.view }

// LastExecuted returns the highest executed sequence number.
func (e *Engine) LastExecuted() uint64 { return e.lastExec }

// Stats returns (blocks committed, view changes completed).
func (e *Engine) Stats() (committed, viewChanges uint64) {
	return e.committed, e.viewChanged
}

// Equivocations returns how many leader equivocations this replica has
// proven, first-hand or through received evidence.
func (e *Engine) Equivocations() uint64 { return e.equivocations }

// Pace returns a pipelined leader's current proposal gap (0 without an
// estimate), how many proposals waited for the pace timer and for how long.
func (e *Engine) Pace() (gap time.Duration, delayed uint64, delay time.Duration) {
	return e.paceLat / time.Duration(e.cfg.Pipeline), e.paceDelayed, e.paceDelay
}

// Window returns the in-flight instance window (Config.Pipeline).
func (e *Engine) Window() int { return e.cfg.Pipeline }

// Paced implements consensus.Cadence: a window above one paces the leader
// (see paceOpen).
func (e *Engine) Paced() bool { return e.cfg.Pipeline > 1 }

// Chained implements consensus.Cadence: every instance commits on its own.
func (e *Engine) Chained() bool { return false }

// Leader returns the current view's leader.
func (e *Engine) Leader() wire.NodeID { return consensus.LeaderOf(e.view, e.cfg.N) }

func (e *Engine) isLeader() bool { return e.Leader() == e.cfg.Self }

// Start implements env.Handler.
func (e *Engine) Start(ctx env.Context) {
	e.ctx = ctx
	e.propose = e.tryPropose
	e.armRepropose()
	e.tryPropose()
}

// Poke implements consensus.Engine: application state changed, so retry
// pending validations, executions, and proposals; arm leader suspicion if
// we now have work but see no progress.
func (e *Engine) Poke() {
	if e.ctx == nil {
		return
	}
	// validateInstance can execute and drop slots, and re-enter Poke
	// through the app, so the cursor is a sequence number, not an index.
	for i := 0; i < len(e.window); {
		inst := e.window[i]
		if !inst.pendingValid {
			i++
			continue
		}
		e.validateInstance(inst)
		i, _ = e.find(inst.seq + 1)
	}
	e.tryExecute() // a freshly validated instance may now be executable
	e.tryPropose()
	if !e.isLeader() && !e.inViewChange && e.suspicion == nil && e.hasPendingWork() {
		e.armSuspicion()
	}
}

// hasPendingWork consults the app when it reports work; engines never
// suspect a leader that has nothing to order.
func (e *Engine) hasPendingWork() bool {
	if wr, ok := e.cfg.App.(consensus.WorkReporter); ok {
		return wr.HasPendingWork()
	}
	return false
}

func (e *Engine) armRepropose() {
	e.repropose = e.ctx.After(reproposeInterval, func() {
		e.tryPropose()
		e.armRepropose()
	})
}

func (e *Engine) armSuspicion() {
	timeout := e.cfg.ViewTimeout << uint(e.vcBackoff)
	e.suspicion = e.ctx.After(timeout, func() {
		e.suspicion = nil
		if e.hasPendingWork() || len(e.window) > 0 {
			e.startViewChange(e.view + 1)
		}
	})
}

func (e *Engine) resetSuspicion() {
	if e.suspicion != nil {
		e.suspicion.Stop()
		e.suspicion = nil
	}
	e.vcBackoff = 0
}

// tryPropose issues pre-prepares when this replica leads and is not mid
// view change, filling the pipeline window: classic PBFT (Pipeline=1)
// allows one in-flight instance; streaming mode lets the leader keep
// proposing later slots, each extending the previous in-flight payload,
// while earlier slots run their vote rounds — one pace gap apart.
func (e *Engine) tryPropose() {
	if e.ctx == nil || !e.isLeader() || e.inViewChange {
		return
	}
	parent := e.lastPayload
	for seq := e.lastExec + 1; seq <= e.lastExec+uint64(e.cfg.Pipeline); seq++ {
		if inst := e.instance(seq); inst != nil && inst.view >= e.view {
			if inst.payload == nil {
				return // votes-only slot: no payload to chain the next slot onto
			}
			parent = inst.payload
			continue // already proposed / in flight
		}
		if e.cfg.Pipeline > 1 && !e.paceOpen() {
			return
		}
		payload, digest, ok := e.cfg.App.BuildProposal(seq, parent)
		if !ok {
			return
		}
		e.proposeAt(seq, digest, payload)
		parent = payload
	}
}

// paceOpen reports whether a pipelined leader may propose now. A window
// that proposes whenever a slot is free is ack-clocked: it burns its slots
// in one burst of tiny blocks, then stalls until the first commits return.
// Proposals one gap apart — propose→execute latency over Pipeline — keep
// exactly the window in flight: a leader whose last proposal is a gap old
// proposes at once; inside the gap the first caller arms the pace timer
// and later ones return. No estimate (a new view) means no gap. See
// DESIGN.md, "Self-clocked stream pipeline", for numbers and liveness.
//
//predis:hotpath
func (e *Engine) paceOpen() bool {
	now := e.ctx.Now()
	gap, _, _ := e.Pace()
	wait := gap - now.Sub(e.lastPropose)
	if wait > 0 && !e.paceDue.After(now) {
		e.paceDelayed++
		e.paceDelay += wait
		e.paceDue = now.Add(wait)
		e.ctx.After(wait, e.propose)
	}
	return wait <= 0
}

// proposeAt broadcasts a pre-prepare for (view, seq) with the payload.
func (e *Engine) proposeAt(seq uint64, digest crypto.Hash, payload wire.Message) {
	pp := &PrePrepare{View: e.view, Seq: seq, Digest: digest, Payload: payload, Leader: e.cfg.Self}
	pp.Sig = e.cfg.Signer.Sign(pp.signDigest())
	inst := e.getInstance(seq, e.view, digest)
	inst.payload = payload
	inst.validated = true // leader trusts its own proposal
	inst.ppDigest = digest
	inst.ppSig = pp.Sig
	now := e.ctx.Now()
	if e.cfg.Pipeline > 1 {
		inst.proposedAt, e.lastPropose = now, now
	}
	e.cfg.Trace.Begin(obs.StageBlockProposed, obs.BlockKey(seq), e.cfg.Self, now)
	env.Multicast(e.ctx, e.peers, pp)
	// The leader's pre-prepare doubles as its prepare.
	e.recordPrepare(inst, e.cfg.Self)
}

func (e *Engine) getInstance(seq, view uint64, digest crypto.Hash) *instance {
	i, ok := e.find(seq)
	var inst *instance
	if ok {
		inst = e.window[i]
	}
	if ok && inst.view == view && inst.digest == digest {
		return inst
	}
	if ok && (inst.view >= view || inst.commitQuorum) {
		return inst // caller must check digest; committed slots never reset
	}
	// New instance, or a re-proposal in a higher view supersedes the old.
	if !ok {
		e.window = append(e.window, nil)
		copy(e.window[i+1:], e.window[i:])
	}
	inst = &instance{
		view:     view,
		seq:      seq,
		digest:   digest,
		prepares: make(map[wire.NodeID]struct{}),
		commits:  make(map[wire.NodeID]struct{}),
	}
	e.window[i] = inst
	return inst
}

// find returns where seq sits (or would be inserted) in the window and
// whether it is live.
//
//predis:hotpath
func (e *Engine) find(seq uint64) (int, bool) {
	lo, hi := 0, len(e.window)
	for lo < hi {
		if mid := (lo + hi) / 2; e.window[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(e.window) && e.window[lo].seq == seq
}

// instance returns the live instance at seq, or nil.
func (e *Engine) instance(seq uint64) *instance {
	if i, ok := e.find(seq); ok {
		return e.window[i]
	}
	return nil
}

// dropInstances removes the live instances with lo ≤ seq ≤ hi.
func (e *Engine) dropInstances(lo, hi uint64) {
	i, _ := e.find(lo)
	j, _ := e.find(hi + 1)
	n := copy(e.window[i:], e.window[j:])
	clear(e.window[i+n:])
	e.window = e.window[:i+n]
}

// Receive implements env.Handler.
func (e *Engine) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *PrePrepare:
		e.onPrePrepare(from, msg)
	case *Prepare:
		e.onPrepare(from, msg)
	case *Commit:
		e.onCommit(from, msg)
	case *ViewChange:
		e.onViewChange(from, msg)
	case *NewView:
		e.onNewView(from, msg)
	case *StatusRequest:
		e.onStatusRequest(from, msg)
	case *StatusReply:
		e.onStatusReply(from, msg)
	case *ProposalProof:
		e.onProposalProof(from, msg)
	case *Evidence:
		e.onEvidence(from, msg)
	default:
		e.ctx.Logf("pbft: unexpected message %s from %d", wire.TypeName(m.Type()), from)
	}
}

func (e *Engine) onPrePrepare(from wire.NodeID, m *PrePrepare) {
	if m.View != e.view || e.inViewChange {
		return
	}
	if m.Leader != e.Leader() || from != m.Leader {
		return
	}
	if m.Seq <= e.lastExec {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), m.signDigest(), m.Sig) {
		e.ctx.Logf("pbft: bad pre-prepare signature from %d", from)
		return
	}
	inst := e.getInstance(m.Seq, m.View, m.Digest)
	if inst.ppSig != nil && inst.view == m.View && inst.ppDigest != m.Digest {
		// Two leader-signed digests for one slot: first-hand proof of
		// equivocation. Publish it and vote the leader out.
		e.foundEquivocation(m.View, m.Seq, m.Leader, inst.ppDigest, inst.ppSig, m.Digest, m.Sig)
		return
	}
	if inst.digest != m.Digest {
		// The slot holds a different digest. If that state came only from
		// (possibly Byzantine) votes — no payload, not prepared — the
		// authenticated leader proposal supersedes it. Otherwise this is
		// an equivocating leader and we ignore the second proposal.
		if inst.payload != nil || inst.prepared || inst.commitQuorum {
			return
		}
		e.dropInstances(m.Seq, m.Seq)
		inst = e.getInstance(m.Seq, m.View, m.Digest)
	}
	if inst.ppSig == nil && inst.view == m.View {
		inst.ppDigest = m.Digest
		inst.ppSig = m.Sig
	}
	// block_proposed: this replica learned an authenticated proposal for
	// the height (first learn wins; re-proposals are idempotent).
	e.cfg.Trace.Begin(obs.StageBlockProposed, obs.BlockKey(m.Seq), e.cfg.Self, e.ctx.Now())
	if inst.payload == nil {
		inst.payload = m.Payload
	}
	// The leader's pre-prepare counts as its prepare vote.
	e.recordPrepare(inst, m.Leader)
	e.validateInstance(inst)
}

// validateInstance asks the app to validate and, on success, emits this
// replica's prepare vote.
func (e *Engine) validateInstance(inst *instance) {
	if inst.validated || inst.invalid || inst.payload == nil {
		e.maybeVote(inst)
		return
	}
	parent := e.lastPayload
	if inst.seq != e.lastExec+1 {
		// PBFT is sequential by default: validate against the parent
		// payload only once the parent has executed (Poke/tryExecute
		// retries). With a pipeline window the parent slot may still be in
		// flight — chain validation through its payload, which is safe
		// because the slot's digest binds the payload to that parent.
		pinst := e.instance(inst.seq - 1)
		if e.cfg.Pipeline <= 1 || pinst == nil || !pinst.validated || pinst.payload == nil {
			inst.pendingValid = true
			return
		}
		parent = pinst.payload
	}
	digest, err := e.cfg.App.ValidateProposal(inst.seq, inst.payload, parent)
	switch {
	case err == nil:
		if digest != inst.digest {
			e.ctx.Logf("pbft: app digest mismatch at seq %d", inst.seq)
			inst.invalid = true
			return
		}
		inst.validated = true
		inst.pendingValid = false
		e.maybeVote(inst)
	case errors.Is(err, consensus.ErrPending):
		inst.pendingValid = true
	default:
		inst.invalid = true
		inst.pendingValid = false
	}
}

func (e *Engine) maybeVote(inst *instance) {
	if !inst.validated || inst.sentPrepare || e.inViewChange || inst.view != e.view {
		return
	}
	inst.sentPrepare = true
	p := &Prepare{View: inst.view, Seq: inst.seq, Digest: inst.digest, Replica: e.cfg.Self}
	p.Sig = e.cfg.Signer.Sign(p.signDigest())
	env.Multicast(e.ctx, e.peers, p)
	e.recordPrepare(inst, e.cfg.Self)
}

func (e *Engine) recordPrepare(inst *instance, replica wire.NodeID) {
	inst.prepares[replica] = struct{}{}
	if !inst.prepared && len(inst.prepares) >= e.quo {
		inst.prepared = true
		// Prepare quorum reached: close block_proposed, open
		// prepare_commit (quorum → execution) on this replica.
		now := e.ctx.Now()
		e.cfg.Trace.End(obs.StageBlockProposed, obs.BlockKey(inst.seq), e.cfg.Self, now)
		e.cfg.Trace.Begin(obs.StagePrepareCommit, obs.BlockKey(inst.seq), e.cfg.Self, now)
		e.sendCommit(inst)
	}
}

func (e *Engine) sendCommit(inst *instance) {
	if inst.sentCommit {
		return
	}
	inst.sentCommit = true
	c := &Commit{View: inst.view, Seq: inst.seq, Digest: inst.digest, Replica: e.cfg.Self}
	c.Sig = e.cfg.Signer.Sign(c.signDigest())
	env.Multicast(e.ctx, e.peers, c)
	e.recordCommit(inst, e.cfg.Self)
}

func (e *Engine) onPrepare(from wire.NodeID, m *Prepare) {
	if m.Seq <= e.lastExec || m.Replica != from {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), m.signDigest(), m.Sig) {
		return
	}
	inst := e.getInstance(m.Seq, m.View, m.Digest)
	if inst.view != m.View || inst.digest != m.Digest {
		e.suspectEquivocation(inst, m.View, m.Digest)
		return
	}
	e.recordPrepare(inst, m.Replica)
}

func (e *Engine) onCommit(from wire.NodeID, m *Commit) {
	if m.Seq <= e.lastExec || m.Replica != from {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), m.signDigest(), m.Sig) {
		return
	}
	inst := e.getInstance(m.Seq, m.View, m.Digest)
	if inst.view != m.View || inst.digest != m.Digest {
		e.suspectEquivocation(inst, m.View, m.Digest)
		return
	}
	e.recordCommit(inst, m.Replica)
}

// suspectEquivocation fires when a signature-verified peer vote names a
// different digest than the leader-signed proposal this replica holds for
// the slot. One vote is suspicion, not proof — the voter could be lying —
// so the replica broadcasts its leader-signed half as a ProposalProof;
// any peer holding the conflicting half assembles Evidence, which is
// proof.
func (e *Engine) suspectEquivocation(inst *instance, view uint64, digest crypto.Hash) {
	if inst.proofSent || inst.ppSig == nil || inst.view != view || inst.ppDigest == digest {
		return
	}
	if e.evidenced[inst.seq] {
		return
	}
	inst.proofSent = true
	env.Multicast(e.ctx, e.peers, &ProposalProof{
		View: inst.view, Seq: inst.seq, Digest: inst.ppDigest,
		Leader: consensus.LeaderOf(inst.view, e.cfg.N), Sig: inst.ppSig,
	})
}

// foundEquivocation runs when this replica holds both halves of an
// equivocation proof: count it once, broadcast the self-authenticating
// evidence, and vote the leader out.
func (e *Engine) foundEquivocation(view, seq uint64, leader wire.NodeID, dA crypto.Hash, sA []byte, dB crypto.Hash, sB []byte) {
	if !e.evidenced[seq] {
		e.evidenced[seq] = true
		e.equivocations++
		ev := &Evidence{View: view, Seq: seq, Leader: leader, DigestA: dA, SigA: sA, DigestB: dB, SigB: sB}
		env.Multicast(e.ctx, e.peers, ev)
		e.ctx.Logf("pbft: leader %d equivocated at (view %d, seq %d)", leader, view, seq)
	}
	e.startViewChange(view + 1)
}

func (e *Engine) onProposalProof(from wire.NodeID, m *ProposalProof) {
	if m.Leader != consensus.LeaderOf(m.View, e.cfg.N) || m.Seq <= e.lastExec {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), voteDigest(kindPrePrepare, m.View, m.Seq, m.Digest), m.Sig) {
		return
	}
	inst := e.instance(m.Seq)
	if inst == nil || inst.ppSig == nil || inst.view != m.View || inst.ppDigest == m.Digest {
		return // no conflicting half here; nothing to prove
	}
	e.foundEquivocation(m.View, m.Seq, m.Leader, inst.ppDigest, inst.ppSig, m.Digest, m.Sig)
}

func (e *Engine) onEvidence(from wire.NodeID, m *Evidence) {
	if m.DigestA == m.DigestB || m.Leader != consensus.LeaderOf(m.View, e.cfg.N) {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), voteDigest(kindPrePrepare, m.View, m.Seq, m.DigestA), m.SigA) {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), voteDigest(kindPrePrepare, m.View, m.Seq, m.DigestB), m.SigB) {
		return
	}
	if !e.evidenced[m.Seq] {
		e.evidenced[m.Seq] = true
		e.equivocations++
		e.ctx.Logf("pbft: evidence of leader %d equivocating at (view %d, seq %d)", m.Leader, m.View, m.Seq)
	}
	if m.View >= e.view {
		e.startViewChange(m.View + 1)
	}
}

func (e *Engine) recordCommit(inst *instance, replica wire.NodeID) {
	inst.commits[replica] = struct{}{}
	if !inst.commitQuorum && len(inst.commits) >= e.quo {
		inst.commitQuorum = true
		e.tryExecute()
	}
}

// tryExecute delivers committed instances in sequence order. An instance
// with a commit quorum but unvalidated payload (missing bundles) waits
// until the app can validate it — Poke retries.
func (e *Engine) tryExecute() {
	for {
		inst := e.instance(e.lastExec + 1)
		if inst == nil || !inst.commitQuorum {
			return
		}
		if !inst.validated {
			if inst.payload == nil {
				return
			}
			e.validateInstance(inst)
			if !inst.validated {
				return
			}
		}
		e.dropInstances(inst.seq, inst.seq)
		delete(e.evidenced, inst.seq)
		e.lastExec = inst.seq
		e.lastPayload = inst.payload
		e.committed++
		e.resetSuspicion()
		if !inst.proposedAt.IsZero() { // a pipelined leader's own slot: sample the pace (EWMA, 1/8)
			sample := e.ctx.Now().Sub(inst.proposedAt)
			if e.paceLat == 0 {
				e.paceLat = sample
			}
			e.paceLat += (sample - e.paceLat) / 8
		}
		e.cfg.Trace.End(obs.StagePrepareCommit, obs.BlockKey(inst.seq), e.cfg.Self, e.ctx.Now())
		e.cfg.App.OnCommit(inst.seq, inst.payload)
		e.tryPropose()
	}
}

// --- view change ---

func (e *Engine) startViewChange(newView uint64) {
	if newView <= e.view || (e.inViewChange && newView <= e.proposedView) {
		return
	}
	e.inViewChange = true
	e.proposedView = newView
	e.vcBackoff++
	e.resetTimersForViewChange()

	vc := &ViewChange{NewViewNum: newView, LastExec: e.lastExec, Replica: e.cfg.Self}
	for _, inst := range e.window {
		if inst.prepared && inst.payload != nil {
			vc.Prepared = append(vc.Prepared, &PreparedEntry{
				Seq: inst.seq, View: inst.view, Digest: inst.digest, Payload: inst.payload,
			})
		}
	}
	vc.Sig = e.cfg.Signer.Sign(vc.signDigest())
	env.Multicast(e.ctx, e.peers, vc)
	e.storeViewChange(vc)
	// If the next leader never assembles the new view, escalate.
	timeout := e.cfg.ViewTimeout << uint(e.vcBackoff)
	e.suspicion = e.ctx.After(timeout, func() {
		e.suspicion = nil
		e.startViewChange(e.proposedView + 1)
	})
}

func (e *Engine) resetTimersForViewChange() {
	if e.suspicion != nil {
		e.suspicion.Stop()
		e.suspicion = nil
	}
}

func (e *Engine) storeViewChange(vc *ViewChange) {
	byReplica, ok := e.viewChanges[vc.NewViewNum]
	if !ok {
		byReplica = make(map[wire.NodeID]*ViewChange)
		e.viewChanges[vc.NewViewNum] = byReplica
	}
	byReplica[vc.Replica] = vc
}

func (e *Engine) onViewChange(from wire.NodeID, m *ViewChange) {
	if m.Replica != from || m.NewViewNum <= e.view {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), m.signDigest(), m.Sig) {
		return
	}
	e.storeViewChange(m)
	count := len(e.viewChanges[m.NewViewNum])
	// Join a view change once f+1 replicas demand it (we cannot all be
	// wrong), even if our own timer has not fired.
	if count > e.f && (!e.inViewChange || e.proposedView < m.NewViewNum) {
		e.startViewChange(m.NewViewNum)
	}
	if count >= e.quo && consensus.LeaderOf(m.NewViewNum, e.cfg.N) == e.cfg.Self && m.NewViewNum > e.view {
		e.becomeLeader(m.NewViewNum)
	}
}

// becomeLeader finalizes a view change with this replica as leader: it
// announces NewView and re-proposes prepared instances.
func (e *Engine) becomeLeader(newView uint64) {
	vcs := e.viewChanges[newView]
	e.adoptView(newView)
	nv := &NewView{View: newView, LastExec: e.lastExec, Leader: e.cfg.Self}
	nv.Sig = e.cfg.Signer.Sign(nv.signDigest())
	env.Multicast(e.ctx, e.peers, nv)

	// Re-propose the highest-view prepared payload per pending sequence.
	// Iterate in replica order so ties resolve deterministically.
	replicas := make([]wire.NodeID, 0, len(vcs))
	for r := range vcs {
		replicas = append(replicas, r)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i] < replicas[j] })
	best := make(map[uint64]*PreparedEntry)
	for _, r := range replicas {
		for _, p := range vcs[r].Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
		}
	}
	for seq := e.lastExec + 1; ; seq++ {
		p, ok := best[seq]
		if !ok {
			break
		}
		e.proposeAt(seq, p.Digest, p.Payload)
	}
	e.tryPropose()
}

func (e *Engine) onNewView(from wire.NodeID, m *NewView) {
	if m.View <= e.view || m.Leader != from {
		return
	}
	if consensus.LeaderOf(m.View, e.cfg.N) != m.Leader {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Leader), m.signDigest(), m.Sig) {
		return
	}
	e.adoptView(m.View)
}

// --- crash recovery ---

// FastForward implements consensus.FastForwarder: the application learned
// (and executed) committed blocks through its catch-up protocol, so skip
// the engine past them. Instances at or below the new height are dropped;
// later pending instances revalidate against the new parent payload.
func (e *Engine) FastForward(height uint64, payload wire.Message) {
	if height <= e.lastExec {
		return
	}
	e.lastExec = height
	e.lastPayload = payload
	e.dropInstances(0, height)
	e.resetSuspicion()
	e.Poke()
}

// OnRestart implements env.Restartable. A crashed replica loses every
// pending timer (the repropose chain re-arms inside its own callback, so
// a crash kills it permanently) and may have missed view changes. Re-arm
// the timer chain, drop half-finished view-change state, and broadcast a
// StatusRequest to resynchronize the view.
func (e *Engine) OnRestart() {
	if e.ctx == nil {
		return
	}
	e.restarts++
	if e.repropose != nil {
		e.repropose.Stop()
	}
	e.armRepropose()
	if e.suspicion != nil {
		e.suspicion.Stop()
		e.suspicion = nil
	}
	e.vcBackoff = 0
	e.inViewChange = false
	e.proposedView = e.view
	e.statusViews = make(map[wire.NodeID]uint64)
	env.Multicast(e.ctx, e.peers, &StatusRequest{Replica: e.cfg.Self})
	e.Poke()
}

func (e *Engine) onStatusRequest(from wire.NodeID, m *StatusRequest) {
	if m.Replica != from {
		return
	}
	sr := &StatusReply{View: e.view, LastExec: e.lastExec, Replica: e.cfg.Self}
	sr.Sig = e.cfg.Signer.Sign(sr.signDigest())
	e.ctx.Send(from, sr)
}

// onStatusReply adopts the (f+1)-th largest reported view once enough
// replies arrive: at least one honest replica is at or beyond that view,
// and honest replicas only reach a view through a valid view change.
func (e *Engine) onStatusReply(from wire.NodeID, m *StatusReply) {
	if e.statusViews == nil || m.Replica != from {
		return
	}
	if !e.cfg.Signer.Verify(int(m.Replica), m.signDigest(), m.Sig) {
		return
	}
	e.statusViews[from] = m.View
	if len(e.statusViews) < e.f+1 {
		return
	}
	views := make([]uint64, 0, len(e.statusViews))
	for _, v := range e.statusViews {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] > views[j] })
	candidate := views[e.f]
	if candidate > e.view {
		e.adoptView(candidate)
		e.Poke()
	}
}

// adoptView moves to a new view, clearing per-view vote state on
// non-committed instances so re-proposals start clean.
func (e *Engine) adoptView(newView uint64) {
	e.view = newView
	e.inViewChange = false
	e.proposedView = newView
	e.viewChanged++
	e.resetTimersForViewChange()
	e.paceLat = 0 // the old view's latency must not delay the new leader
	e.vcBackoff = 0
	// Committed instances survive view changes; the rest drop their stale
	// vote state and the new leader re-proposes.
	kept := e.window[:0]
	for _, inst := range e.window {
		if inst.commitQuorum {
			kept = append(kept, inst)
		}
	}
	clear(e.window[len(kept):])
	e.window = kept
	for v := range e.viewChanges {
		if v <= newView {
			delete(e.viewChanges, v)
		}
	}
}
