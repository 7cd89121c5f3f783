package core

import (
	"predis/internal/consensus"
	"predis/internal/env"
	"predis/internal/wire"
)

// A consensus node's side of crash recovery. A restarted node keeps its
// mempool and ledger head but missed every block committed while it was
// down, and PBFT never resends old commits: it catches up (catchup.go) with
// k = f+1, replays each adopted block through the normal validation path —
// fetching the bodies it misses — and fast-forwards its engine past it.

var _ env.Restartable = (*Predis)(nil)

// catchupOwner is a consensus node's part of catch-up: the other consensus
// nodes in ascending order, f+1 vouchers.
func (p *Predis) catchupOwner() CatchupOwner {
	return CatchupOwner{
		Peers:  CatchupPeers(p.opts.Self, nil, p.peers),
		K:      p.mp.params.F + 1,
		Apply:  func(wire.NodeID, []*PredisBlock) { p.advanceCatchup() },
		Anchor: p.adoptAnchor,
	}
}

// CatchingUp reports whether a catch-up is in flight.
func (p *Predis) CatchingUp() bool { return p.catchup.Running() }

// OnRestart implements env.Restartable: re-arm the production timer chain
// (crash suppression killed it), discard fetch state whose retry timers
// died with the crash, and start catch-up toward the live chain head.
func (p *Predis) OnRestart() {
	if p.ctx == nil {
		return
	}
	if p.produceTimer != nil {
		p.produceTimer.Stop()
	}
	p.armProduceTimer()
	p.fetch.Reset()
	p.lastAdvertised = nil
	p.StartCatchup()
}

// StartCatchup begins (or restarts) the committed-block catch-up
// protocol. It is idempotent while a catch-up is running.
func (p *Predis) StartCatchup() { p.catchup.Begin() }

// advanceCatchup applies every contiguous block f+1 peers vouch for that
// validates cleanly, then checks for completion. It is also re-entered
// whenever a missing bundle arrives, so a block whose bodies were
// pruned-and-refetched resumes automatically.
func (p *Predis) advanceCatchup() {
	for blk := p.catchup.Adopted(p.LastHeight() + 1); blk != nil; blk = p.catchup.Adopted(p.LastHeight() + 1) {
		if missing, err := p.mp.ValidateNext(blk); err != nil {
			// Bodies missing: resume from onBundle once they arrive. (f+1
			// vouchers include an honest one, so no other error can occur
			// short of a diverged state.)
			for i := range missing {
				p.need(&missing[i])
			}
			return
		}
		p.commitBlock(blk)
		if ff, ok := p.engine.(consensus.FastForwarder); ok {
			ff.FastForward(blk.Height, blk)
		}
	}
	if p.catchup.Check() {
		p.poke()
	}
}

// adoptAnchor skip-syncs to an anchor f+1 peers vouch for: the bundles below
// its cuts are pruned at the peers that offered it, so the node resumes from
// the anchor instead of replaying them, as a full node does, and its engine
// with it. What was being fetched is pruned too.
func (p *Predis) adoptAnchor(anchor *PredisBlock) {
	p.ctx.Logf("predis: node %d skip-syncs %d → %d (bundle retention exceeded)",
		p.opts.Self, p.LastHeight(), anchor.Height)
	p.mp.FastForward(anchor)
	p.fetch.Reset()
	if ff, ok := p.engine.(consensus.FastForwarder); ok {
		ff.FastForward(anchor.Height, anchor)
	}
}
