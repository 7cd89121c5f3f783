package multizone

import (
	"time"

	"predis/internal/core"
	"predis/internal/env"
	"predis/internal/wire"
)

// This file implements full-node crash recovery (ISSUE 1 tentpole 2, zone
// side). A crashed full node loses every timer chain (alive, heartbeat,
// digest, pull retries) and every block and stripe sent while it was down;
// its upstream senders expire it from their subscriber sets and its view
// of which members are alive goes stale. On restart the node therefore
// (1) re-arms its periodic timers, (2) discards its subscriptions and
// leases and applies the placement rule afresh, as at its join, and
// (3) catches up (core.Catchup) the committed blocks it missed,
// replaying them through the normal block-completion path — which in turn
// issues ordinary bundle pulls for any bodies it lacks.

var _ env.Restartable = (*FullNode)(nil)

// catchupOwner is a full node's part of catch-up: its backup peers, then
// its zone peers in ascending order — backups first, as they are in other
// zones, so a zone-local outage does not take out every candidate at once —
// and one voucher, since a block's leader signature is the trust its live
// path (§IV-D) places in a block sender.
func (f *FullNode) catchupOwner() core.CatchupOwner {
	return core.CatchupOwner{
		Peers:  core.CatchupPeers(f.cfg.Self, f.cfg.BackupPeers, f.cfg.ZonePeers),
		K:      1,
		Apply:  f.applyCaughtUp,
		Anchor: f.adoptAnchor,
	}
}

// CatchingUp reports whether a restart block catch-up is in flight.
func (f *FullNode) CatchingUp() bool { return f.catchup.Running() }

// OnRestart implements env.Restartable.
func (f *FullNode) OnRestart() {
	if f.ctx == nil {
		return
	}
	// (1) Re-arm the periodic timer chains killed by the crash.
	for _, t := range []env.Timer{f.aliveTimer, f.heartbeatTimer, f.digestTimer} {
		if t != nil {
			t.Stop()
		}
	}
	f.armAlive()
	f.armHeartbeat()
	if f.cfg.DigestInterval > 0 && len(f.cfg.BackupPeers) > 0 {
		f.armDigest()
	}
	// (2) Drop control-plane state that went stale while we were down:
	// upstream senders have expired us, and our subscribers have
	// resubscribed elsewhere. Each link's silence bookkeeping (heard,
	// asked) is kept, and so are the beacons and unanswered subscribes:
	// a relayer heard from before the crash counts as live again at its
	// next beacon, and until then this node takes its indices from
	// consensus itself. Leases restart.
	for s := range f.links {
		l := &f.links[s]
		l.sender, l.pending, l.capped, l.direct, l.subs = wire.NoNode, wire.NoNode, wire.NoNode, false, nil
	}
	f.subscribers, f.subCount = nil, 0
	f.spares = nil
	f.lastSeen = make(map[wire.NodeID]time.Time)
	f.fetch.Reset()
	f.place()
	// (3) Catch up the blocks committed while we were down.
	f.StartCatchup()
}

// StartCatchup begins (or restarts) block catch-up; idempotent while one
// is running.
//
//predis:coldpath
func (f *FullNode) StartCatchup() { f.catchup.Begin() }

// applyCaughtUp feeds caught-up blocks into the normal completion path.
// Unlike onBlock it does not re-forward old blocks down the subscription
// tree: subscribers either saw them live or run their own catch-up.
func (f *FullNode) applyCaughtUp(from wire.NodeID, blocks []*core.PredisBlock) {
	for _, blk := range blocks {
		h := blk.Hash()
		if _, seen := f.seenBlocks[h]; !seen {
			f.seenBlocks[h] = blk.Height
			f.pendBlocks = append(f.pendBlocks, blk)
		}
	}
	// The responder completed every block it served, so it holds their
	// bundles: ask it for the whole run now, not block by block — these are
	// old bundles, which the consensus nodes have pruned before any full
	// node does.
	if len(blocks) > 0 {
		for i, c := range blocks[len(blocks)-1].Cuts {
			if i < f.cfg.NC {
				f.fetch.Need(wire.NodeID(i), c.Height, from, wire.NoNode)
			}
		}
	}
	f.tryCompleteBlocks()
}

// adoptAnchor fast-forwards to a snapshot anchor: the bundles below its
// cuts have been pruned network-wide, so the node resumes from the
// anchor instead of replaying them (its local history keeps a gap, like
// any pruning node). The anchor carries the consensus leader's signature
// — the same trust the live block path places in a block sender —
// and every subsequent block must chain from it and validate, so a bogus
// anchor dead-ends instead of forking us silently.
func (f *FullNode) adoptAnchor(anchor *core.PredisBlock) {
	f.ctx.Logf("multizone: node %d skip-syncs %d → %d (bundle retention exceeded)",
		f.cfg.Self, f.LastHeight(), anchor.Height)
	f.mp.FastForward(anchor)
	// Blocks pending below the anchor can never complete anymore, and what
	// was being fetched is pruned: the needs above the anchor are stated
	// afresh — at once, and to the peer that served it, because the anchor
	// sits at that peer's pruning edge and the edge moves with every commit.
	kept := f.pendBlocks[:0]
	for _, blk := range f.pendBlocks {
		if blk != nil && blk.Height > anchor.Height {
			kept = append(kept, blk)
		}
	}
	f.pendBlocks = kept
	f.fetch.Reset()
}
