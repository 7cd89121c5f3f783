package multizone

import (
	"slices"

	"predis/internal/core"
	"predis/internal/env"
	"predis/internal/wire"
)

// The fetch plane: the one place a full node asks for bundles. Block
// completion, out-of-order gaps, digest reconcile, catch-up and
// damaged-stripe refetch all state a need through fetch —
// "producer's chain up to height h" — and the scheduler turns needs into
// requests under three rules:
//
//  1. never for a height the mempool holds, linked or parked above a hole;
//  2. never while a request for it is outstanding: one request per producer
//     at a time, outstanding until its holder answers (a full node answers
//     with the prefix it holds, so what is still missing was not there) or
//     stays silent for the backoff delay. Needs stated meanwhile ride on
//     the next request. The one exception: a request that went to a guessed
//     holder is superseded, once, by the first need that names one;
//  3. never from "whoever sent the block". A need may name the holder to
//     start from — the peer whose digest or served blocks show it holds the
//     heights, or, for the fresh bundle a live block waits for, source: the
//     producer for a relayer, the upstream zone peer for everyone else. The
//     rotation goes on through the backup peers and ends in the bundle's own
//     producer and the other consensus nodes in ring order, so a zone's
//     misses spread over all n_c consensus nodes by producer instead of
//     landing on the one whose ZoneBlock arrived first.
//
// Liveness: a short or missing answer moves the rotation to the next
// holder, and the rotation ends in all n_c consensus nodes, n_c−f of which
// hold every committed bundle their pruning has not passed. A rotation
// that came up empty drops the need (it may have come from an
// unauthenticated digest, or be pruned everywhere — catch-up then
// skip-syncs); whoever still has it — a pending block, the next bundle
// parked above the hole — states it again, and the rotation restarts.

// maxServe bounds the bundles of one BundleResponse; the scheduler never
// asks for more, so no complete answer is cut short.
const maxServe = 64

// fetchState is one producer's fetch: what is wanted, the one request
// outstanding for it, and where the holder rotation stands.
type fetchState struct {
	want    uint64        // highest height some caller needs
	asked   uint64        // upper end of the outstanding request; 0 when none is
	holders []wire.NodeID // the rotation (see FullNode.holders)
	sure    bool          // holders[0] was named by a need, not guessed
	attempt int           // position in holders: advanced by a short or missing answer
	silent  int           // consecutive requests nobody answered: grows the delay
	timer   env.Timer     // fires when the holder stayed silent for the backoff delay
}

// PullStats returns the fetch plane's counters: BundleRequests sent, the
// bundles they asked for, needs that rode on an outstanding request
// instead of sending their own, and requests that went to a later holder
// of a rotation because an earlier one was short or silent.
func (f *FullNode) PullStats() (requests, bundles, suppressed, retries uint64) {
	return f.pullRequests, f.pullBundles, f.pullSuppressed, f.pullRetries
}

// fetch states a need for producer's bundles up to height to. first names
// the holder to start the rotation from, avoid a peer the rotation must
// leave out (the sender of a damaged stripe); either may be NoNode. A
// rotation opened without a first holder starts from a guess, and the first
// need that names one restarts it from there at once — a bundle a block
// waits for must not sit behind a request to a backup peer that may hold
// nothing. Any other need waits for the outstanding request to settle.
func (f *FullNode) fetch(producer wire.NodeID, to uint64, first, avoid wire.NodeID) {
	st := &f.fetches[producer]
	if to <= f.mp.Tip(producer) {
		return
	}
	st.want = max(st.want, to)
	if st.holders == nil || first != wire.NoNode && !st.sure {
		holders := f.holders(producer, first, avoid)
		if len(holders) == 0 {
			f.clearFetch(st)
			return
		}
		if st.asked > 0 && st.holders[st.attempt] != holders[0] {
			st.timer.Stop() // the guess that was asked is superseded
			st.asked = 0
		}
		st.holders, st.attempt, st.sure = holders, 0, first != wire.NoNode
		if avoid != wire.NoNode {
			f.refetches++
		}
	}
	if st.asked > 0 {
		f.pullSuppressed++
		return
	}
	f.pump(producer)
}

// pump sends producer's next request if anything wanted is still missing.
func (f *FullNode) pump(producer wire.NodeID) {
	st := &f.fetches[producer]
	tip := f.mp.Tip(producer)
	for st.attempt < len(st.holders) && f.isQuarantined(st.holders[st.attempt]) {
		st.attempt++ // quarantined since the rotation was drawn up
	}
	if tip >= st.want || st.attempt >= len(st.holders) {
		f.clearFetch(st) // satisfied, or a whole rotation came up empty
		return
	}
	to := min(st.want, tip+maxServe)
	if held := f.mp.LowestBuffered(producer); held == tip+1 {
		// Parked right above a tip it cannot link to (the chain was
		// fast-forwarded under it): a copy that arrives in order re-ties it.
		to = held
	} else if held > tip && held <= to {
		to = held - 1
	}
	st.asked = to
	f.ctx.Send(st.holders[st.attempt], &core.BundleRequest{Producer: producer, From: tip + 1, To: to})
	f.pullRequests++
	f.pullBundles += to - tip
	f.armFetch(producer)
}

// armFetch (re)starts the timer that declares producer's holder silent.
func (f *FullNode) armFetch(producer wire.NodeID) {
	st := &f.fetches[producer]
	if st.timer != nil {
		st.timer.Stop()
	}
	st.timer = f.ctx.After(f.retry.Delay(st.silent, f.ctx.Rand()), func() {
		f.settle(producer, wire.NoNode, false)
	})
}

// stillAnswering restarts the timers of the requests outstanding at from,
// which just answered another one: a holder working through our requests
// in order is slow, not silent, and asking the next holder for the same
// bundles would only add to the load.
func (f *FullNode) stillAnswering(from wire.NodeID) {
	for p := range f.fetches {
		if st := &f.fetches[p]; st.asked > 0 && st.holders[st.attempt] == from {
			f.armFetch(wire.NodeID(p))
		}
	}
}

// settle closes producer's outstanding request when its answer is in —
// from just delivered bundles of that producer, fresh telling whether any
// was new — or is not coming (from is NoNode: the timer fired), and asks
// for what is still wanted. A request cut short or left unanswered sends
// the next one to the next holder; a complete answer keeps the rotation
// where it is.
func (f *FullNode) settle(producer, from wire.NodeID, fresh bool) {
	if int(producer) >= len(f.fetches) {
		return
	}
	st := &f.fetches[producer]
	if st.asked == 0 {
		return
	}
	if f.mp.Tip(producer) < st.asked {
		if from != wire.NoNode && (from != st.holders[st.attempt] || !fresh) {
			// Someone else's bundles, or the late answer to a request this
			// holder was sent before: the answer that counts is still due.
			return
		}
		st.attempt++
		f.pullRetries++
	}
	if from == wire.NoNode {
		st.silent++
	} else {
		st.silent = 0
	}
	st.timer.Stop()
	st.asked = 0
	f.pump(producer)
}

func (f *FullNode) clearFetch(st *fetchState) {
	if st.timer != nil {
		st.timer.Stop()
	}
	*st = fetchState{}
}

// resetFetches drops every fetch whose outstanding request went to holder
// and states its need afresh (a quarantined peer's answers are dropped at
// the Receive gate, so nothing it was asked will arrive); with NoNode it
// drops all fetches, needs included (restart: the timers died with the
// crash and catch-up states the needs again).
func (f *FullNode) resetFetches(holder wire.NodeID) {
	for p := range f.fetches {
		st := &f.fetches[p]
		if holder == wire.NoNode {
			f.clearFetch(st)
		} else if st.asked > 0 && st.holders[st.attempt] == holder {
			want := st.want
			f.clearFetch(st)
			f.fetch(wire.NodeID(p), want, wire.NoNode, wire.NoNode)
		}
	}
}

// source names who is asked first for a bundle a live block is waiting
// for — a fresh bundle, which peers may not hold yet. A relayer is its
// zone's link to the consensus group and asks the producer, the one node
// certain to hold it; every other node stays inside the zone and asks the
// peer that feeds it the producer's stripe. Consensus nodes thus serve at
// most the relayers of a zone, each its own bundles.
func (f *FullNode) source(producer wire.NodeID) wire.NodeID {
	if sd, ok := f.stripeSender[uint8(producer)]; ok && !f.isRelayer {
		return sd
	}
	return producer
}

// holders lists who may be asked for producer's bundles, in rotation order
// (rule 3): first; the backup peer this producer maps to (another zone, so
// correlated loss is unlikely); the node that feeds us the producer's
// stripe (a zone peer, or the producer itself for a stripe we relay); the
// other backup peers; the producer and the remaining consensus nodes in
// ring order. Never ourselves, avoid, or a quarantined peer.
func (f *FullNode) holders(producer, first, avoid wire.NodeID) []wire.NodeID {
	nc := wire.NodeID(f.cfg.NC)
	out := make([]wire.NodeID, 0, len(f.cfg.BackupPeers)+f.cfg.NC+2)
	add := func(id wire.NodeID) {
		if id != wire.NoNode && id != f.cfg.Self && id != avoid &&
			!f.isQuarantined(id) && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	add(first)
	if n := len(f.cfg.BackupPeers); n > 0 {
		add(f.cfg.BackupPeers[int(producer)%n])
	}
	if sd, ok := f.stripeSender[uint8(producer)]; ok {
		add(sd)
	}
	for _, p := range f.cfg.BackupPeers {
		add(p)
	}
	for i := wire.NodeID(0); i < nc; i++ {
		add((producer + i) % nc)
	}
	return out
}
