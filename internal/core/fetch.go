package core

import (
	"slices"

	"predis/internal/env"
	"predis/internal/wire"
)

// The fetch plane: the one place a node asks for bundles, consensus nodes
// and full nodes alike. Every miss — a hole below buffered bundles, a block
// waiting for bodies, catch-up, digest reconcile, a damaged stripe — states a
// need through Need, "producer's chain up to height h", and the scheduler
// turns needs into requests under three rules:
//
//  1. never for a height the mempool holds, linked or parked above a hole;
//  2. never while a request for it is outstanding: one request per producer
//     at a time, outstanding until its holder answers (every node answers
//     with the prefix it holds, so what is still missing was not there), its
//     heights all arrive by another path (see Need), or the holder stays
//     silent for the backoff delay. Needs stated meanwhile ride on the next
//     request. The one exception: a request that went to a guessed holder is
//     superseded, once, by the first need that names one;
//  3. who is asked, in what order, is the caller's (HolderFunc): the only
//     part of the plane that differs between a consensus node and a full
//     node.
//
// Liveness: a short or missing answer moves the rotation to the next
// holder, and every rotation ends in consensus nodes, n_c−f of which hold
// every committed bundle their pruning has not passed. A rotation that came
// up empty drops the need (it may have come from an unauthenticated digest,
// or be pruned everywhere — catch-up then skip-syncs); whoever still has it —
// a pending block, the next bundle parked above the hole — states it again,
// and the rotation restarts.

// maxServe bounds the bundles of one BundleResponse; the scheduler never
// asks for more, so no complete answer is cut short.
const maxServe = 64

// HolderFunc lists who may be asked for producer's bundles, in rotation
// order. first names the holder a need says to start from and avoid a peer
// to leave out; either may be wire.NoNode.
type HolderFunc func(producer, first, avoid wire.NodeID) []wire.NodeID

// ChainHolders is a consensus node's rotation for producer's bundles, over
// its mempool: the producer, the one node certain to hold them; then the
// peers whose advertised tip lists prove they hold the next missing height
// (§III-D: the cutting rule leaves n_c−2f honest holders); then the rest,
// each group in ring order from the producer. Tips ride on bundles and can
// lag the bundles themselves, so an unproven peer may hold them too.
func ChainHolders(mp *Mempool, self wire.NodeID) HolderFunc {
	return func(producer, _, _ wire.NodeID) []wire.NodeID {
		nc := mp.params.NC
		need := mp.Tip(producer) + 1
		out := make([]wire.NodeID, 0, nc)
		if producer != self {
			out = append(out, producer)
		}
		for _, proven := range []bool{true, false} {
			for i := 1; i < nc; i++ {
				id := wire.NodeID((int(producer) + i) % nc)
				th := mp.TipHeader(id)
				if id != self && (th != nil && th.Tips[producer] >= need) == proven {
					out = append(out, id)
				}
			}
		}
		return out
	}
}

// fetchState is one producer's fetch: what is wanted, the one request
// outstanding for it, and where the holder rotation stands.
type fetchState struct {
	want    uint64        // highest height some caller needs
	from    uint64        // lower end of the outstanding request
	asked   uint64        // upper end of the outstanding request; 0 when none is
	holders []wire.NodeID // the rotation (see HolderFunc)
	sure    bool          // holders[0] was named by a need, not guessed
	attempt int           // position in holders: advanced by a short or missing answer
	silent  int           // consecutive requests nobody answered: grows the delay
	timer   env.Timer     // fires when the holder stayed silent for the backoff delay
}

// FetchPlane is the bundle-fetch scheduler over one mempool. It must be
// driven from the owner's serialized executor.
type FetchPlane struct {
	ctx     env.Context
	mp      *Mempool
	retry   env.Backoff
	holders HolderFunc
	fetches []fetchState // by producer

	requests, bundles, suppressed, retries uint64
}

// NewFetchPlane builds the scheduler for mp; retry paces silent holders.
// Call Start before stating needs.
func NewFetchPlane(mp *Mempool, retry env.Backoff, holders HolderFunc) *FetchPlane {
	return &FetchPlane{mp: mp, retry: retry, holders: holders, fetches: make([]fetchState, mp.params.NC)}
}

// Start binds the plane to its owner's context.
func (f *FetchPlane) Start(ctx env.Context) { f.ctx = ctx }

// PullStats returns the plane's counters: BundleRequests sent, the bundles
// they asked for, needs that rode on an outstanding request instead of
// sending their own, and requests that went to a later holder of a rotation
// because an earlier one was short or silent.
func (f *FetchPlane) PullStats() (requests, bundles, suppressed, retries uint64) {
	return f.requests, f.bundles, f.suppressed, f.retries
}

// Need states a need for producer's bundles up to height to, and reports
// whether it drew up a new holder rotation. A need that names no holder —
// a hole below held bundles — first settles an outstanding request whose
// heights have all arrived by another path (stripes, a live bundle, another
// holder's answer), as a complete answer would. A need that names one is
// restated on every pass of its source (a pending block, a digest), and
// waits for the answer: that answer pacing is what keeps an overloaded
// zone from pulling what its stripes are still bringing. A rotation opened
// without a first holder starts from a guess, and the first need that
// names one restarts it from there at once — a bundle a block waits for
// must not sit behind a request to a peer that may hold nothing. Any other
// need waits for the outstanding request to settle.
func (f *FetchPlane) Need(producer wire.NodeID, to uint64, first, avoid wire.NodeID) bool {
	st := &f.fetches[producer]
	tip := f.mp.Tip(producer)
	if to <= tip {
		return false
	}
	st.want = max(st.want, to)
	if first == wire.NoNode && st.asked > 0 && tip >= st.asked { // settled by another path
		st.timer.Stop()
		st.asked, st.silent = 0, 0
	}
	opened := false
	if st.holders == nil || first != wire.NoNode && !st.sure {
		holders := f.holders(producer, first, avoid)
		if len(holders) == 0 {
			f.clear(st)
			return false
		}
		if st.asked > 0 && st.holders[st.attempt] != holders[0] {
			st.timer.Stop() // the guess that was asked is superseded
			st.asked = 0
		}
		st.holders, st.attempt, st.sure = holders, 0, first != wire.NoNode
		opened = true
	}
	if st.asked > 0 {
		f.suppressed++
		return opened
	}
	f.pump(producer)
	return opened
}

// pump sends producer's next request if anything wanted is still missing.
func (f *FetchPlane) pump(producer wire.NodeID) {
	st := &f.fetches[producer]
	tip := f.mp.Tip(producer)
	if tip >= st.want || st.attempt >= len(st.holders) {
		f.clear(st) // satisfied, or a whole rotation came up empty
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
	st.from, st.asked = tip+1, to
	f.ctx.Send(st.holders[st.attempt], &BundleRequest{Producer: producer, From: tip + 1, To: to})
	f.requests++
	f.bundles += to - tip
	f.arm(producer)
}

// arm (re)starts the timer that declares producer's holder silent.
func (f *FetchPlane) arm(producer wire.NodeID) {
	st := &f.fetches[producer]
	if st.timer != nil {
		st.timer.Stop()
	}
	st.timer = f.ctx.After(f.retry.Delay(st.silent, f.ctx.Rand()), func() {
		f.settle(producer, wire.NoNode, false)
	})
}

// Answered takes in a BundleResponse from holder, after its bundles were
// stored (fresh: any was new). It settles the request it answers, and
// restarts the timers of the requests still outstanding at the same holder:
// a holder working through our requests in order is slow, not silent, and
// asking the next holder for the same bundles would only add to its load.
func (f *FetchPlane) Answered(holder wire.NodeID, bundles []*Bundle, fresh bool) {
	if len(bundles) > 0 {
		// A request names one producer, so an answer carries one chain, and
		// the answer to the outstanding request starts where it asked.
		if h := &bundles[0].Header; int(h.Producer) < len(f.fetches) {
			f.settle(h.Producer, holder, fresh && h.Height == f.fetches[h.Producer].from)
		}
	}
	for p := range f.fetches {
		if st := &f.fetches[p]; st.asked > 0 && st.holders[st.attempt] == holder {
			f.arm(wire.NodeID(p))
		}
	}
}

// settle closes producer's outstanding request when its answer is in —
// from just delivered bundles of that producer, answer telling whether they
// answer it with anything new — or is not coming (from is NoNode: the timer
// fired), and asks for what is still wanted. A request cut short or left
// unanswered sends the next one to the next holder; a complete answer keeps
// the rotation where it is.
func (f *FetchPlane) settle(producer, from wire.NodeID, answer bool) {
	st := &f.fetches[producer]
	if st.asked == 0 {
		return
	}
	if f.mp.Tip(producer) < st.asked {
		if from != wire.NoNode && (from != st.holders[st.attempt] || !answer) {
			// Someone else's bundles, or the late answer to a request this
			// holder was sent before: the answer that counts is still due.
			return
		}
		st.attempt++
		f.retries++
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

func (f *FetchPlane) clear(st *fetchState) {
	if st.timer != nil {
		st.timer.Stop()
	}
	*st = fetchState{}
}

// DropHolder takes holder out of every rotation: it was quarantined, and
// its answers are dropped at the owner's receive gate, so nothing it was
// asked will arrive. A need whose outstanding request went to it is stated
// afresh, to a rotation the owner draws up without it.
func (f *FetchPlane) DropHolder(holder wire.NodeID) {
	for p := range f.fetches {
		st := &f.fetches[p]
		if st.asked > 0 && st.holders[st.attempt] == holder {
			want := st.want
			f.clear(st)
			f.Need(wire.NodeID(p), want, wire.NoNode, wire.NoNode)
		} else if i := slices.Index(st.holders, holder); i >= 0 {
			st.holders = slices.Delete(st.holders, i, i+1)
			if i < st.attempt {
				st.attempt--
			}
		}
	}
}

// Reset drops every fetch, needs included: after a restart (the timers died
// with the crash) or a skip-sync (what was being fetched is pruned), the
// owner states its needs again.
func (f *FetchPlane) Reset() {
	for p := range f.fetches {
		f.clear(&f.fetches[p])
	}
}

// ServeBundles answers a BundleRequest from mp, for both node kinds: with
// the prefix of the asked range that is held, at most maxServe bundles. A
// holder one bundle behind the requester's need still answers with the
// rest, instead of staying silent and costing the requester a retry delay.
func ServeBundles(ctx env.Context, mp *Mempool, from wire.NodeID, req *BundleRequest) {
	if int(req.Producer) >= mp.params.NC || req.From == 0 || req.To < req.From {
		return
	}
	to := min(req.To, req.From+maxServe-1, mp.Tip(req.Producer))
	if bundles := mp.Range(req.Producer, req.From-1, to); len(bundles) > 0 {
		ctx.Send(from, &BundleResponse{Bundles: bundles})
	}
}
