package multizone

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// The silence rule. A full node receives n_c − f stripe indices per bundle
// (wanted), so a subscribed index that stops arriving blocks assembly
// instead of being routinely late. Two things hold an index s up:
//
//   - silence: its sender has sent none of s for silenceAfter while other
//     indices keep flowing — a crashed consensus node or relayer, a
//     withholding relayer, or a subscription loop that no stripe ever
//     enters;
//   - a stuck bundle: one that a pending block waits for has sat
//     silenceAfter one stripe short, without s, while s keeps coming — its
//     sender is congested, like a consensus node that is back from a crash
//     and catching up.
//
// For an index held up either way the node takes one spare: an index it
// does not hold, from that index's relayer (the rotation spreads nodes
// over different indices, so their spares land on different relayers).
// Only a silent index may take its spare from a consensus node, when no
// other zone member relays one: a stuck bundle can as well come from the
// node's own downlink being full, and adding a stripe stream to a consensus
// node's uplink for it would let full-node load reach consensus. The
// spare's sender backfills the stripes it still holds, so the bundles
// already in flight assemble too. A silent sender is also asked again, or
// replaced: s is subscribed from its relayer (from its consensus node if
// this node relays s), which is the sender itself unless the sender is a
// stale relayer or a loop; a relayer that leaves that subscribe unanswered
// counts as down, and the placement moves s to its next candidate. The
// spare goes once s holds nothing up any more, whether heard from the old
// sender or its replacement, and no bundle since the spare was taken has
// gone without it (missed); if s is dropped instead (its sender expired or
// left), the spare takes its place.

// spare is an index taken beyond n_c − f, at time at, while index silent
// holds assembly up.
type spare struct {
	silent, index uint8
	at            time.Time
}

// silenceAfter is how long a subscribed index may go unheard while others
// flow before it counts as silent, and how long a bundle may wait for it.
// Stripes of one index arrive once per bundle of every producer, so a live
// sender is heard many times within it.
func (f *FullNode) silenceAfter() time.Duration { return f.cfg.AliveInterval / 2 }

// resubscribeAfter is how long a subscription request may go unanswered
// before it is sent again.
func (f *FullNode) resubscribeAfter() time.Duration { return 4 * f.cfg.AliveInterval }

// heardAt is when a subscribed index was last heard, and the count of
// partials opened by then.
type heardAt struct {
	at     time.Time
	opened uint64
}

// heard reports whether stripe s came from its sender within silenceAfter,
// or fewer than n_c bundles began to arrive since: with no fresh bundles
// (the load paused, or only the tail of the last ones is still being
// relayed) an index that is not heard is not missed.
func (f *FullNode) heard(s uint8, now time.Time) bool {
	h := f.links[s].heard
	return now.Sub(h.at) <= f.silenceAfter() || f.opened-h.opened < uint64(f.cfg.NC)
}

// stuckIndices returns which indices hold up a bundle a pending block waits
// for: it has sat silenceAfter one stripe short, without them. Nil means
// none. (A bundle no block names may never be committed — its producer
// crashed while disseminating it — and a bundle stored by pull waits for
// nothing.) One pass over the partials in flight: onBlock asks on every
// block.
func (f *FullNode) stuckIndices(now time.Time) []bool {
	var stuck []bool
	for _, p := range f.inflight {
		if p.have != f.cfg.NC-f.cfg.F-1 || now.Sub(p.since) <= f.silenceAfter() ||
			!f.awaited(p.producer, p.height) || f.mp.Bundle(p.producer, p.height) != nil {
			continue
		}
		if stuck == nil {
			stuck = make([]bool, f.cfg.NC)
		}
		for s, st := range p.stripes {
			stuck[s] = stuck[s] || st == nil
		}
	}
	return stuck
}

// missed reports whether a bundle that began to arrive after spare sp was
// taken has gone silenceAfter without a stripe of the index sp stands in
// for: that index is not back for every bundle yet (a consensus node
// catching up stripes only its own), and dropping the spare now would leave
// the next bundles one stripe short.
func (f *FullNode) missed(sp spare, now time.Time) bool {
	for _, p := range f.partials {
		if p.stripes[sp.silent] == nil && sp.at.Before(p.since) && now.Sub(p.since) > f.silenceAfter() {
			return true
		}
	}
	return false
}

// awaited reports whether a pending block names producer's bundle at height.
func (f *FullNode) awaited(producer wire.NodeID, height uint64) bool {
	for _, blk := range f.pendBlocks {
		if blk != nil && int(producer) < len(blk.Cuts) && blk.Cuts[producer].Height >= height {
			return true
		}
	}
	return false
}

// isSpare reports whether index s is held as a spare.
func (f *FullNode) isSpare(s uint8) bool {
	for _, sp := range f.spares {
		if sp.index == s {
			return true
		}
	}
	return false
}

// hasSpare reports whether index s is covered by a spare.
func (f *FullNode) hasSpare(s uint8) bool {
	_, ok := f.spareFor(s)
	return ok
}

// spareFor returns when the spare covering index s was taken.
func (f *FullNode) spareFor(s uint8) (time.Time, bool) {
	for _, sp := range f.spares {
		if sp.silent == s {
			return sp.at, true
		}
	}
	return time.Time{}, false
}

// checkSilence applies the silence rule; onStripe runs it at most every
// silenceAfter/2, onBlock on every block.
//
//predis:coldpath
func (f *FullNode) checkSilence(now time.Time) {
	f.silenceAt = now.Add(f.silenceAfter() / 2)
	stuckSet := f.stuckIndices(now)
	stuck := func(s uint8) bool { return stuckSet != nil && stuckSet[s] }
	for i := len(f.spares) - 1; i >= 0; i-- {
		sp := f.spares[i]
		switch {
		case !f.held(sp.index), !f.held(sp.silent):
			// The spare's sender went away (a new spare may be taken below),
			// or the silent index did and the spare took its place.
			f.spares = slices.Delete(f.spares, i, i+1)
		case f.heard(sp.silent, now) && !stuck(sp.silent) && !f.missed(sp, now):
			f.dropSpare(i)
		}
	}
	for s := 0; s < f.cfg.NC; s++ {
		si, l := uint8(s), &f.links[s]
		sd := l.sender
		if sd == wire.NoNode || l.pending != wire.NoNode || f.isSpare(si) {
			continue
		}
		silent := !f.heard(si, now)
		if !silent && !stuck(si) {
			continue
		}
		if !f.hasSpare(si) && len(f.spares) < f.cfg.F {
			f.takeSpare(si, sd, silent)
		}
		if !silent || sd == wire.NodeID(si) || now.Sub(l.asked) <= f.resubscribeAfter() {
			continue // a late sender is live; the source itself renews its subscribers' leases at a restart; or it was just asked
		}
		l.asked = now
		// si's relayer may have restarted and forgotten us, or its source
		// be down: it is asked again (a withholder just accepts, and the
		// spare stays). Any other sender is replaced by the relayer.
		if to := f.upstream(si); !f.isQuarantined(to) {
			f.sendSubscribe(to, []uint8{si})
		}
	}
}

// takeSpare subscribes one spare index for index s, whose sender is sd;
// from a consensus node only if s is silent.
func (f *FullNode) takeSpare(s uint8, sd wire.NodeID, silent bool) {
	idx, from := f.spareSource(sd, silent)
	if from == wire.NoNode {
		return
	}
	f.spares = append(f.spares, spare{silent: s, index: idx, at: f.ctx.Now()})
	f.sparesTaken++
	f.ctx.Logf("multizone: node %d: stripe %d held up at %d, spare stripe %d from %d",
		f.cfg.Self, s, sd, idx, from)
	f.sendSubscribe(from, []uint8{idx})
}

// spareSource picks the spare: the first index of the rotation this node
// does not hold whose relayer is another member than sd, else, with
// consensus set, the first such index from its consensus node.
func (f *FullNode) spareSource(sd wire.NodeID, consensus bool) (uint8, wire.NodeID) {
	for k := 0; k < f.cfg.NC; k++ {
		if s := f.rotation(k); !f.held(s) {
			if r := f.relayerOf(s); r != sd && r != f.cfg.Self {
				return s, r
			}
		}
	}
	for k := 0; k < f.cfg.NC && consensus; k++ {
		if s := f.rotation(k); !f.held(s) && wire.NodeID(s) != sd && !f.isQuarantined(wire.NodeID(s)) {
			return s, wire.NodeID(s)
		}
	}
	return 0, wire.NoNode
}

// dropSpare ends spare i. An index this node now forwards stays, as a
// regular one (trimSubscriptions settles the count).
func (f *FullNode) dropSpare(i int) {
	idx := f.spares[i].index
	l := &f.links[idx]
	if len(l.subs) > 0 {
		f.keepSpare(i)
		return
	}
	f.spares = slices.Delete(f.spares, i, i+1)
	for _, to := range []*wire.NodeID{&l.sender, &l.pending} {
		if *to != wire.NoNode {
			f.ctx.Send(*to, &Unsubscribe{Stripes: []uint8{idx}})
			*to = wire.NoNode
		}
	}
}

// keepSpare turns spare i into a regular index. One taken from its
// consensus node is relayed here until the placement moves it to its
// relayer.
func (f *FullNode) keepSpare(i int) {
	idx := f.spares[i].index
	f.spares = slices.Delete(f.spares, i, i+1)
	if l := &f.links[idx]; l.sender == wire.NodeID(idx) {
		l.direct = true
	}
}

// backfill sends a new subscriber the stripes of the given indices this
// node holds for bundles not yet confirmed, in (producer, height, header
// hash) order, so a subscription that stands in for a silent sender also
// covers bundles already in flight.
func (f *FullNode) backfill(to wire.NodeID, stripes []uint8) {
	var held []crypto.Hash
	for h, p := range f.partials {
		for _, s := range stripes {
			if p.known && p.stripes[s] != nil {
				held = append(held, h)
				break
			}
		}
	}
	slices.SortFunc(held, func(a, b crypto.Hash) int {
		pa, pb := f.partials[a], f.partials[b]
		return cmp.Or(cmp.Compare(pa.producer, pb.producer), cmp.Compare(pa.height, pb.height), bytes.Compare(a[:], b[:]))
	})
	for _, h := range held {
		p := f.partials[h]
		for _, s := range stripes {
			if st := p.stripes[s]; st != nil {
				f.ctx.Send(to, st)
			}
		}
	}
}
