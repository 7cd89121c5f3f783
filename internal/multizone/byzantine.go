package multizone

import (
	"predis/internal/core"
	"predis/internal/wire"
)

// Byzantine hardening for the zone data plane (the paper's §IV-B threat
// model). Full nodes count cryptographic offenses per peer — stripes
// whose Merkle proof or bundle-header signature fails verification —
// state a fetch need for the damaged bundle that leaves the offender out
// of the holder rotation (fetch.go), and quarantine repeat offenders
// behind a TTL blacklist that feeds every peer-selection path: the
// Receive gate, Algorithm 1's candidate order, relayer announcements,
// bootstrap tables, and the memoized subscriber fan-out. Withholding is
// handled separately: a sender that stays alive but never contributes its
// stripe fails no verification, so it is starved out by a harmless
// resubscribe (opt-in, see FullNodeConfig.StarveRewireAfter) and never
// quarantined — benign crash/loss runs keep rejected, refetches, and
// quarantines at exactly zero.

// ByzStats returns the Byzantine-hardening counters: stripes rejected on
// verification failure, damaged bundles whose refetch opened a holder
// rotation without the offender, peers quarantined, and stripe
// subscriptions rewired away from starving senders. All four are zero on
// benign runs (rewires requires the opt-in StarveRewireAfter; the rest
// require a verification failure).
func (f *FullNode) ByzStats() (rejected, refetches, quarantines, rewires uint64) {
	return f.rejected, f.refetches, f.quarantines, f.rewires
}

// isQuarantined reports whether a peer is currently blacklisted; entries
// past their TTL are removed lazily on the first check, which re-admits
// the peer to every selection path at once.
func (f *FullNode) isQuarantined(id wire.NodeID) bool {
	exp, ok := f.quarantined[id]
	if !ok {
		return false
	}
	if f.ctx.Now().Before(exp) {
		return true
	}
	delete(f.quarantined, id)
	return false
}

// recordOffense charges one cryptographic offense against a peer and
// quarantines it once quarantineAfter is reached. Only forged
// proofs and bad signatures are ever charged — never gaps, timeouts, or
// losses — so an honest-but-unlucky peer cannot cross the threshold.
func (f *FullNode) recordOffense(from wire.NodeID) {
	f.offenses[from]++
	if f.offenses[from] >= quarantineAfter {
		f.quarantine(from)
	}
}

// quarantine blacklists a peer for quarantineTTL and severs every role it
// plays in this node's topology: stripe sender, subscriber, pending
// subscription target, and relayer-table entry (tombstoned, so a
// post-expiry honest announcement still versions monotonically).
// Algorithm 1 then re-wires the orphaned stripes through alternates.
func (f *FullNode) quarantine(id wire.NodeID) {
	f.quarantines++
	delete(f.offenses, id)
	f.quarantined[id] = f.ctx.Now().Add(f.quarantineTTL())
	for s, sd := range f.stripeSender {
		if sd == id {
			delete(f.stripeSender, s)
			delete(f.consensusDir, s)
		}
	}
	for s, to := range f.pendingSub {
		if to == id {
			delete(f.pendingSub, s)
		}
	}
	for s, subs := range f.subscribers {
		if subs[id] {
			delete(subs, id)
			f.subCount--
			f.subsChanged()
		}
		if len(subs) == 0 {
			delete(f.subscribers, s)
		}
	}
	if info := f.zoneRelayers[id]; info != nil {
		info.stripes = nil // tombstone: no longer a candidate, version preserved
	}
	f.ctx.Logf("multizone: node %d quarantined %d for %v",
		f.cfg.Self, id, f.quarantineTTL())
	f.resetFetches(id)
	f.runSubscription()
}

// headerAuthentic checks a bundle header's producer signature (used
// before trusting the coordinates of a stripe that failed verification).
func (f *FullNode) headerAuthentic(h *core.BundleHeader) bool {
	return int(h.Producer) < f.cfg.NC &&
		f.cfg.Signer.Verify(int(h.Producer), h.Hash(), h.Sig)
}

// starveGraceIntervals is the starvation detector's silence threshold in
// units of AliveInterval: a subscribed sender is only chargeable as
// starving once it has delivered no stripe-s traffic for this long
// (see noteStarvation).
const starveGraceIntervals = 2

// noteStarvation runs when a bundle reassembles: a stripe missing at
// assembly time is charged one starvation point only when its subscribed
// sender has also gone silent for starveGraceIntervals heartbeats — a
// bundle assembles as soon as n_c−f stripes arrive, so the slowest
// sender's stripe is routinely absent at assembly while still in flight,
// and charging mere lateness rewires healthy subscriptions in a loop. At
// StarveRewireAfter consecutive starved-and-silent assemblies the stripe
// is rewired to an alternate source. Withholding fails no verification,
// so this path never quarantines; it is opt-in (zero disables it) because
// a single receiver cannot distinguish withholding from path loss.
func (f *FullNode) noteStarvation(p *partialBundle) {
	if f.cfg.StarveRewireAfter <= 0 {
		return
	}
	grace := starveGraceIntervals * f.cfg.AliveInterval
	for s := 0; s < f.cfg.NC; s++ {
		si := uint8(s)
		if p.stripes[s] != nil {
			delete(f.starve, si)
			continue
		}
		if _, ok := f.stripeSender[si]; !ok {
			continue // no subscription to blame; Algorithm 1 owns repair
		}
		if f.ctx.Now().Sub(f.stripeSeen[si]) < grace {
			delete(f.starve, si) // sender is live, just not among the fastest n_c−f
			continue
		}
		f.starve[si]++
		if f.starve[si] >= f.cfg.StarveRewireAfter {
			delete(f.starve, si)
			f.rewireStripe(si)
		}
	}
}

// rewireStripe moves one starved stripe to an alternate source: the
// earliest-joined other relayer serving it, else straight to the
// consensus node that produces it.
func (f *FullNode) rewireStripe(s uint8) {
	cur := f.stripeSender[s]
	best := wire.NoNode
	var bestSeq uint64
	for id, info := range f.zoneRelayers {
		if id == cur || id == f.cfg.Self || !info.active() || f.isQuarantined(id) {
			continue
		}
		if containsStripe(info.stripes, s) && (best == wire.NoNode || info.joinSeq < bestSeq) {
			best, bestSeq = id, info.joinSeq
		}
	}
	if best == wire.NoNode {
		if cur == wire.NodeID(s) || f.isQuarantined(wire.NodeID(s)) {
			return // already at the source, or the source itself is out
		}
		best = wire.NodeID(s)
	}
	f.rewires++
	f.ctx.Logf("multizone: node %d rewiring starved stripe %d from %d to %d",
		f.cfg.Self, s, cur, best)
	f.resubscribe(s, best)
}
