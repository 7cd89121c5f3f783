package multizone

import (
	"predis/internal/wire"
)

// Byzantine hardening for the zone data plane (the paper's §IV-B threat
// model). Full nodes count cryptographic offenses per peer — stripes
// whose Merkle proof or bundle-header signature fails verification —
// state a fetch need for the damaged bundle that leaves the offender out
// of the holder rotation (FullNode.holders), and quarantine repeat offenders
// behind a TTL blacklist that feeds every peer-selection path: the
// Receive gate, the placement rule's liveness (a quarantined member relays
// nothing), spare and referral choice, and the subscription table.
// Withholding is handled separately: a sender that stays alive but never
// contributes its stripe fails no verification, so the silence rule
// (spare.go) works around it with a spare index and never quarantines it
// — benign crash/loss runs keep rejected, refetches, and quarantines at
// exactly zero.

// ByzStats returns the Byzantine-hardening counters: stripes rejected on
// verification failure, damaged bundles whose refetch opened a holder
// rotation without the offender, peers quarantined, and spare indices
// taken while a subscribed sender was silent. The first three are zero on
// benign runs (they require a verification failure); spares also answer a
// crashed sender.
func (f *FullNode) ByzStats() (rejected, refetches, quarantines, spares uint64) {
	return f.rejected, f.refetches, f.quarantines, f.sparesTaken
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
// plays in this node's topology: stripe sender, subscriber and pending
// subscription target. The placement rule then skips it, so what it
// relayed is subscribed from the next candidates.
func (f *FullNode) quarantine(id wire.NodeID) {
	f.quarantines++
	delete(f.offenses, id)
	f.quarantined[id] = f.ctx.Now().Add(f.quarantineTTL())
	for s := range f.links {
		l := &f.links[s]
		if l.sender == id {
			l.sender, l.direct = wire.NoNode, false
		}
		if l.pending == id {
			l.pending = wire.NoNode
		}
		f.setSubscriber(uint8(s), id, false)
	}
	f.ctx.Logf("multizone: node %d quarantined %d for %v",
		f.cfg.Self, id, f.quarantineTTL())
	f.fetch.DropHolder(id)
	f.place()
}
