package multizone

import (
	"errors"
	"slices"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/ledger"
	"predis/internal/obs"
	"predis/internal/wire"
)

// onStripe handles the stripe data plane (§IV-D): verify, store, forward
// down the subscription tree, and reassemble the bundle once n_c−f stripes
// arrived. A reference stripe that arrives before any carrier of its
// header is parked until one does. Up to completeBundle it allocates
// nothing in steady state.
//
//predis:hotpath
func (f *FullNode) onStripe(from wire.NodeID, m *StripeMsg) {
	if int(m.Index) >= f.cfg.NC {
		f.rejectStripe(from, m, false, ErrStripeProof)
		return
	}
	// Liveness of the subscribed sender, before any dedup: a late stripe
	// still counts, only silence takes a spare (forgeries are charged by the
	// offense counter below, never by the silence rule).
	now := f.ctx.Now()
	if l := &f.links[m.Index]; l.sender == from {
		l.heard = heardAt{now, f.opened}
	}
	if !now.Before(f.silenceAt) {
		f.checkSilence(now)
	}
	headerHash := m.BundleHash()
	p := f.partials[headerHash]
	if p != nil && p.stripes[m.Index] != nil {
		return // duplicate stripe, or one parked at this index already
	}
	// Already assembled via another path (bundle pull)? (A bundle assembled
	// here still takes the stripes that come late, below: this node's
	// subscribers of that index take exactly n_c − f indices too.)
	if (p == nil || !p.done) && f.mp.Bundle(m.Header.Producer, m.Header.Height) != nil {
		f.forwardStripe(from, m)
		return
	}
	switch {
	case p != nil && p.known:
		if err := f.cfg.Striper.VerifyStripe(p.root(), m); err != nil {
			f.rejectStripe(from, m, true, err)
			return
		}
		f.accept(p, from, m)
	case m.Ref:
		f.park(p, headerHash, from, m)
		return
	default:
		if err := f.cfg.Striper.VerifyStripe(m.Header.StripeRoot, m); err != nil {
			f.rejectStripe(from, m, false, err)
			return
		}
		// The header signature, once per header in the process: a carrier
		// stamped from a verified bundle answers from its memo (see stripe).
		if int(m.Header.Producer) >= f.cfg.NC || !m.Header.VerifySig(f.cfg.Signer) {
			f.rejectStripe(from, m, false, nil)
			return
		}
		p = f.openPartial(p, headerHash, m)
		f.accept(p, from, m)
		if p.parked > 0 {
			f.resolveParked(p, p.root())
		}
	}
	if !p.done && p.have >= f.cfg.Striper.MinStripes() {
		f.completeBundle(headerHash, p)
	}
}

// accept stores a verified stripe in its partial, counts it and relays it.
func (f *FullNode) accept(p *partialBundle, from wire.NodeID, m *StripeMsg) {
	p.stripes[m.Index] = m
	p.have++
	f.stripesIn++
	f.forwardStripe(from, m)
}

// rejectStripe charges the sender of a stripe that failed verification: a
// bad Merkle proof (err non-nil) or, on a bundle's first carrier, a bad
// header signature.
//
//predis:coldpath
func (f *FullNode) rejectStripe(from wire.NodeID, m *StripeMsg, known bool, err error) {
	if err == nil {
		f.ctx.Logf("multizone: stripe with bad header signature from %d", from)
	} else {
		f.ctx.Logf("multizone: bad stripe from %d: %v", from, err)
	}
	f.rejected++
	f.recordOffense(from)
	// Re-request the damaged bundle from an alternate holder — but only
	// when the header itself is authentic (a partial we already
	// signature-checked, or one that verifies now); a forged header's
	// coordinates are not worth chasing.
	if err != nil && (known || int(m.Header.Producer) < f.cfg.NC && m.Header.VerifySig(f.cfg.Signer)) &&
		f.fetch.Need(m.Header.Producer, m.Header.Height, wire.NoNode, from) {
		f.refetches++
	}
}

// park holds a reference stripe whose header has not arrived in the
// header-less partial its header hash opens, until a carrier authenticates
// it (see resolveParked). A parked stripe is neither forwarded nor counted.
// What a reference claims is unauthenticated, so a producer has at most
// maxHeaderless header-less partials, and a reference at one of its
// carrier indices — which an honest node never sends — is dropped.
func (f *FullNode) park(p *partialBundle, headerHash crypto.Hash, from wire.NodeID, m *StripeMsg) {
	producer := m.Header.Producer
	if int(producer) >= f.cfg.NC || headerCarrier(int(m.Index), producer, f.cfg.NC, f.cfg.F) {
		return
	}
	if p == nil {
		if f.headerless[producer] >= maxHeaderless {
			return
		}
		f.headerless[producer]++
		p = f.newPartial(headerHash)
		p.producer, p.height, p.since = producer, m.Header.Height, f.ctx.Now()
	}
	if p.senders == nil {
		p.senders = make([]wire.NodeID, f.cfg.NC) //predis:allocok once per partial, kept across recycling
	}
	p.stripes[m.Index], p.senders[m.Index] = m, from
	p.parked++
	f.parkedIn++
}

// resolveParked runs once an authenticated header with the given
// StripeRoot arrived for p — on a carrier, or with the whole bundle pulled:
// the references parked in p are checked against the root in index order,
// then relayed and counted, or charged to their senders.
func (f *FullNode) resolveParked(p *partialBundle, root crypto.Hash) {
	for i, st := range p.stripes {
		if st == nil || p.known && i == int(p.first) {
			continue
		}
		p.stripes[i] = nil
		if err := f.cfg.Striper.VerifyStripe(root, st); err != nil {
			f.rejectStripe(p.senders[i], st, true, err)
			continue
		}
		f.accept(p, p.senders[i], st)
	}
	f.parkResolved += uint64(p.parked)
	f.parkWaitMax = max(f.parkWaitMax, f.ctx.Now().Sub(p.since))
	p.parked = 0
}

// newPartial enters a partial for headerHash, reusing a recycled entry
// when one is free; the caller fills in what it knows.
func (f *FullNode) newPartial(headerHash crypto.Hash) *partialBundle {
	var p *partialBundle
	if n := len(f.freePartials); n > 0 {
		p, f.freePartials = f.freePartials[n-1], f.freePartials[:n-1]
	} else {
		p = &partialBundle{stripes: make([]*StripeMsg, f.cfg.NC)} //predis:allocok free-list miss
	}
	f.partials[headerHash] = p
	f.opened++
	return p
}

// openPartial makes p — nil, or a header-less partial of parked references
// — the partial of the bundle whose carrier m has just been authenticated.
// The coordinates are the header's: a reference's claims are not trusted.
func (f *FullNode) openPartial(p *partialBundle, headerHash crypto.Hash, m *StripeMsg) *partialBundle {
	if p == nil {
		p = f.newPartial(headerHash)
		p.since = f.ctx.Now()
	} else {
		f.headerless[p.producer]--
	}
	p.producer, p.height, p.first, p.known = m.Header.Producer, m.Header.Height, m.Index, true
	p.slot = len(f.inflight)
	f.inflight = append(f.inflight, p)
	return p
}

// leaveInflight removes a known partial from inflight as it completes or
// is dropped.
func (f *FullNode) leaveInflight(p *partialBundle) {
	n := len(f.inflight) - 1
	last := f.inflight[n]
	f.inflight[p.slot], last.slot = last, p.slot
	f.inflight[n] = nil
	f.inflight = f.inflight[:n]
}

// dropPartial removes p, the entry for h, from partials and resets it onto
// the free list: no stripes, coordinates or flags survive into the next
// life, and a header-less entry's parked stripes count as expired.
func (f *FullNode) dropPartial(h crypto.Hash, p *partialBundle) {
	delete(f.partials, h)
	switch {
	case !p.known:
		f.headerless[p.producer]--
		f.parkExpired += uint64(p.parked)
	case !p.done:
		f.leaveInflight(p)
	}
	clear(p.stripes)
	*p = partialBundle{stripes: p.stripes, senders: p.senders}
	f.freePartials = append(f.freePartials, p)
}

// completeBundle reassembles a bundle that has n_c−f stripes and stores
// it. It runs once per bundle, and the mempool insert, block completion
// and — on the first node to assemble it — the body decode allocate by
// design, so the relay path's zero-allocation region ends here.
//
//predis:coldpath
func (f *FullNode) completeBundle(headerHash crypto.Hash, p *partialBundle) {
	b, err := f.cfg.Striper.reassemble(&p.stripes[p.first].Header, p.stripes)
	if err != nil {
		// Possible with exactly n_c−f stripes if one was forged with a
		// colliding proof; wait for more stripes.
		if p.have >= f.cfg.NC {
			f.ctx.Logf("multizone: bundle %s unreconstructable: %v", headerHash.Short(), err)
			f.dropPartial(headerHash, p)
		}
		return
	}
	// The entry stays to dedupe, and keeps its stripes for a subscriber that
	// arrives before the bundle is confirmed (see backfill).
	p.done = true
	f.leaveInflight(p)
	f.storeBundle(b)
	f.tryCompleteBlocks()
}

// forwardStripe relays a stripe to this node's subscribers for its index,
// in ID order.
func (f *FullNode) forwardStripe(from wire.NodeID, m *StripeMsg) {
	for _, id := range f.links[m.Index].subs {
		if id != from {
			f.ctx.Send(id, m)
		}
	}
}

// storeBundle inserts an assembled or pulled bundle into the local chains
// and reports whether it was new. Out-of-order arrivals are buffered by the
// mempool and linked when the gap fills. A reassembled bundle's header
// keeps its carrier's signature memo and reassembly checked its body, so
// only a pulled bundle pays the checks.
func (f *FullNode) storeBundle(b *core.Bundle) bool {
	res, _, miss, err := f.mp.AddBundle(b)
	switch {
	case err != nil:
		if !errors.Is(err, core.ErrBannedProducer) {
			f.ctx.Logf("multizone: bundle rejected: %v", err)
		}
	case res == core.Buffered && miss != nil:
		if !f.arriving(miss.Producer, miss.From) {
			f.fetch.Need(miss.Producer, miss.To, wire.NoNode, wire.NoNode)
		}
		return true
	case res == core.Added:
		f.bundles++
		// A pulled bundle authenticates the references parked for it like a
		// carrier: relay them, so the subscribers are not left short, and
		// let the stored bundle answer the stripes still to come.
		if p := f.partials[b.Header.Hash()]; p != nil && !p.known {
			f.resolveParked(p, b.Header.StripeRoot)
			f.dropPartial(b.Header.Hash(), p)
		}
		// stripe_distributed: distributor anchor → bundle assembled at this
		// full node (first completion wins per node).
		f.cfg.Trace.SpanSinceMark(obs.StageStripeDistributed,
			obs.BundleKey(b.Header.Producer, b.Header.Height), f.cfg.Self, f.ctx.Now())
		if f.cfg.OnBundle != nil {
			f.cfg.OnBundle(b)
		}
		return true
	}
	return false
}

// onBlock handles a Predis block arriving over the relayer tree: verify,
// forward the very block received, and complete once every referenced
// bundle is locally held. The block's hash, signature and root are checked
// once per process (see core.PredisBlock), so the node after the first
// pays only for the checks against its own chains.
//
//predis:hotpath
func (f *FullNode) onBlock(from wire.NodeID, blk *core.PredisBlock) {
	head := f.LastHeight()
	if blk.Height <= head {
		return // completed here already, or off the committed chain
	}
	h := blk.Hash()
	if _, seen := f.seenBlocks[h]; seen {
		return
	}
	if int(blk.Leader) >= f.cfg.NC || !blk.VerifySig(f.cfg.Signer) {
		f.ctx.Logf("multizone: block with bad signature from %d", from) //predis:allocok reject path
		return
	}
	f.seenBlocks[h] = blk.Height
	// A live block leaping past our head means we missed blocks (restart,
	// late join, or lost stripes): back-fill the gap immediately instead
	// of waiting for the periodic digest, which a zone without backup
	// peers never even sends.
	if blk.Height > head+1 {
		f.StartCatchup()
		f.catchup.Claim(from, blk.Height-1)
	}
	// Forward to every subscriber (each at most once, in ID order).
	for _, id := range f.subscribers {
		if id != from {
			f.ctx.Send(id, blk)
		}
	}
	f.pendBlocks = append(f.pendBlocks, blk)
	// Before the block states its needs: a bundle it waits for may be
	// stuck, and the spare that takes gives its stripes a new way in.
	f.checkSilence(f.ctx.Now())
	f.tryCompleteBlocks()
}

// tryCompleteBlocks completes every pending block whose bundles are all
// held, in chain order, and states a fetch need for what the next one
// still misses. Completion allocates by design (execution, the ledger,
// fetch needs), so onBlock's zero-allocation region ends here; the block
// checks it runs are hot-path roots of their own.
//
//predis:coldpath
func (f *FullNode) tryCompleteBlocks() {
	progress := true
	for progress {
		progress = false
		for i, blk := range f.pendBlocks {
			if blk == nil {
				continue
			}
			if _, head := f.mp.Head(); blk.Parent != head {
				continue // must complete the parent first
			}
			missing, err := f.mp.ValidateNext(blk)
			var bundles []*core.Bundle
			if err == nil {
				bundles, err = f.mp.Commit(blk)
			}
			switch {
			case err == nil:
				txs := 0
				for _, b := range bundles {
					txs += len(b.Txs)
				}
				f.blocks++
				f.pendBlocks[i] = nil
				progress = true
				// Execute before persisting so the ledger entry commits
				// to the post-block account state, not just the ordering.
				// After a skip-sync the executor has missed blocks: it
				// reports a zero root, and that is what gets persisted.
				var stateRoot crypto.Hash
				if f.cfg.Executor != nil {
					intact := f.cfg.Executor.Stats().Gaps == 0
					f.blockTxs = core.BlockTxs(f.blockTxs[:0], bundles)
					r := f.cfg.Executor.ExecuteBlock(nil, blk.Height, f.blockTxs)
					stateRoot = r.StateRoot
					if intact && stateRoot.IsZero() {
						f.ctx.Logf("multizone: node %d executes height %d across a gap; its state roots are zero from here on",
							f.cfg.Self, blk.Height)
					}
					now := f.ctx.Now()
					f.cfg.Trace.Span(obs.StageExecuted,
						obs.BlockKey(blk.Height), f.cfg.Self, now, now)
					if f.cfg.OnExecute != nil {
						f.cfg.OnExecute(r)
					}
				}
				if f.cfg.Ledger != nil {
					if lerr := f.cfg.Ledger.Append(ledger.Entry{
						Height:    blk.Height,
						Hash:      blk.Hash(),
						Parent:    blk.Parent,
						TxRoot:    blk.TxRoot,
						StateRoot: stateRoot,
						TxCount:   uint32(txs),
					}); lerr != nil {
						f.ctx.Logf("multizone: ledger append: %v", lerr)
					}
				}
				// fullnode_delivered: distributor anchor → block fully
				// reconstructed (Predis block + every referenced bundle).
				f.cfg.Trace.SpanSinceMark(obs.StageFullNodeDelivered,
					obs.BlockKey(blk.Height), f.cfg.Self, f.ctx.Now())
				if f.cfg.OnBlockComplete != nil {
					f.cfg.OnBlockComplete(blk, txs)
				}
			case errors.Is(err, core.ErrBlockMissing):
				for _, ms := range missing {
					if !f.arriving(ms.Producer, ms.From) {
						f.fetch.Need(ms.Producer, ms.To, f.source(ms.Producer), wire.NoNode)
					}
				}
			default:
				f.ctx.Logf("multizone: block %d invalid: %v", blk.Height, err)
				f.pendBlocks[i] = nil
			}
		}
	}
	// Compact completed slots.
	kept := f.pendBlocks[:0]
	for _, blk := range f.pendBlocks {
		if blk != nil {
			kept = append(kept, blk)
		}
	}
	f.pendBlocks = kept
	f.catchup.Check()
}

// arriving reports whether producer's bundle at height is arriving as
// stripes: a partial of it (header-less ones go by the coordinates their
// references claim) is short of an index whose sender this node still
// hears, or that a spare stands in for, and has waited less than an alive
// interval — since its first stripe, or since that spare was taken, which
// gave the stripe a new way in. A node takes exactly n_c − f indices, so a
// bundle waits for its slowest one, and pulling it whole from a sender that
// is merely late only adds to the load that made it late. A need for it is
// stated once the wait is over (the alive tick restates a block's needs),
// at once if the index it lacks went silent with no spare, or if nothing
// of it has arrived.
func (f *FullNode) arriving(producer wire.NodeID, height uint64) bool {
	now := f.ctx.Now()
	for _, p := range f.partials {
		if p.done || p.producer != producer || p.height != height {
			continue
		}
		for s, st := range p.stripes {
			if f.links[s].sender == wire.NoNode || st != nil {
				continue
			}
			since := p.since
			if at, ok := f.spareFor(uint8(s)); ok {
				if since.Before(at) {
					since = at
				}
			} else if !f.heard(uint8(s), now) {
				continue
			}
			if now.Sub(since) < f.cfg.AliveInterval {
				return true
			}
		}
		return false
	}
	return false
}

// source names who is asked first for a bundle a live block is waiting
// for — a fresh bundle, which peers may not hold yet. A relayer is its
// zone's link to the consensus group and asks the producer, the one node
// certain to hold it; every other node stays inside the zone and asks the
// peer that feeds it the producer's stripe. Consensus nodes thus serve at
// most the relayers of a zone, each its own bundles.
func (f *FullNode) source(producer wire.NodeID) wire.NodeID {
	if sd := f.links[producer].sender; sd != wire.NoNode && !f.IsRelayer() {
		return sd
	}
	return producer
}

// holders is a full node's fetch rotation for producer's bundles (the
// core.HolderFunc of its fetch plane): first; the backup peer this producer
// maps to (another zone, so correlated loss is unlikely); the node that
// feeds us the producer's stripe (a zone peer, or the producer itself for a
// stripe we relay); the other backup peers; the producer and the remaining
// consensus nodes in ring order. Never ourselves, avoid, or a quarantined
// peer. Starting from the holder a need names, not from whoever sent the
// block, spreads a zone's misses over all n_c consensus nodes by producer.
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
	add(f.links[producer].sender)
	for _, p := range f.cfg.BackupPeers {
		add(p)
	}
	for i := wire.NodeID(0); i < nc; i++ {
		add((producer + i) % nc)
	}
	return out
}

// armDigest exchanges ledger digests over backup connections (§IV-F).
func (f *FullNode) armDigest() {
	f.digestTimer = f.ctx.After(f.cfg.DigestInterval, func() {
		d := &BlockDigest{Height: f.LastHeight(), Tips: f.mp.Tips()}
		for _, p := range f.cfg.BackupPeers {
			f.ctx.Send(p, d)
		}
		f.armDigest()
	})
}

// onDigest pulls bundles we miss from a digest sender; when the digest
// also reveals we are behind on blocks (e.g. the relayer tree dropped a
// Predis block, or we just restarted), request the missing block run too.
func (f *FullNode) onDigest(from wire.NodeID, m *BlockDigest) {
	for i, remote := range m.Tips {
		if i >= f.cfg.NC {
			break
		}
		f.fetch.Need(wire.NodeID(i), remote, from, wire.NoNode)
	}
	if m.Height > f.LastHeight() {
		f.catchup.Ask(from)
	}
}

// sweepDataPlane bounds memory on long runs: partial-bundle entries whose
// bundles are confirmed (or pruned) leave the dedup map — assembled or not:
// a bundle that arrived by pull leaves its partial short of n_c−f stripes
// for good — as do header-less partials no carrier came for within
// staleAfter (their heights are unauthenticated claims, so the confirmed
// height alone would not bound them); block-hash entries go once the head
// reaches them, since onBlock drops what is at or below the head anyway.
func (f *FullNode) sweepDataPlane() {
	now := f.ctx.Now()
	for h, p := range f.partials {
		if p.height <= f.mp.ConfirmedHeight(p.producer) || !p.known && now.Sub(p.since) > f.staleAfter() {
			f.dropPartial(h, p)
		}
	}
	head := f.LastHeight()
	for h, height := range f.seenBlocks {
		if height <= head {
			delete(f.seenBlocks, h)
		}
	}
}
