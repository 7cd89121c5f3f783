package multizone

import (
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// Distributor is the consensus-node side of Multi-Zone (§IV-D): consensus
// node i erasure-codes every bundle it stores (its own and its peers') and
// sends stripe i to its subscribers — the relayers across all zones — and
// pushes each new Predis block to the same subscribers. Consensus
// bandwidth spent on full-node distribution is therefore one stripe per
// bundle plus one tiny block header per block, independent of the number
// of full nodes.
type Distributor struct {
	self    wire.NodeID
	nc      int
	striper *Striper
	ctx     env.Context

	subscribers map[wire.NodeID]bool
	lastSeen    map[wire.NodeID]time.Time
	// subsSorted memoizes the ascending-ID view of subscribers so the
	// per-bundle and per-block fan-outs do not re-sort an unchanged set;
	// any mutation of subscribers nils it (see subsChanged).
	subsSorted []wire.NodeID
	maxSubs    int
	// ttl expires subscribers that stopped heartbeating (0 disables); a
	// crashed relayer would otherwise receive stripes forever.
	ttl time.Duration

	// trace, when non-nil, anchors the stripe_distributed and
	// fullnode_delivered lifecycle stages at fan-out time (full nodes close
	// the spans on arrival/completion). Nil disables tracing at zero cost.
	trace *obs.Tracer

	// cacheSet avoids encoding the same bundle twice (StripeRoot hook +
	// dissemination). The header commits to the set's root, so the root is
	// the cache key.
	cacheSet *StripeSet

	// stats
	stripesOut uint64
	blocksOut  uint64
	// unexpected counts non-zone-plane messages reaching the distributor.
	// Stripes only flow outward here, so a Byzantine peer cannot corrupt
	// consensus-side state — unexpected traffic is counted and ignored.
	unexpected uint64
}

// NewDistributor builds a distributor for consensus node self.
func NewDistributor(self wire.NodeID, nc int, striper *Striper, maxSubs int) *Distributor {
	if maxSubs <= 0 {
		maxSubs = 1 << 30 // consensus nodes accept every relayer by default
	}
	return &Distributor{
		self:        self,
		nc:          nc,
		striper:     striper,
		subscribers: make(map[wire.NodeID]bool),
		lastSeen:    make(map[wire.NodeID]time.Time),
		maxSubs:     maxSubs,
	}
}

// SetSubscriberTTL arms subscriber expiry: a subscriber not heard from for
// ttl (heartbeats count) is dropped before the next stripe/block fan-out.
// Zero disables expiry.
func (d *Distributor) SetSubscriberTTL(ttl time.Duration) { d.ttl = ttl }

// SetTrace arms lifecycle tracing (nil disables it).
func (d *Distributor) SetTrace(tr *obs.Tracer) { d.trace = tr }

// Start records the runtime context (call from the host's Start).
func (d *Distributor) Start(ctx env.Context) {
	d.ctx = ctx
}

// Subscribers returns the current subscriber count.
func (d *Distributor) Subscribers() int { return len(d.subscribers) }

// Stats returns (stripes sent, blocks sent).
func (d *Distributor) Stats() (stripes, blocks uint64) { return d.stripesOut, d.blocksOut }

// SpecStats returns zeros: distributors no longer push proposed blocks
// ahead of commit. It is held only for cmd/predis-perf, whose
// consensus.spec_evictions metric still calls it.
func (d *Distributor) SpecStats() (specs, discards uint64) { return 0, 0 }

// Unexpected returns how many non-zone-plane messages reached this
// distributor (zero on benign runs).
func (d *Distributor) Unexpected() uint64 { return d.unexpected }

// StripeRoot implements core.Options.StripeRoot: encode the body, cache
// the shard set, and return the stripe Merkle root for the header.
func (d *Distributor) StripeRoot(txs []*types.Transaction) crypto.Hash {
	set, err := d.striper.Encode(txs)
	if err != nil {
		return crypto.ZeroHash
	}
	d.cacheSet = set
	return set.Root
}

// OnBundleStored implements core's bundle hook: ship our stripe of every
// bundle that enters the mempool (own or peer-produced) to subscribers.
func (d *Distributor) OnBundleStored(b *core.Bundle) {
	if d.ctx == nil || len(d.subscribers) == 0 {
		return
	}
	// Resolve the stripe set: the bundle-attached cache first (another
	// consensus node already encoded this exact bundle — encoding is
	// deterministic in Txs, so the shards are identical), then the local
	// StripeRoot-hook cache, then a fresh encode.
	set, _ := b.StripeCache().(*StripeSet)
	if set == nil && d.cacheSet != nil && d.cacheSet.Root == b.Header.StripeRoot {
		set = d.cacheSet
	}
	if set == nil {
		var err error
		set, err = d.striper.Encode(b.Txs)
		if err != nil {
			d.ctx.Logf("multizone: encode bundle: %v", err)
			return
		}
	}
	b.SetStripeCache(set)
	d.cacheSet = nil
	msg, err := set.Stripe(b.Header, int(d.self))
	if err != nil {
		d.ctx.Logf("multizone: stripe extract: %v", err)
		return
	}
	// Anchor the stripe_distributed stage at first fan-out (earliest mark
	// wins across consensus nodes); full nodes close the span when the
	// bundle enters their store.
	d.trace.Mark(obs.StageStripeDistributed,
		obs.BundleKey(b.Header.Producer, b.Header.Height), d.ctx.Now())
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.stripesOut++
	}
}

// OnBlockCommit pushes a committed Predis block to subscribers.
func (d *Distributor) OnBlockCommit(blk *core.PredisBlock) {
	if d.ctx == nil {
		return
	}
	msg := &ZoneBlock{Block: blk}
	// Anchor the fullnode_delivered stage at block push time; full nodes
	// close the span when they assemble the block's transactions.
	d.trace.Mark(obs.StageFullNodeDelivered,
		obs.BlockKey(blk.Height), d.ctx.Now())
	for _, id := range d.liveSubscribers() {
		d.ctx.Send(id, msg)
		d.blocksOut++
	}
}

// subsChanged invalidates the memoized sorted-subscriber view; every
// mutation of d.subscribers must call it.
func (d *Distributor) subsChanged() { d.subsSorted = nil }

// liveSubscribers expires stale subscribers (when a TTL is set) and
// returns the survivors in ascending ID order, so map iteration never
// affects wire traffic. The sorted view is memoized across calls: fan-out
// runs once per bundle and once per block, so rebuilding it only when the
// subscriber set actually changes removes an alloc+sort from the hot
// path. Callers must not retain or mutate the returned slice.
func (d *Distributor) liveSubscribers() []wire.NodeID {
	if d.ttl > 0 {
		now := d.ctx.Now()
		for id := range d.subscribers {
			if seen, ok := d.lastSeen[id]; ok && now.Sub(seen) > d.ttl {
				delete(d.subscribers, id)
				delete(d.lastSeen, id)
				d.subsChanged()
			}
		}
	}
	if d.subsSorted == nil {
		out := make([]wire.NodeID, 0, len(d.subscribers))
		for id := range d.subscribers {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		d.subsSorted = out
	}
	return d.subsSorted
}

// Receive handles zone-plane control messages addressed to the consensus
// node (subscribe/unsubscribe from relayers).
func (d *Distributor) Receive(from wire.NodeID, m wire.Message) {
	d.lastSeen[from] = d.ctx.Now()
	switch msg := m.(type) {
	case *Subscribe:
		d.onSubscribe(from, msg)
	case *Unsubscribe:
		delete(d.subscribers, from)
		d.subsChanged()
	case *Heartbeat:
		// Liveness only.
	default:
		// Consensus nodes ignore other zone-plane traffic.
		d.unexpected++
	}
}

func (d *Distributor) onSubscribe(from wire.NodeID, m *Subscribe) {
	// A consensus node serves exactly its own stripe index.
	serves := false
	for _, s := range m.Stripes {
		if wire.NodeID(s) == d.self {
			serves = true
			break
		}
	}
	if !serves {
		d.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes})
		return
	}
	if len(d.subscribers) >= d.maxSubs && !d.subscribers[from] {
		children := d.liveSubscribers()
		if len(children) > 4 {
			children = children[:4]
		}
		d.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes, Children: children})
		return
	}
	d.subscribers[from] = true
	d.subsChanged()
	d.ctx.Send(from, &AcceptSubscribe{
		Stripes:       []uint8{uint8(d.self)},
		FromConsensus: true,
	})
}
