package multizone

import (
	"cmp"
	"slices"
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
	striper *Striper
	ctx     env.Context

	// subs are the subscribers in ascending ID order, each leased: one
	// silent for leaseAfter is dropped (see expire), so a crashed relayer
	// stops receiving stripes.
	subs []lease
	// expireAt is when the next fan-out runs expire.
	expireAt time.Time

	// trace, when non-nil, anchors the stripe_distributed and
	// fullnode_delivered lifecycle stages at fan-out time (full nodes close
	// the spans on arrival/completion). Nil disables tracing at zero cost.
	trace *obs.Tracer

	// cacheSet avoids encoding the same bundle twice (StripeRoot +
	// OnBundleStored). The header commits to the set's root, so the root is
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

// lease is one subscriber of a distributor and when it was last heard.
type lease struct {
	id   wire.NodeID
	seen time.Time
}

// NewDistributor builds a distributor for consensus node self.
func NewDistributor(self wire.NodeID, striper *Striper) *Distributor {
	return &Distributor{self: self, striper: striper}
}

// SetTrace arms lifecycle tracing (nil disables it).
func (d *Distributor) SetTrace(tr *obs.Tracer) { d.trace = tr }

// Start records the runtime context (call from the host's Start).
func (d *Distributor) Start(ctx env.Context) {
	d.ctx = ctx
}

// Subscribers returns the current subscribers in ascending ID order.
func (d *Distributor) Subscribers() []wire.NodeID {
	out := make([]wire.NodeID, len(d.subs))
	for i, l := range d.subs {
		out[i] = l.id
	}
	return out
}

// OnRestart renews every subscriber's lease: the heartbeats sent while this
// node was down are lost, so silence cannot be judged until a lease after
// the restart.
func (d *Distributor) OnRestart() {
	for i := range d.subs {
		d.subs[i].seen = d.ctx.Now()
	}
}

// Stats returns (stripes sent, blocks sent).
func (d *Distributor) Stats() (stripes, blocks uint64) { return d.stripesOut, d.blocksOut }

// SpecStats returns zeros: distributors no longer push proposed blocks
// ahead of commit. It is held only for cmd/predis-perf, whose
// consensus.spec_evictions metric still calls it.
func (d *Distributor) SpecStats() (specs, discards uint64) { return 0, 0 }

// Unexpected returns how many non-zone-plane messages reached this
// distributor (zero on benign runs).
func (d *Distributor) Unexpected() uint64 { return d.unexpected }

// StripeRoot implements core.Distribution: encode the body, cache the
// shard set, and return the stripe Merkle root for the header.
func (d *Distributor) StripeRoot(txs []*types.Transaction) crypto.Hash {
	set, err := d.striper.Encode(txs)
	if err != nil {
		return crypto.ZeroHash
	}
	d.cacheSet = set
	return set.Root
}

// OnBundleStored implements core.Distribution: ship our stripe of every
// bundle that enters the mempool (own or peer-produced) to subscribers.
func (d *Distributor) OnBundleStored(b *core.Bundle) {
	if d.ctx == nil || len(d.subs) == 0 {
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
	msg, err := set.stripe(&b.Header, int(d.self))
	if err != nil {
		d.ctx.Logf("multizone: stripe extract: %v", err)
		return
	}
	// Anchor the stripe_distributed stage at first fan-out (earliest mark
	// wins across consensus nodes); full nodes close the span when the
	// bundle enters their store.
	d.trace.Mark(obs.StageStripeDistributed,
		obs.BundleKey(b.Header.Producer, b.Header.Height), d.ctx.Now())
	d.expire()
	for _, l := range d.subs {
		d.ctx.Send(l.id, msg)
		d.stripesOut++
	}
}

// OnBlockCommit implements core.Distribution: push the committed Predis
// block itself to subscribers.
//
//predis:hotpath
func (d *Distributor) OnBlockCommit(blk *core.PredisBlock) {
	if d.ctx == nil {
		return
	}
	// Anchor the fullnode_delivered stage at block push time; full nodes
	// close the span when they assemble the block's transactions.
	d.trace.Mark(obs.StageFullNodeDelivered,
		obs.BlockKey(blk.Height), d.ctx.Now())
	d.expire()
	for _, l := range d.subs {
		d.ctx.Send(l.id, blk)
		d.blocksOut++
	}
}

// expire drops the subscribers silent for longer than a lease. Fan-outs
// call it, and it runs at most once per heartbeat interval.
func (d *Distributor) expire() {
	now := d.ctx.Now()
	if now.Before(d.expireAt) {
		return
	}
	d.expireAt = now.Add(heartbeatInterval)
	d.subs = slices.DeleteFunc(d.subs, func(l lease) bool { return now.Sub(l.seen) > leaseAfter }) //predis:allocok the literal does not escape (go build -gcflags=-m), and runs once per heartbeat interval
}

// find returns where id is, or would be, in subs.
func (d *Distributor) find(id wire.NodeID) (int, bool) {
	return slices.BinarySearchFunc(d.subs, id, func(l lease, id wire.NodeID) int { return cmp.Compare(l.id, id) })
}

// Receive handles zone-plane control messages addressed to the consensus
// node (subscribe/unsubscribe from relayers). Anything a subscriber sends
// renews its lease.
func (d *Distributor) Receive(from wire.NodeID, m wire.Message) {
	i, subscribed := d.find(from)
	if subscribed {
		d.subs[i].seen = d.ctx.Now()
	}
	switch msg := m.(type) {
	case *Subscribe:
		d.onSubscribe(from, msg)
	case *Unsubscribe:
		if subscribed {
			d.subs = slices.Delete(d.subs, i, i+1)
		}
	case *Heartbeat:
		// Liveness only.
	default:
		// Consensus nodes ignore other zone-plane traffic.
		d.unexpected++
	}
}

func (d *Distributor) onSubscribe(from wire.NodeID, m *Subscribe) {
	// A consensus node serves exactly its own stripe index.
	if !slices.Contains(m.Stripes, uint8(d.self)) {
		d.ctx.Send(from, &RejectSubscribe{Stripes: m.Stripes})
		return
	}
	if i, subscribed := d.find(from); !subscribed {
		d.subs = slices.Insert(d.subs, i, lease{from, d.ctx.Now()})
	}
	d.ctx.Send(from, &AcceptSubscribe{
		Stripes:       []uint8{uint8(d.self)},
		FromConsensus: true,
	})
}
