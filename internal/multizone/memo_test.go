package multizone

import (
	"bytes"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// stripeCluster is a small Multi-Zone cluster whose load stops half a
// second before its horizon, so by then every consensus node has committed
// everything.
var stripeCluster = zoneConfig{nc: 4, f: 1, zones: 1, perZone: 3, rate: 300, duration: 3 * time.Second}

// bundleKey names a bundle by chain position.
type bundleKey struct {
	producer wire.NodeID
	height   uint64
}

// committedBundles returns the bundles a consensus node still holds at or
// below its chains' confirmed heights.
func committedBundles(h *ConsensusHost) []*core.Bundle {
	mp := h.Node.Predis().Mempool()
	var out []*core.Bundle
	for p, base := range mp.Bases() {
		for ht := base + 1; ht <= mp.ConfirmedHeight(wire.NodeID(p)); ht++ {
			if b := mp.Bundle(wire.NodeID(p), ht); b != nil {
				out = append(out, b)
			}
		}
	}
	return out
}

// TestStripeSetReleasedAtCommit is the retention guard: once a bundle has
// committed, no consensus mempool still holds its stripe-set memo, which
// would otherwise live until the bundle is pruned KeepConfirmed heights
// later.
func TestStripeSetReleasedAtCommit(t *testing.T) {
	zc := buildZoneCluster(t, stripeCluster)
	zc.net.Start()
	zc.net.Run(stripeCluster.duration)
	for i, h := range zc.hosts {
		if got := h.Node.Predis().LastHeight(); got < 20 {
			t.Fatalf("host %d committed %d blocks, want ≥ 20", i, got)
		}
		if stripes, _ := h.Dist.Stats(); stripes == 0 {
			t.Fatalf("host %d shipped no stripes", i)
		}
		for _, b := range committedBundles(h) {
			if b.StripeCache() != nil {
				t.Fatalf("host %d: committed bundle %d/%d still memoizes its stripe set",
					i, b.Header.Producer, b.Header.Height)
			}
		}
	}
}

// TestReencodedStripeMatchesShipped: a distributor that stores a bundle
// after its stripe set was released re-encodes it, and the stripe it ships
// is byte-identical to the one shipped before the release.
func TestReencodedStripeMatchesShipped(t *testing.T) {
	const self = 2
	record := func(into map[bundleKey][]byte) func(wire.NodeID, wire.Message) {
		return func(from wire.NodeID, m wire.Message) {
			sm, ok := m.(*StripeMsg)
			if !ok || from != self {
				return
			}
			if k := (bundleKey{sm.Header.Producer, sm.Header.Height}); into[k] == nil {
				into[k] = wire.Marshal(sm)
			}
		}
	}
	zc := buildZoneCluster(t, stripeCluster)
	shipped := map[bundleKey][]byte{}
	onShipped := record(shipped)
	zc.net.OnDeliver = func(from, _ wire.NodeID, m wire.Message, _ time.Time) { onShipped(from, m) }
	zc.net.Start()
	zc.net.Run(stripeCluster.duration)

	// A late distributor at the same index, with one subscriber.
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	d := NewDistributor(self, zc.striper)
	distHost := &distHandler{d: d}
	net.AddNode(self, distHost)
	reshipped := map[bundleKey][]byte{}
	net.AddNode(50, &recHandler{onRecv: record(reshipped)})
	net.Start()
	distHost.inject(50, &Subscribe{Stripes: []uint8{self}})
	var late []*core.Bundle
	for _, b := range committedBundles(zc.hosts[self]) {
		if shipped[bundleKey{b.Header.Producer, b.Header.Height}] == nil {
			continue
		}
		if b.StripeCache() != nil {
			t.Fatalf("bundle %d/%d: stripe set not released at commit", b.Header.Producer, b.Header.Height)
		}
		d.OnBundleStored(b)
		if b.StripeCache() == nil {
			t.Fatalf("bundle %d/%d: storing it did not re-encode", b.Header.Producer, b.Header.Height)
		}
		late = append(late, b)
	}
	net.Run(time.Second)
	if len(late) < 20 {
		t.Fatalf("re-stored %d committed bundles, want ≥ 20", len(late))
	}
	for _, b := range late {
		k := bundleKey{b.Header.Producer, b.Header.Height}
		if !bytes.Equal(shipped[k], reshipped[k]) {
			t.Fatalf("bundle %d/%d: the re-encoded stripe differs from the one shipped", k.producer, k.height)
		}
	}
}
