package multizone

import (
	"bytes"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// sameBacking reports whether two non-empty slices share a backing array
// (the memoization witness: an unchanged set must not be rebuilt).
func sameBacking(a, b []wire.NodeID) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

func idsEqual(got []wire.NodeID, want ...wire.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestDistributorLiveSubscribersMemoized: the sorted fan-out view is
// rebuilt only when the subscriber set changes — subscribe, unsubscribe,
// and TTL expiry each invalidate it; repeated fan-outs in between reuse
// the same slice.
func TestDistributorLiveSubscribersMemoized(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	d := NewDistributor(2, 4, striper, 0)
	distHost := &distHandler{d: d}
	net.AddNode(2, distHost)
	for _, id := range []wire.NodeID{50, 51, 52} {
		net.AddNode(id, &recHandler{onRecv: func(wire.NodeID, wire.Message) {}})
	}
	net.Start()

	distHost.inject(51, &Subscribe{Stripes: []uint8{2}})
	distHost.inject(50, &Subscribe{Stripes: []uint8{2}})
	s1 := d.liveSubscribers()
	if !idsEqual(s1, 50, 51) {
		t.Fatalf("liveSubscribers = %v, want [50 51] (ascending, map-order independent)", s1)
	}
	if s2 := d.liveSubscribers(); !sameBacking(s1, s2) {
		t.Fatal("unchanged subscriber set was rebuilt between fan-outs")
	}

	// Subscribe invalidates.
	distHost.inject(52, &Subscribe{Stripes: []uint8{2}})
	if s := d.liveSubscribers(); !idsEqual(s, 50, 51, 52) {
		t.Fatalf("after subscribe liveSubscribers = %v, want [50 51 52]", s)
	}

	// Unsubscribe invalidates.
	distHost.inject(51, &Unsubscribe{Stripes: []uint8{2}})
	s3 := d.liveSubscribers()
	if !idsEqual(s3, 50, 52) {
		t.Fatalf("after unsubscribe liveSubscribers = %v, want [50 52]", s3)
	}
	if s4 := d.liveSubscribers(); !sameBacking(s3, s4) {
		t.Fatal("unchanged set rebuilt after unsubscribe settled")
	}

	// TTL expiry invalidates: advance virtual time past the TTL with no
	// heartbeats; the next fan-out view must be empty.
	d.SetSubscriberTTL(100 * time.Millisecond)
	net.Run(time.Second)
	if s := d.liveSubscribers(); len(s) != 0 {
		t.Fatalf("after TTL expiry liveSubscribers = %v, want empty", s)
	}
	if d.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after expiry, want 0", d.Subscribers())
	}
}

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
	d := NewDistributor(self, 4, zc.striper, 0)
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

// TestFullNodeSortedSubscribersMemoized: the full node's deduped sorted
// view is memoized between subscription changes and invalidated by
// unsubscribe handling.
func TestFullNodeSortedSubscribersMemoized(t *testing.T) {
	f := &FullNode{
		subscribers: map[uint8]map[wire.NodeID]bool{
			0: {201: true, 105: true},
			1: {105: true, 300: true}, // 105 subscribes to two stripes: deduped
		},
		subCount: 4,
	}
	s1 := f.sortedSubscribers()
	if !idsEqual(s1, 105, 201, 300) {
		t.Fatalf("sortedSubscribers = %v, want [105 201 300] (deduped, ascending)", s1)
	}
	if s2 := f.sortedSubscribers(); !sameBacking(s1, s2) {
		t.Fatal("unchanged subscriber set was rebuilt between calls")
	}

	// Unsubscribe 105 from stripe 1 only: still subscribed via stripe 0.
	f.onUnsubscribe(105, &Unsubscribe{Stripes: []uint8{1}})
	if s := f.sortedSubscribers(); !idsEqual(s, 105, 201, 300) {
		t.Fatalf("after partial unsubscribe = %v, want [105 201 300]", s)
	}
	// Unsubscribe 105 from stripe 0 too: now gone.
	f.onUnsubscribe(105, &Unsubscribe{Stripes: []uint8{0}})
	if s := f.sortedSubscribers(); !idsEqual(s, 201, 300) {
		t.Fatalf("after full unsubscribe = %v, want [201 300]", s)
	}
	if f.subCount != 2 {
		t.Fatalf("subCount = %d, want 2", f.subCount)
	}
}

// TestFullNodeStripeSubscribersMemoized: the per-stripe sorted views the
// relay path walks are memoized like the global view and invalidated by
// every mutation it is: subscribe, unsubscribe, quarantine sever,
// heartbeat TTL expiry and crash-reset.
func TestFullNodeStripeSubscribersMemoized(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1, Striper: striper, Signer: crypto.NewSimSuite(4, 9).Signer(0),
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(200, fn)
	for _, id := range []wire.NodeID{0, 1, 2, 3, 300, 301, 302, 303} {
		net.AddNode(id, &recHandler{onRecv: func(wire.NodeID, wire.Message) {}})
	}
	net.Start()
	net.Run(60 * time.Millisecond) // Algorithm 1 ran: every stripe has a pending sender, so subscriptions are accepted
	check := func(step string, s uint8, want ...wire.NodeID) {
		t.Helper()
		got := fn.stripeSubscribers(s)
		if !idsEqual(got, want...) {
			t.Fatalf("%s: stripeSubscribers(%d) = %v, want %v", step, s, got, want)
		}
		if len(got) > 0 && !sameBacking(got, fn.stripeSubscribers(s)) {
			t.Fatalf("%s: unchanged view of stripe %d was rebuilt", step, s)
		}
		all := map[wire.NodeID]bool{}
		for i := uint8(0); i < 4; i++ {
			for _, id := range fn.stripeSubscribers(i) {
				all[id] = true
			}
		}
		if len(all) != len(fn.sortedSubscribers()) {
			t.Fatalf("%s: per-stripe views hold %d distinct IDs, the global view %d", step, len(all), len(fn.sortedSubscribers()))
		}
	}

	fn.Receive(301, &Subscribe{Stripes: []uint8{0}})
	check("first subscribe", 0, 301)
	fn.Receive(300, &Subscribe{Stripes: []uint8{0, 1}})
	check("subscribe", 0, 300, 301)
	check("subscribe", 1, 300)
	fn.Receive(300, &Unsubscribe{Stripes: []uint8{0}})
	check("unsubscribe", 0, 301)
	check("unsubscribe", 1, 300)
	fn.quarantine(301)
	check("quarantine sever", 0)
	check("quarantine sever", 1, 300)

	// 300 and 302 go silent: three missed heartbeat intervals expire them.
	fn.Receive(302, &Subscribe{Stripes: []uint8{2}})
	check("late subscribe", 2, 302)
	net.Run(600 * time.Millisecond)
	check("heartbeat expiry", 1)
	check("heartbeat expiry", 2)

	fn.Receive(303, &Subscribe{Stripes: []uint8{3}})
	check("resubscribe", 3, 303)
	fn.OnRestart()
	check("crash-reset", 3)
}
