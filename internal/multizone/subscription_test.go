package multizone

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// newDistRig hosts a bare distributor for stripe 2 at node 2, with the given
// peers as silent sinks.
func newDistRig(peers ...wire.NodeID) (*Distributor, *distHandler, *simnet.Network) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	d := NewDistributor(2, striper)
	h := &distHandler{d: d}
	net.AddNode(2, h)
	for _, id := range peers {
		net.AddNode(id, &recHandler{onRecv: func(wire.NodeID, wire.Message) {}})
	}
	net.Start()
	return d, h, net
}

// TestDistributorSubscribersAscending: a distributor's subscribers are one
// ascending, duplicate-free table that subscribe and unsubscribe edit; a
// heartbeat renews a lease, and a subscriber silent for longer than a lease
// is gone at the next fan-out.
func TestDistributorSubscribersAscending(t *testing.T) {
	d, h, net := newDistRig(50, 51, 52)
	check := func(step string, want ...wire.NodeID) {
		t.Helper()
		if got := d.Subscribers(); !slices.Equal(got, want) {
			t.Fatalf("%s: Subscribers = %v, want %v", step, got, want)
		}
	}
	h.inject(51, &Subscribe{Stripes: []uint8{2}})
	h.inject(50, &Subscribe{Stripes: []uint8{2}})
	h.inject(50, &Subscribe{Stripes: []uint8{2}})
	check("subscribe", 50, 51)
	h.inject(52, &Subscribe{Stripes: []uint8{2}})
	check("late subscribe", 50, 51, 52)
	h.inject(51, &Unsubscribe{Stripes: []uint8{2}})
	check("unsubscribe", 50, 52)

	// 52 heartbeats every second, 50 stays silent past its lease.
	for at := time.Second; at <= 4*time.Second; at += time.Second {
		net.At(at, func() { h.inject(52, &Heartbeat{}) })
	}
	net.Run(4500 * time.Millisecond)
	check("before a fan-out", 50, 52)
	d.OnBlockCommit(&core.PredisBlock{Height: 1})
	check("expiry", 52)
}

// TestDistributorLeasesOnlySubscribers churns subscribes, unsubscribes,
// heartbeats and refused subscribes from 40 peers: the lease table holds
// exactly the current subscribers after every message, so a peer that left,
// or never subscribed, leaves nothing behind.
func TestDistributorLeasesOnlySubscribers(t *testing.T) {
	var peers []wire.NodeID
	for id := wire.NodeID(100); id < 140; id++ {
		peers = append(peers, id)
	}
	d, h, _ := newDistRig(peers...)
	want := map[wire.NodeID]bool{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		id := peers[rng.Intn(len(peers))]
		switch rng.Intn(4) {
		case 0:
			h.inject(id, &Subscribe{Stripes: []uint8{2}})
			want[id] = true
		case 1:
			h.inject(id, &Unsubscribe{Stripes: []uint8{2}})
			delete(want, id)
		case 2:
			h.inject(id, &Heartbeat{})
		case 3:
			h.inject(id, &Subscribe{Stripes: []uint8{1}}) // not this node's index: refused
		}
		if len(d.subs) != len(want) {
			t.Fatalf("message %d: %d leases for %d subscribers", i, len(d.subs), len(want))
		}
	}
	for _, id := range d.Subscribers() {
		if !want[id] {
			t.Fatalf("%d holds a lease without a subscription", id)
		}
	}
}

// TestBlockCommitAllocs: a distributor sends every subscriber the committed
// block itself, so a block's fan-out allocates nothing.
func TestBlockCommitAllocs(t *testing.T) {
	subs := []wire.NodeID{50, 51, 52}
	d, h, _ := newDistRig(subs...)
	for _, id := range subs {
		h.inject(id, &Subscribe{Stripes: []uint8{2}})
	}
	blk := &core.PredisBlock{Height: 1, Cuts: make([]core.Cut, 4)}
	tap := &sendTap{Context: d.ctx, want: blk}
	d.ctx = tap
	const runs = 100
	if a := testing.AllocsPerRun(runs, func() { d.OnBlockCommit(blk) }); a != 0 {
		t.Errorf("a block's fan-out to %d subscribers allocates %.1f, want 0", len(subs), a)
	}
	if want := len(subs) * (runs + 1); tap.sends != want || tap.same != want {
		t.Fatalf("%d sends, %d of them the committed block; want %d, all", tap.sends, tap.same, want)
	}
}

// sendTap counts what a node sends, and how much of it is want, instead of
// sending it.
type sendTap struct {
	env.Context
	want        wire.Message
	sends, same int
}

func (s *sendTap) Send(_ wire.NodeID, m wire.Message) {
	s.sends++
	if m == s.want {
		s.same++
	}
}

// TestFullNodeSubscribersDeduped: the union view lists every subscriber of
// any index once, in ascending order, and a subscriber leaves it with its
// last index.
func TestFullNodeSubscribersDeduped(t *testing.T) {
	f := &FullNode{links: newLinks(2)}
	f.setSubscriber(0, 201, true)
	f.setSubscriber(0, 105, true)
	f.setSubscriber(1, 300, true)
	f.setSubscriber(1, 105, true) // 105 subscribes to two stripes: listed once
	if f.setSubscriber(1, 300, true) {
		t.Fatal("a repeated subscribe changed the table")
	}
	if !slices.Equal(f.subscribers, []wire.NodeID{105, 201, 300}) || !slices.Equal(f.links[0].subs, []wire.NodeID{105, 201}) {
		t.Fatalf("subscribers = %v, stripe 0 = %v; want [105 201 300], [105 201]", f.subscribers, f.links[0].subs)
	}
	// Unsubscribe 105 from stripe 1 only: still subscribed via stripe 0.
	f.onUnsubscribe(105, &Unsubscribe{Stripes: []uint8{1}})
	if !slices.Equal(f.subscribers, []wire.NodeID{105, 201, 300}) {
		t.Fatalf("after partial unsubscribe = %v, want [105 201 300]", f.subscribers)
	}
	// Unsubscribe 105 from stripe 0 too, and from one that does not exist.
	f.onUnsubscribe(105, &Unsubscribe{Stripes: []uint8{0, 9}})
	if !slices.Equal(f.subscribers, []wire.NodeID{201, 300}) || f.subCount != 2 {
		t.Fatalf("after full unsubscribe = %v (subCount %d), want [201 300] (2)", f.subscribers, f.subCount)
	}
}

// TestFullNodeStripeSubscribersTrackChanges: the per-stripe subscriber lists
// the relay path walks stay ascending and agree with the union view through
// every change to them: subscribe, unsubscribe, quarantine, lease expiry and
// crash-reset.
func TestFullNodeStripeSubscribersTrackChanges(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1, Striper: striper, Signer: crypto.NewSimSuite(4, 9).Signer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(200, fn)
	for _, id := range []wire.NodeID{0, 1, 2, 3, 300, 301, 302, 303} {
		net.AddNode(id, &recHandler{onRecv: func(wire.NodeID, wire.Message) {}})
	}
	net.Start()
	net.Run(60 * time.Millisecond) // the placement ran: every stripe has a pending sender, so subscriptions are accepted
	check := func(step string, s uint8, want ...wire.NodeID) {
		t.Helper()
		if got := fn.links[s].subs; !slices.Equal(got, want) {
			t.Fatalf("%s: stripe %d subscribers = %v, want %v", step, s, got, want)
		}
		var all []wire.NodeID
		for _, l := range fn.links {
			all = append(all, l.subs...)
		}
		slices.Sort(all)
		if all = slices.Compact(all); !slices.Equal(all, fn.subscribers) {
			t.Fatalf("%s: per-stripe lists hold %v, the union view %v", step, all, fn.subscribers)
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

	// 300 and 302 go silent: the heartbeat after their lease expires them.
	fn.Receive(302, &Subscribe{Stripes: []uint8{2}})
	check("late subscribe", 2, 302)
	net.Run(60*time.Millisecond + leaseAfter + heartbeatInterval)
	check("lease expiry", 1)
	check("lease expiry", 2)

	fn.Receive(303, &Subscribe{Stripes: []uint8{3}})
	check("resubscribe", 3, 303)
	fn.OnRestart()
	check("crash-reset", 3)
}

// TestCrashedRelayerLeavesDistributors crashes a relayer for 4 s. Every
// distributor that streamed to it drops it during the outage, a lease after
// its last heartbeat; once it restarts and resubscribes, exactly the
// distributors of the indices it takes from consensus list it again.
func TestCrashedRelayerLeavesDistributors(t *testing.T) {
	cfg := zoneConfig{nc: 4, f: 1, zones: 1, perZone: 6, rate: 300, duration: 12 * time.Second}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second)
	victim := zc.fulls[0]
	streamed := victim.RelayedStripes()
	if len(streamed) == 0 {
		t.Fatalf("node %d relays nothing before the crash", victim.ID())
	}
	listed := func(s uint8) bool { return slices.Contains(zc.hosts[s].Dist.Subscribers(), victim.ID()) }
	dropped := make(map[uint8]bool)
	const crashAt, restartAt = 4 * time.Second, 8 * time.Second
	for at := crashAt; at < restartAt; at += 10 * time.Millisecond {
		zc.net.At(at, func() {
			for _, s := range streamed {
				dropped[s] = dropped[s] || !listed(s)
			}
		})
	}
	zc.net.Crash(victim.ID())
	zc.net.Run(restartAt)
	for _, s := range streamed {
		if !dropped[s] {
			t.Errorf("distributor %d kept streaming to relayer %d through its 4-s outage", s, victim.ID())
		}
	}
	zc.net.Restart(victim.ID())
	zc.net.Run(cfg.duration)
	if victim.LastHeight() == 0 || len(victim.RelayedStripes()) == 0 {
		t.Fatalf("restarted relayer %d: height %d, relays %v", victim.ID(), victim.LastHeight(), victim.RelayedStripes())
	}
	for s, l := range victim.links {
		if takes := l.sender == wire.NodeID(s); listed(uint8(s)) != takes {
			t.Errorf("index %d: distributor lists %d: %v, it takes the index from there: %v", s, victim.ID(), !takes, takes)
		}
	}
}

// TestLeaseSurvivesSourceRestart crashes consensus node s for 2.5 s. The
// heartbeats its subscribers send meanwhile are lost, so a relayer whose
// last one came early enough before the crash has been silent for longer
// than a lease when s restarts. The restart renews every lease: each relayer
// that took s from it before the crash stays subscribed throughout — the
// silence rule never asks s's own consensus node again, so a relayer dropped
// there would sit on a spare until its own lease on s ran out — and every
// full node ends the run with no spare.
func TestLeaseSurvivesSourceRestart(t *testing.T) {
	const s = 2
	cfg := zoneConfig{nc: 4, f: 1, zones: 2, perZone: 4, rate: 400, duration: 9 * time.Second}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(3 * time.Second)
	var relayers []wire.NodeID
	for _, fn := range zc.fulls {
		if fn.links[s].direct {
			relayers = append(relayers, fn.ID())
		}
	}
	if len(relayers) == 0 {
		t.Fatalf("no full node takes index %d from consensus", s)
	}
	const restartAt = 5500 * time.Millisecond
	for at := restartAt; at < cfg.duration; at += 10 * time.Millisecond {
		zc.net.At(at, func() {
			subs := zc.hosts[s].Dist.Subscribers()
			for _, id := range relayers {
				if !slices.Contains(subs, id) {
					t.Fatalf("relayer %d left distributor %d at %v, %v after its restart",
						id, s, at, at-restartAt)
				}
			}
		})
	}
	zc.net.Crash(s)
	zc.net.Run(restartAt)
	zc.net.Restart(s)
	zc.net.Run(cfg.duration)
	for _, fn := range zc.fulls {
		if len(fn.spares) != 0 {
			t.Errorf("node %d ends on spares %v", fn.ID(), fn.spares)
		}
	}
}

// TestAcceptWithNothingPendingChangesNothing: an AcceptSubscribe answers a
// subscribe outstanding at its sender, and nothing else. One from consensus
// node 0, for an index with no subscribe outstanding anywhere, must leave
// that index's link as it was — no sender, not relayed.
func TestAcceptWithNothingPendingChangesNothing(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1, Striper: striper, Signer: crypto.NewSimSuite(4, 9).Signer(0),
		ZonePeers: []wire.NodeID{201, 202, 203},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(200, fn)
	for _, id := range []wire.NodeID{0, 1, 2, 3, 201, 202, 203} {
		net.AddNode(id, &recHandler{onRecv: func(wire.NodeID, wire.Message) {}})
	}
	net.Start()
	net.Run(60 * time.Millisecond) // nobody answers: subscribes stay outstanding
	s := slices.IndexFunc(fn.links, func(l link) bool { return l.pending == wire.NoNode && l.sender == wire.NoNode })
	if s < 0 {
		t.Fatal("every index has a subscribe outstanding")
	}
	before := slices.Clone(fn.links)
	fn.Receive(0, &AcceptSubscribe{Stripes: []uint8{uint8(s)}, FromConsensus: true})
	if l := fn.links[s]; l.sender != before[s].sender || l.pending != before[s].pending || l.direct != before[s].direct {
		t.Fatalf("index %d: accept from node 0 with nothing pending changed sender %d→%d, pending %d→%d, direct %v→%v",
			s, before[s].sender, l.sender, before[s].pending, l.pending, before[s].direct, l.direct)
	}
	if got := fn.RelayedStripes(); len(got) != 0 {
		t.Fatalf("relays %v after an unasked-for accept", got)
	}
}
