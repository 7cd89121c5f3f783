package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"predis/internal/multizone"
	"predis/internal/wire"
)

// placementRun builds fanout_lan's shape — 8 zones of 12 full nodes joining
// 20 ms apart, n_c = 4 — with every join moved by a uniform offset in
// [−jitter, +jitter], runs a short load and a quiet second after it, and
// returns each zone's full nodes in join order.
func placementRun(t *testing.T, seed int64, jitter time.Duration) [][]*multizone.FullNode {
	t.Helper()
	d := Deploy{
		System: SysPPBFT, NC: 4, Fulls: ZoneMajor(8, 12),
		ViewTimeout: 2 * time.Second, AliveInterval: 200 * time.Millisecond,
		DigestInterval: time.Second, JoinSpacing: 20 * time.Millisecond,
		Offered: 1000, Load: time.Second, Seed: seed,
	}
	// Deploy.Build, but with the full nodes joining on a jittered schedule.
	dep := d.deployment()
	striper, err := multizone.NewStriper(d.NC, d.f())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.group(dep, striper); err != nil {
		t.Fatal(err)
	}
	for i, n := range dep.Hosts {
		dep.Net.AddNode(wire.NodeID(i), n)
	}
	d.addLoad(dep, d.NC)
	net := dep.Net
	rng := rand.New(rand.NewSource(seed))
	zones := make([][]*multizone.FullNode, 8)
	for join, w := range zoneWiring(d.Fulls, d.JoinSpacing) {
		fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
			Self: w.ID, Zone: w.Zone, JoinSeq: uint64(join), NC: d.NC, F: d.f(),
			Striper: striper, Signer: d.signer(0),
			ZonePeers: w.Peers, BackupPeers: w.Backups,
			AliveInterval: d.AliveInterval, DigestInterval: d.DigestInterval,
		})
		if err != nil {
			t.Fatal(err)
		}
		shift := time.Duration(rng.Int63n(int64(2*jitter)+1)) - jitter
		net.AddNode(w.ID, &multizone.Delayed{Inner: fn, Delay: max(0, w.Delay+shift)})
		zones[w.Zone] = append(zones[w.Zone], fn)
	}
	net.Start()
	net.Run(d.end() + time.Second)
	return zones
}

// TestPlacementIgnoresJoinTiming: relayer placement is a function of a
// zone's membership, not of the order messages arrive. In fanout_lan's
// shape, with every join jittered by ±100 µs and by ±1 ms over ten seeds,
// every node ends every run relaying the same indices and taking each
// index it receives from the same sender, and that is the rule: member k
// of a zone relays index k (k < n_c) straight from consensus node k, and
// every other member takes index s from member s — two hops below
// consensus at most.
func TestPlacementIgnoresJoinTiming(t *testing.T) {
	const nc = 4
	var first []string
	for _, jitter := range []time.Duration{100 * time.Microsecond, time.Millisecond} {
		for seed := int64(1); seed <= 10; seed++ {
			var got []string
			for _, members := range placementRun(t, seed, jitter) {
				for k, fn := range members {
					relayed, senders := fn.RelayedStripes(), fn.Senders()
					got = append(got, fmt.Sprintf("node %d relays %v, senders %v", fn.ID(), relayed, senders))
					var want []uint8
					if k < nc {
						want = []uint8{uint8(k)}
					}
					if !slices.Equal(relayed, want) {
						t.Errorf("jitter %v seed %d: node %d (member %d) relays %v, want %v", jitter, seed, fn.ID(), k, relayed, want)
					}
					for s, sd := range senders {
						rule := members[s].ID()
						if k == s {
							rule = wire.NodeID(s)
						}
						if sd != wire.NoNode && sd != rule {
							t.Errorf("jitter %v seed %d: node %d takes index %d from %d, want %d", jitter, seed, fn.ID(), s, sd, rule)
						}
					}
				}
			}
			if first == nil {
				first = got
			}
			for i := range got {
				if got[i] != first[i] {
					t.Errorf("jitter %v seed %d: %s; in the first run %s", jitter, seed, got[i], first[i])
					break
				}
			}
		}
	}
}
