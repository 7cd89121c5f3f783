package multizone

import (
	"slices"
	"testing"
	"time"

	"predis/internal/simnet"
	"predis/internal/wire"
)

// holders returns the full nodes that receive stripe index s.
func holders(zc *zoneCluster, s uint8) []*FullNode {
	var out []*FullNode
	for _, fn := range zc.fulls {
		if fn.links[s].sender != wire.NoNode {
			out = append(out, fn)
		}
	}
	return out
}

// senders maps each index fn receives to its sender.
func senders(fn *FullNode) map[uint8]wire.NodeID {
	out := map[uint8]wire.NodeID{}
	for s, l := range fn.links {
		if l.sender != wire.NoNode {
			out[uint8(s)] = l.sender
		}
	}
	return out
}

// TestConsensusCrashCoveredBySpare crashes consensus node s for 1.5 s in a
// two-zone deployment whose zones settle on one relayer per index. Every
// full node receiving index s finds it silent and takes one spare from a
// zone relayer, whose backfill covers the bundles in flight. A node that
// skips s takes one too: its relayer of another index held s as its only
// header carrier for some producer, so it parks their references until its
// own spare brings another carrier, and the node's bundles stall one
// stripe short meanwhile. Every full node keeps completing blocks in
// order, ends the outage back at n_c − f indices, and pulls nothing from a
// consensus node.
func TestConsensusCrashCoveredBySpare(t *testing.T) {
	const s = 2
	cfg := zoneConfig{nc: 4, f: 1, zones: 2, perZone: 4, rate: 400, duration: 9 * time.Second}
	zc := buildZoneCluster(t, cfg)
	var tap pullTap
	tap.attach(zc.net)
	zc.net.Start()
	zc.net.Run(3 * time.Second)

	if n := len(holders(zc, s)); n == 0 || n == len(zc.fulls) {
		t.Fatalf("%d of %d full nodes receive index %d: the rotation does not spread the skipped index",
			n, len(zc.fulls), s)
	}
	before := lastHeights(zc)
	taken := make(map[wire.NodeID]uint64)
	for _, fn := range zc.fulls {
		_, _, _, taken[fn.ID()] = fn.ByzStats()
	}

	zc.net.Crash(s)
	zc.net.Run(4500 * time.Millisecond)
	zc.net.Restart(s)
	zc.net.Run(cfg.duration)

	for _, fn := range zc.fulls {
		_, _, _, spares := fn.ByzStats()
		if spares -= taken[fn.ID()]; spares != 1 {
			t.Errorf("node %d took %d spares, want 1", fn.ID(), spares)
		}
		if len(fn.spares) != 0 || len(senders(fn)) != cfg.nc-cfg.f {
			t.Errorf("node %d ends with spares %v and senders %v, want n_c − f indices and no spare",
				fn.ID(), fn.spares, senders(fn))
		}
		hs := zc.completed[fn.ID()]
		for i, h := range hs {
			if h != uint64(i+1) {
				t.Fatalf("node %d completed heights out of order at %d: %v", fn.ID(), i, hs[max(0, i-3):i+1])
			}
		}
		if len(hs) == 0 || hs[len(hs)-1] <= before[fn.ID()]+20 {
			t.Errorf("node %d stalled around the crash: height %d before, %v after", fn.ID(), before[fn.ID()], hs[len(hs)-1:])
		}
	}
	for _, r := range tap.reqs {
		if int(r.from) >= cfg.nc && int(r.to) < cfg.nc {
			t.Errorf("node %d pulled (%d, %d..%d) from consensus node %d at %v",
				r.from, r.producer, r.first, r.end, r.to, r.at.Sub(simnet.Epoch))
		}
	}
}

// TestPlacementRepairsStripeLoop builds a three-node loop on one index — A
// takes it from B, B from C, C from A — that nobody takes from consensus,
// so no stripe of it ever enters. The placement rule repairs it: the
// index's relayer takes it from consensus again, and every other node that
// holds it moves to that relayer, whether the silence rule saw the loop
// first or not. Every node keeps completing blocks in order and ends with
// n_c − f indices, no spare and no loop.
func TestPlacementRepairsStripeLoop(t *testing.T) {
	cfg := zoneConfig{nc: 4, f: 1, zones: 1, perZone: 3, rate: 400, duration: 8 * time.Second}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(3 * time.Second)

	owner := zc.fulls[0] // a zone of 3 with n_c = 4: the first member relays {0, 1}
	if got := owner.RelayedStripes(); !slices.Equal(got, []uint8{0, 1}) {
		t.Fatalf("node %d relays %v, want [0 1]", owner.ID(), got)
	}
	const s = 0
	owner.ctx.Send(s, &Unsubscribe{Stripes: []uint8{s}})
	owner.links[s].direct = false
	a, b, c := zc.fulls[0], zc.fulls[1], zc.fulls[2]
	for _, fn := range zc.fulls {
		for _, id := range slices.Clone(fn.links[s].subs) {
			fn.setSubscriber(s, id, false)
		}
		fn.links[s].pending = wire.NoNode
	}
	for _, l := range [][2]*FullNode{{a, b}, {b, c}, {c, a}} {
		to, from := l[0], l[1]
		to.links[s].sender = from.ID()
		to.links[s].heard = heardAt{zc.net.Now(), to.opened}
		from.setSubscriber(s, to.ID(), true)
	}
	before := lastHeights(zc)
	zc.net.Run(cfg.duration)

	for _, fn := range zc.fulls {
		if takes := slices.Contains(fn.RelayedStripes(), s); takes != (fn == owner) {
			t.Errorf("node %d takes index %d from consensus: %v", fn.ID(), s, takes)
		}
		if sd := fn.links[s].sender; fn != owner && sd != wire.NoNode && sd != owner.ID() {
			t.Errorf("node %d takes index %d from %d, not its relayer %d", fn.ID(), s, sd, owner.ID())
		}
		if len(fn.spares) != 0 || len(senders(fn)) != cfg.nc-cfg.f {
			t.Errorf("node %d ends with spares %v and senders %v, want n_c − f indices and no spare",
				fn.ID(), fn.spares, senders(fn))
		}
		hs := zc.completed[fn.ID()]
		for i, h := range hs {
			if h != uint64(i+1) {
				t.Fatalf("node %d completed heights out of order at %d", fn.ID(), i)
			}
		}
		if len(hs) == 0 || hs[len(hs)-1] <= before[fn.ID()]+20 {
			t.Errorf("node %d stalled in the loop at height %d", fn.ID(), before[fn.ID()])
		}
	}
}

// fullNode returns the full node with the given ID, or nil.
func (zc *zoneCluster) fullNode(id wire.NodeID) *FullNode {
	for _, fn := range zc.fulls {
		if fn.ID() == id {
			return fn
		}
	}
	return nil
}
