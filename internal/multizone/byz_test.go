package multizone

import (
	"testing"
	"time"

	"predis/internal/faults"
	"predis/internal/wire"
)

// sumByzStats totals the Byzantine-hardening counters across a cluster.
func sumByzStats(zc *zoneCluster) (rejected, refetches, quarantines, spares uint64) {
	for _, fn := range zc.fulls {
		rj, rf, q, sp := fn.ByzStats()
		rejected += rj
		refetches += rf
		quarantines += q
		spares += sp
	}
	return
}

// busiestRelayer returns the converged relayer with the most downstream
// subscriptions — the node whose misbehaviour hurts the most.
func busiestRelayer(t *testing.T, zc *zoneCluster) *FullNode {
	t.Helper()
	var best *FullNode
	for _, fn := range zc.fulls {
		if fn.IsRelayer() && (best == nil || fn.subCount > best.subCount) {
			best = fn
		}
	}
	if best == nil || best.subCount == 0 {
		t.Fatal("no relayer with downstream subscribers converged")
	}
	return best
}

// lastHeights snapshots the newest completed block height per full node.
func lastHeights(zc *zoneCluster) map[wire.NodeID]uint64 {
	out := make(map[wire.NodeID]uint64)
	for _, fn := range zc.fulls {
		hs := zc.completed[fn.cfg.Self]
		if len(hs) > 0 {
			out[fn.cfg.Self] = hs[len(hs)-1]
		}
	}
	return out
}

// TestByzCountersZeroOnBenignRuns pins the replay-identity contract: on a
// run with only benign faults (loss, a crash window) the verification
// counters stay zero — verification never fails without an adversary, so
// the always-on reject/refetch/quarantine paths are traffic-neutral.
// (Spares are not among them: a crashed sender is silent too.)
func TestByzCountersZeroOnBenignRuns(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 6,
		rate: 300, duration: 8 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	faults.Install(zc.net, faults.Schedule{Seed: 7, Actions: []faults.Action{
		lossEverywhere(0.03, cfg),
		faults.CrashWindow{Node: fullNodeID(0, 4), From: 3 * time.Second, To: 5 * time.Second},
	}})
	zc.net.Start()
	zc.net.Run(cfg.duration)

	if rj, rf, q, _ := sumByzStats(zc); rj+rf+q != 0 {
		t.Fatalf("benign run moved hardening counters: rejected=%d refetches=%d quarantines=%d",
			rj, rf, q)
	}
	for i, h := range zc.hosts {
		if n := h.Dist.Unexpected(); n != 0 {
			t.Fatalf("consensus node %d counted %d unexpected messages on a benign run", i, n)
		}
	}
	if u := zc.net.Dropped().Undecodable; u != 0 {
		t.Fatalf("benign run produced %d undecodable frames", u)
	}
	if zc.commits == 0 {
		t.Fatal("cluster made no progress")
	}
}

// TestCorruptingRelayerRejectedRefetchedQuarantined converges a zone, then
// turns its busiest relayer into a stripe corrupter for a window. Its
// subscribers must reject every tampered stripe on Merkle-proof failure,
// refetch the bundles from alternate sources, quarantine the offender
// after repeat offenses, and keep completing blocks throughout — and once
// the window closes the zone heals (quarantine TTL expiry lets the
// offender serve again).
func TestCorruptingRelayerRejectedRefetchedQuarantined(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 6,
		rate: 300, duration: 14 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second) // converge the subscription tree

	evil := busiestRelayer(t, zc)
	before := lastHeights(zc)
	faults.Install(zc.net, faults.Schedule{Seed: 11, Actions: []faults.Action{
		faults.CorruptStripe{Node: evil.cfg.Self,
			From: 4200 * time.Millisecond, To: 7 * time.Second},
	}})
	t.Logf("corrupting relayer %d (downstream subs: %d)", evil.cfg.Self, evil.subCount)
	zc.net.Run(cfg.duration - 4*time.Second)

	rejected, refetches, quarantines, _ := sumByzStats(zc)
	if rejected == 0 {
		t.Fatal("no tampered stripe was rejected")
	}
	if refetches == 0 {
		t.Fatal("rejected stripes triggered no refetch")
	}
	if quarantines == 0 {
		t.Fatal("a repeat offender was never quarantined")
	}
	// Self-healing: every full node (the offender included — it is the
	// network forging its traffic, the node itself is honest) must have
	// completed new blocks after the attack opened.
	for _, fn := range zc.fulls {
		hs := zc.completed[fn.cfg.Self]
		if len(hs) == 0 || hs[len(hs)-1] <= before[fn.cfg.Self] {
			t.Fatalf("node %d stalled at height %d during the attack",
				fn.cfg.Self, before[fn.cfg.Self])
		}
	}
	t.Logf("rejected=%d refetches=%d quarantines=%d", rejected, refetches, quarantines)
}

// TestWithheldStripesStarveThenRewire makes the busiest relayer silently
// withhold its stripes (heartbeats still flow, so liveness expiry never
// fires). Its subscribers hold exactly n_c − f indices, so a withheld one
// blocks assembly: each must notice the silence, take a spare index from
// another relayer and keep completing blocks without the attacker ever
// relenting.
func TestWithheldStripesStarveThenRewire(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 6,
		rate: 300, duration: 14 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second)

	evil := busiestRelayer(t, zc)
	before := lastHeights(zc)
	var victims []*FullNode
	for _, fn := range zc.fulls {
		for _, l := range fn.links {
			if l.sender == evil.ID() {
				victims = append(victims, fn)
				break
			}
		}
	}
	// The window never closes: recovery must come from the spares, not
	// from the attacker relenting.
	faults.Install(zc.net, faults.Schedule{Seed: 19, Actions: []faults.Action{
		faults.Withhold{Node: evil.cfg.Self, Types: []wire.Type{TypeStripe},
			From: 4200 * time.Millisecond, To: cfg.duration + time.Second},
	}})
	t.Logf("withholding relayer %d (downstream subs: %d)", evil.cfg.Self, evil.subCount)
	zc.net.Run(cfg.duration - 4*time.Second)

	for _, fn := range victims {
		if _, _, _, spares := fn.ByzStats(); spares == 0 {
			t.Errorf("node %d, fed by the withholder, never took a spare", fn.ID())
		}
	}
	for _, fn := range zc.fulls {
		if fn.cfg.Self == evil.cfg.Self {
			continue
		}
		hs := zc.completed[fn.cfg.Self]
		if len(hs) == 0 || hs[len(hs)-1] <= before[fn.cfg.Self] {
			t.Fatalf("node %d stalled at height %d under withholding",
				fn.cfg.Self, before[fn.cfg.Self])
		}
	}
	_, _, _, spares := sumByzStats(zc)
	t.Logf("%d victims, spares=%d", len(victims), spares)
}
