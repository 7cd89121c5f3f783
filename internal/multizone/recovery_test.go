package multizone

import (
	"testing"
	"time"

	"predis/internal/faults"
	"predis/internal/wire"
)

// TestRestartedFullNodeCatchesUp crashes an ordinary full node through a
// declarative fault schedule and asserts that after restart it replays the
// blocks it missed: chain heights stay gap-free and its head reaches the
// live head of the zone.
func TestRestartedFullNodeCatchesUp(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 2, perZone: 5,
		rate: 300, duration: 12 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	victim := fullNodeID(0, 3)
	faults.Install(zc.net, faults.Schedule{Seed: 3, Actions: []faults.Action{
		faults.CrashWindow{Node: victim, From: 4 * time.Second, To: 7 * time.Second},
	}})
	zc.net.Start()
	zc.net.Run(cfg.duration)

	var vfn *FullNode
	var liveHead uint64
	for _, fn := range zc.fulls {
		if fn.cfg.Self == victim {
			vfn = fn
			continue
		}
		if fn.LastHeight() > liveHead {
			liveHead = fn.LastHeight()
		}
	}
	if vfn == nil {
		t.Fatal("victim not found")
	}
	if liveHead == 0 {
		t.Fatal("cluster made no progress")
	}
	if vfn.LastHeight()+3 < liveHead {
		t.Fatalf("restarted full node stuck at height %d, live head %d",
			vfn.LastHeight(), liveHead)
	}
	if vfn.CatchingUp() {
		t.Fatalf("catch-up still in flight at height %d (live %d)",
			vfn.LastHeight(), liveHead)
	}
	// Completion callbacks must stay strictly increasing with at most ONE
	// gap: if the victim was down past the bundle-retention window it
	// skip-syncs to an anchor block (one history gap, like a pruning
	// node), but everything before and after that jump replays in chain
	// order through the normal completion path.
	heights := zc.completed[victim]
	gaps := 0
	for i := 1; i < len(heights); i++ {
		if heights[i] <= heights[i-1] {
			t.Fatalf("victim completed heights not increasing at %d: %v",
				i, heights[:i+1])
		}
		if heights[i] != heights[i-1]+1 {
			gaps++
		}
	}
	if len(heights) > 0 && heights[0] != 1 {
		t.Fatalf("victim first completed height %d, want 1", heights[0])
	}
	if gaps > 1 {
		t.Fatalf("victim completed heights with %d gaps (max 1 skip-sync gap allowed): %v",
			gaps, heights)
	}
	t.Logf("restart catch-up: victim head %d, live head %d, %d blocks completed, %d skip-sync gap(s)",
		vfn.LastHeight(), liveHead, len(heights), gaps)
}

// TestRestartedRelayerCatchesUpWithoutBackups: one zone, so no backup
// peers, and the first-joined relayer sleeps through more than the bundle
// retention. Only zone peers still hold what it missed — consensus nodes
// prune first — and the skip-sync anchor a peer offers sits at that peer's
// pruning edge: the bundles above it have to be asked of that very peer,
// at once, or they are gone too. (At the parent commit the victim is still
// 40 blocks behind when the run ends.)
func TestRestartedRelayerCatchesUpWithoutBackups(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 6,
		rate: 150, duration: 12 * time.Second, joinSpacing: 20 * time.Millisecond,
	}
	relayerOutage(t, cfg, 4*time.Second)
}

// relayerOutage runs cfg's cluster with its first-joined relayer down for
// 3 s from the given instant and fails the test unless the relayer is
// back at the zone's live head, catch-up finished, when the run ends.
func relayerOutage(t *testing.T, cfg zoneConfig, from time.Duration) {
	t.Helper()
	zc := buildZoneCluster(t, cfg)
	victim := zc.fulls[0]
	faults.Install(zc.net, faults.Schedule{Seed: 3, Actions: []faults.Action{
		faults.CrashWindow{Node: victim.ID(), From: from, To: from + 3*time.Second},
	}})
	zc.net.Start()
	zc.net.Run(cfg.duration)
	live := zc.fulls[1].LastHeight()
	if live < 100 {
		t.Fatalf("crash at %v: zone made no progress: live head %d", from, live)
	}
	if victim.LastHeight()+3 < live || victim.CatchingUp() {
		t.Errorf("crash at %v: restarted relayer at height %d (catching up: %v), live head %d",
			from, victim.LastHeight(), victim.CatchingUp(), live)
	}
}

// TestSkipSyncZeroesStateRoots forces a skip-sync on a full node that
// executes: bundle retention is cut to a few bundles per chain, so after
// a three-second outage the blocks the victim missed can no longer be
// served and it fast-forwards to an anchor. Its executor has then missed
// blocks, so every root it reports from the gap on — to OnExecute and
// into ledger entries — must be zero, never a root computed on stale
// state. A second node joins only after the same seven seconds, so its
// very first block arrives by skip-sync (height 0 → anchor): it has
// executed nothing the chain did, and every root it reports is zero too.
func TestSkipSyncZeroesStateRoots(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 4,
		rate: 300, duration: 12 * time.Second,
		keepConfirmed: 8, exec: true,
	}
	zc := buildZoneCluster(t, cfg)
	victim, late := fullNodeID(0, 3), fullNodeID(0, 2)
	faults.Install(zc.net, faults.Schedule{Seed: 3, Actions: []faults.Action{
		faults.CrashWindow{Node: victim, From: 4 * time.Second, To: 7 * time.Second},
		faults.CrashWindow{Node: late, From: 0, To: 7 * time.Second},
	}})
	zc.net.Start()
	zc.net.Run(cfg.duration)

	results := zc.executed[victim]
	gapAt := -1
	for i := 1; i < len(results); i++ {
		if results[i].Height != results[i-1].Height+1 {
			gapAt = i
			break
		}
	}
	if gapAt < 0 {
		t.Fatalf("no skip-sync forced: victim executed %d consecutive blocks", len(results))
	}
	for i, r := range results {
		if (i >= gapAt) != r.StateRoot.IsZero() {
			t.Fatalf("height %d (gap before height %d): state root %s",
				r.Height, results[gapAt].Height, r.StateRoot.Short())
		}
	}
	if len(results) == gapAt+1 {
		t.Fatal("victim executed nothing after the skip-sync")
	}
	var vfn *FullNode
	for _, fn := range zc.fulls {
		if fn.cfg.Self == victim {
			vfn = fn
		}
	}
	if gaps := vfn.cfg.Executor.Stats().Gaps; gaps != 1 {
		t.Fatalf("executor counted %d gaps, want 1", gaps)
	}
	led := zc.ledgers[victim]
	for h := uint64(1); h <= uint64(led.Len()); h++ {
		e, err := led.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if e.Height >= results[gapAt].Height && !e.StateRoot.IsZero() {
			t.Fatalf("ledger height %d carries root %s after the gap", e.Height, e.StateRoot.Short())
		}
	}
	// A peer that never skipped keeps stamping real roots.
	for _, r := range zc.executed[fullNodeID(0, 0)] {
		if r.StateRoot.IsZero() {
			t.Fatalf("healthy peer reported a zero root at height %d", r.Height)
		}
	}
	lateRes := zc.executed[late]
	if len(lateRes) == 0 || lateRes[0].Height == 1 {
		t.Fatalf("late joiner did not skip-sync from height 0: executed %d blocks", len(lateRes))
	}
	for _, r := range lateRes {
		if !r.StateRoot.IsZero() {
			t.Fatalf("late joiner, first block %d by skip-sync, reports root %s at height %d",
				lateRes[0].Height, r.StateRoot.Short(), r.Height)
		}
	}
	t.Logf("victim executed %d blocks, skip-sync %d → %d, ledger holds %d entries",
		len(results), results[gapAt-1].Height, results[gapAt].Height, led.Len())
}

// TestRestartedRelayerRejoins crashes a converged relayer, restarts it,
// and asserts it applies the placement rule afresh: it ends with stripe
// senders, catches up the missed blocks, and its old stripes stay covered
// by the zone throughout.
func TestRestartedRelayerRejoins(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 7,
		rate: 300, duration: 14 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second) // converge + commit a while

	var victim *FullNode
	for _, fn := range zc.fulls {
		if fn.IsRelayer() {
			victim = fn
			break
		}
	}
	if victim == nil {
		t.Fatal("no relayer converged before the crash")
	}
	crashedStripes := victim.RelayedStripes()
	zc.net.Crash(victim.cfg.Self)
	t.Logf("crashed relayer %d (stripes %v)", victim.cfg.Self, crashedStripes)
	zc.net.Run(3 * time.Second)
	zc.net.Restart(victim.cfg.Self)
	zc.net.Run(7 * time.Second)

	// The restarted relayer must have resubscribed: a sender (or pending
	// consensus-direct route) for every stripe.
	missing := 0
	for s := 0; s < cfg.nc; s++ {
		if l := victim.links[s]; l.sender == wire.NoNode && !l.direct {
			missing++
		}
	}
	if missing == cfg.nc {
		t.Fatalf("restarted relayer has no stripe senders at all")
	}
	var liveHead uint64
	for _, fn := range zc.fulls {
		if fn.cfg.Self != victim.cfg.Self && fn.LastHeight() > liveHead {
			liveHead = fn.LastHeight()
		}
	}
	if victim.LastHeight()+3 < liveHead {
		t.Fatalf("restarted relayer stuck at height %d, live head %d",
			victim.LastHeight(), liveHead)
	}
	if victim.CatchingUp() {
		t.Fatalf("catch-up still in flight at height %d (live %d)",
			victim.LastHeight(), liveHead)
	}
	// The crashed relayer's stripes must be covered (by the next candidate
	// while it was down, or by itself after rejoining).
	covered := make(map[uint8]bool)
	for _, fn := range zc.fulls {
		for _, s := range fn.RelayedStripes() {
			covered[s] = true
		}
	}
	for _, s := range crashedStripes {
		if !covered[s] {
			t.Fatalf("stripe %d orphaned after relayer restart", s)
		}
	}
	t.Logf("relayer restart: head %d, live head %d, relayer=%v",
		victim.LastHeight(), liveHead, victim.IsRelayer())
}

// TestZoneRecoveryDeterministic runs the full-node crash schedule twice
// with identical seeds and asserts bit-identical outcomes.
func TestZoneRecoveryDeterministic(t *testing.T) {
	run := func() (uint64, uint64, string) {
		cfg := zoneConfig{
			nc: 4, f: 1, zones: 2, perZone: 4,
			rate: 250, duration: 9 * time.Second,
		}
		zc := buildZoneCluster(t, cfg)
		victim := fullNodeID(1, 2)
		inj := faults.Install(zc.net, faults.Schedule{Seed: 11, Actions: []faults.Action{
			faults.CrashWindow{Node: victim, From: 3 * time.Second, To: 5 * time.Second},
			faults.LossWindow{From: wire.NoNode, To: fullNodeID(0, 0), Prob: 0.03,
				Start: 5 * time.Second, End: 7 * time.Second},
		}})
		zc.net.Start()
		zc.net.Run(cfg.duration)
		var total uint64
		for _, fn := range zc.fulls {
			total += fn.LastHeight()
		}
		return zc.net.Delivered(), total, inj.TraceString()
	}
	d1, h1, t1 := run()
	d2, h2, t2 := run()
	if d1 != d2 || h1 != h2 || t1 != t2 {
		t.Fatalf("nondeterministic zone recovery:\n delivered %d vs %d\n heights %d vs %d\n trace:\n%s---\n%s",
			d1, d2, h1, h2, t1, t2)
	}
	if d1 == 0 || h1 == 0 {
		t.Fatal("empty run")
	}
}

// TestSkipSyncAtAnyCrashInstant sweeps the instant a relayer crashes over
// 30 ms in 1 ms steps. Retention (128 bundles of 20 ms per chain, on
// consensus and full nodes alike) is shorter than the 3 s outage, so every
// restart skip-syncs to an anchor a zone peer offers, and whether that
// anchor's bundles are still retained when the victim's pulls arrive one
// round trip later must not depend on where in a block interval the crash
// fell: the victim reaches the live head on every offset. (With the
// anchor on the pruning edge — the lowest servable block — the +10 ms run
// chases anchor after anchor and never lands.)
func TestSkipSyncAtAnyCrashInstant(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 4,
		rate: 150, duration: 12 * time.Second, joinSpacing: 20 * time.Millisecond,
	}
	for off := 0; off < 30; off++ {
		relayerOutage(t, cfg, 4*time.Second+time.Duration(off)*time.Millisecond)
	}
}
