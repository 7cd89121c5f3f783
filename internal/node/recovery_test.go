package node

import (
	"slices"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/faults"
	"predis/internal/microblock"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// TestCrashedReplicaCatchesUpAfterRestart crashes a follower mid-run,
// restarts it, and asserts it replays every block it missed: same commit
// count and identical commit digest as the replicas that stayed up.
func TestCrashedReplicaCatchesUpAfterRestart(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 400, clients: 4,
		duration: 6 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	faults.Install(c.net, faults.Schedule{Seed: 1, Actions: []faults.Action{
		faults.CrashWindow{Node: 2, From: 1500 * time.Millisecond, To: 3 * time.Second},
	}})
	c.run(cfg.duration)
	c.assertAgreement(t, []int{0, 1, 3})

	// The restarted node must reach the live chain head: its commit count
	// may trail only by blocks still in flight at the horizon.
	restarted := c.nodes[2].Predis()
	live := c.nodes[0].Predis()
	lh, ll := restarted.LastHeight(), live.LastHeight()
	if lh == 0 || ll == 0 {
		t.Fatalf("no commits: restarted=%d live=%d", lh, ll)
	}
	if lh+2 < ll {
		t.Fatalf("restarted node stuck at height %d, live head %d", lh, ll)
	}
	if restarted.CatchingUp() {
		t.Fatalf("catch-up still in flight at height %d (live %d)", lh, ll)
	}
	// Content agreement at matching counts.
	if c.commits[2] == c.commits[0] && c.commitLog[2] != c.commitLog[0] {
		t.Fatal("restarted node executed different content")
	}
	if c.commits[2] == 0 {
		t.Fatal("restarted node committed nothing")
	}
	t.Logf("crash-recovery: live head %d, restarted head %d, commits=%v", ll, lh, c.commits)
}

// TestLeaderCrashRecovery crashes the consensus leader (node 0, view 0);
// the cluster must view-change past it, and after restart the old leader
// must resync its view and catch up to the live head.
func TestLeaderCrashRecovery(t *testing.T) {
	cfg := clusterConfig{
		mode: ModePredis, engine: EnginePBFT,
		nc: 4, f: 1, rate: 400, clients: 4,
		duration: 8 * time.Second, copyMsgs: true,
	}
	c := buildCluster(t, cfg)
	faults.Install(c.net, faults.Schedule{Seed: 1, Actions: []faults.Action{
		faults.CrashWindow{Node: 0, From: 2 * time.Second, To: 4 * time.Second},
	}})
	c.run(cfg.duration)
	c.assertAgreement(t, []int{1, 2, 3})

	restarted := c.nodes[0].Predis()
	live := c.nodes[1].Predis()
	lh, ll := restarted.LastHeight(), live.LastHeight()
	if lh+2 < ll {
		t.Fatalf("old leader stuck at height %d, live head %d", lh, ll)
	}
	if c.commits[0] == c.commits[1] && c.commitLog[0] != c.commitLog[1] {
		t.Fatal("old leader executed different content")
	}
	t.Logf("leader-crash: live head %d, old leader head %d, commits=%v", ll, lh, c.commits)
}

// TestRecoveryDeterministic runs the follower-crash scenario twice with
// identical seeds and asserts bit-identical outcomes (event counts,
// commit digests, fault traces).
func TestRecoveryDeterministic(t *testing.T) {
	run := func() (uint64, [4]int, string) {
		cfg := clusterConfig{
			mode: ModePredis, engine: EnginePBFT,
			nc: 4, f: 1, rate: 400, clients: 4,
			duration: 5 * time.Second, copyMsgs: true,
		}
		c := buildCluster(t, cfg)
		inj := faults.Install(c.net, faults.Schedule{Seed: 9, Actions: []faults.Action{
			faults.CrashWindow{Node: 2, From: 1 * time.Second, To: 2500 * time.Millisecond},
			faults.LossWindow{From: wire.NoNode, To: 1, Prob: 0.05,
				Start: 3 * time.Second, End: 4 * time.Second},
		}})
		c.run(cfg.duration)
		var commits [4]int
		copy(commits[:], c.commits)
		return c.net.Delivered(), commits, inj.TraceString()
	}
	d1, c1, t1 := run()
	d2, c2, t2 := run()
	if d1 != d2 || c1 != c2 || t1 != t2 {
		t.Fatalf("nondeterministic recovery run:\n delivered %d vs %d\n commits %v vs %v\n trace:\n%s---\n%s",
			d1, d2, c1, c2, t1, t2)
	}
	if d1 == 0 {
		t.Fatal("empty run")
	}
}

// TestRestartRearmsEveryApplication crashes replica 3 for [1 s, 2 s) under
// every data production mode on PBFT. A crash suppresses the timers that
// fall inside it, so each application must re-arm its own on restart: the
// replicas agree, and under every mode every transaction confirms (clients
// re-send what the crash dropped). That needs the restarted Stratus
// producer to seal a queue shorter than MBSize on its tick again, and the
// restarted Narwhal producer to re-send the microblock it had outstanding,
// whose acks the crash lost.
func TestRestartRearmsEveryApplication(t *testing.T) {
	const victim = 3
	restart := 2 * time.Second
	for _, c := range []struct {
		name       string
		mode       Mode
		allConfirm bool
	}{
		{"predis", ModePredis, true},
		{"baseline", ModeBaseline, true},
		{"narwhal", ModeNarwhal, true},
		{"stratus", ModeStratus, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := clusterConfig{
				mode: c.mode, engine: EnginePBFT,
				nc: 4, f: 1, rate: 50, clients: 4,
				duration: 8 * time.Second, copyMsgs: true,
				resubmitAfter: 2 * time.Second,
				schedule: []faults.Action{
					faults.CrashWindow{Node: victim, From: time.Second, To: restart},
				},
			}
			cl := buildCluster(t, cfg)
			produced := func() uint64 {
				if mb, ok := cl.nodes[victim].app.(*microblock.App); ok {
					n, _ := mb.Stats()
					return n
				}
				return 0
			}
			cl.net.Start()
			cl.net.Run(restart)
			atRestart := produced()
			cl.net.Run(restart + 500*time.Millisecond)
			if c.mode == ModeStratus && produced() <= atRestart {
				t.Errorf("victim produced no microblock in the 500 ms after its restart (%d before)", atRestart)
			}
			cl.net.Run(cfg.duration)
			cl.assertAgreement(t, []int{0, 1, 2, victim})
			var submitted uint64
			pending := 0
			for _, client := range cl.clients {
				submitted += client.Submitted()
				pending += client.PendingCount()
			}
			if c.allConfirm && pending > 0 {
				t.Errorf("%d of %d transactions never confirmed", pending, submitted)
			}
			t.Logf("%d of %d transactions unconfirmed, p99 %v, commits %v, victim microblocks %d → %d",
				pending, submitted, cl.collector.Latency().P99, cl.commits, atRestart, produced())
		})
	}
}

// TestFetchUnderCrashMatchesPredis crashes replica 3 from 1 s to 2 s at
// 4 000 tx/s on HotStuff and counts the fetch responses every node
// receives. Narwhal and Stratus fetch through Predis's plane — one request
// per producer at a time, to one holder, with backoff — so each one's
// response bytes stay within twice P-HS's on the same schedule; a fetch
// multicast to every holder on every validation pass sends several times
// that. The restarted replica misses a second of batches on every chain,
// so each mode must fetch something, or the bound says nothing.
func TestFetchUnderCrashMatchesPredis(t *testing.T) {
	fetched := func(mode Mode) (responses, bytes int) {
		cfg := clusterConfig{
			mode: mode, engine: EngineHotStuff,
			nc: 4, f: 1, rate: 1000, clients: 4,
			duration: 4 * time.Second,
			schedule: []faults.Action{
				faults.CrashWindow{Node: 3, From: time.Second, To: 2 * time.Second},
			},
		}
		c := buildCluster(t, cfg)
		c.net.OnDeliver = func(_, _ wire.NodeID, m wire.Message, _ time.Time) {
			if m.Type() == core.TypeBundleResponse {
				responses++
				bytes += m.WireSize()
			}
		}
		c.run(cfg.duration)
		return responses, bytes
	}
	n, predis := fetched(ModePredis)
	t.Logf("P-HS: %d responses, %d B", n, predis)
	for _, c := range []struct {
		name string
		mode Mode
	}{{"Narwhal", ModeNarwhal}, {"Stratus", ModeStratus}} {
		n, b := fetched(c.mode)
		t.Logf("%s: %d responses, %d B", c.name, n, b)
		if n == 0 {
			t.Errorf("%s: the restarted replica fetched nothing", c.name)
		}
		if b > 2*predis {
			t.Errorf("%s: %d B of fetch responses, over twice P-HS's %d B", c.name, b, predis)
		}
	}
}

// TestLongCrashResumesAcking crashes replica 3 for 8 s at 4 000 tx/s, long
// enough for more than KeepConfirmed batches of every chain to commit, so
// its peers have pruned the start of every hole it comes back to. It must
// give those heights up and link the batches that arrive after the restart,
// and so acknowledge every other producer's batches again.
func TestLongCrashResumesAcking(t *testing.T) {
	const victim = 3
	crash, restart, end := time.Second, 9*time.Second, 12*time.Second
	for _, c := range []struct {
		name string
		mode Mode
	}{{"narwhal", ModeNarwhal}, {"stratus", ModeStratus}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := clusterConfig{
				mode: c.mode, engine: EnginePBFT,
				nc: 4, f: 1, rate: 1000, clients: 4,
				duration: end,
				schedule: []faults.Action{
					faults.CrashWindow{Node: victim, From: crash, To: restart},
				},
			}
			cl := buildCluster(t, cfg)
			keep := uint64(cl.nodes[0].app.(*microblock.App).Mempool().Params().KeepConfirmed)
			acks := make([]int, cfg.nc)
			cl.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
				if _, ok := m.(*microblock.Ack); ok && from == victim && at.Sub(simnet.Epoch) >= restart+time.Second {
					acks[to]++
				}
			}
			cl.net.Start()
			cl.net.Run(restart)
			confirmed := cl.nodes[0].app.(*microblock.App).Mempool().Confirmed()
			cl.net.Run(end)
			for p := 0; p < cfg.nc; p++ {
				if p == victim {
					continue
				}
				if confirmed[p] <= keep+1 {
					t.Errorf("producer %d: only %d batches committed by the restart, want over %d", p, confirmed[p], keep+1)
				}
				if acks[p] == 0 {
					t.Errorf("producer %d: no ack from the victim in the 2 s after its restart settled", p)
				}
			}
			tips, victimTips := cl.nodes[0].app.(*microblock.App).Mempool().Tips(), cl.nodes[victim].app.(*microblock.App).Mempool().Tips()
			if !slices.Equal(tips, victimTips) {
				t.Errorf("victim holds chains up to %v, node 0 up to %v", victimTips, tips)
			}
			t.Logf("committed by the restart %v, victim's acks in the last 2 s %v", confirmed, acks)
		})
	}
}
