package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// pacedPoint is what the paced-stream tests read off one run.
type pacedPoint struct {
	res    PointResult
	replay string
	// gap is the leader's pace gap at the end of the run and commitGap
	// the longest interval between two commits at node 0 after warm-up;
	// sealed counts payload bundles across all producers and sealWaitMS
	// sums, over them, the time their first transaction waited to be
	// sealed; committed is node 0's committed transaction count.
	gap, commitGap time.Duration
	sealed         uint64
	sealWaitMS     float64
	committed      uint64
}

// pacedStreamPoint runs one P-PBFT streaming point: 16-slot paced window,
// proposal-clocked sealing, 2 simulated seconds of load from the given
// number of clients. It is Deploy.Build's bare group but for the client
// count, which Build fixes at n_c.
func pacedStreamPoint(t *testing.T, offered float64, clients int) pacedPoint {
	t.Helper()
	tr, reg := NewReplayTrace(), obs.NewRegistry()
	d := Deploy{
		System: SysPPBFT, NC: 4, Stream: true,
		Offered: offered, Load: 2 * time.Second, Seed: 42, Replay: tr,
	}
	dep := d.deployment()
	warm := dep.LoadStart + d.Load/4 // the collector's warm-up
	var last, commitGap time.Duration
	d.Host = func(cfg *node.Config) {
		if cfg.Self != 0 {
			return
		}
		record := cfg.OnCommit
		cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
			record(height, txs)
			if at := dep.Net.Elapsed(); at >= warm {
				if last > 0 {
					commitGap = max(commitGap, at-last)
				}
				last = at
			}
		}
	}
	if err := d.group(dep, nil); err != nil {
		t.Fatal(err)
	}
	for i, n := range dep.Hosts {
		dep.Net.AddNode(wire.NodeID(i), n)
	}
	d.addLoad(dep, clients)
	res := dep.Run()
	dep.publish(reg)
	p := pacedPoint{
		res:       res,
		commitGap: commitGap,
		replay:    fmt.Sprintf("%s %d %+v", tr.Sum(), tr.Deliveries(), res),
		gap:       time.Duration(reg.Gauge("pbft.pace_gap_ms", 0).Value() * float64(time.Millisecond)),
		committed: reg.Counter("txs_committed", 0).Value(),
	}
	for i := wire.NodeID(0); i < 4; i++ {
		p.sealed += reg.Counter("bundle_sealed", i).Value()
		p.sealWaitMS += reg.Gauge("bundle_seal_wait_ms", i).Value()
	}
	if p.sealed == 0 || p.committed == 0 {
		t.Fatalf("%d payload bundles sealed, %d transactions committed", p.sealed, p.committed)
	}
	return p
}

// TestPacedStreamUnderLoad: at 4 000 tx/s the self-clocked pipeline
// commits evenly — after warm-up no two commits are further apart than
// two pace gaps, where the ack-clocked window stalled for most of a round
// — and batches with load (≥ 3 transactions per bundle); the run replays.
func TestPacedStreamUnderLoad(t *testing.T) {
	p := pacedStreamPoint(t, 4000, 4)
	if p.gap < 4*time.Millisecond || p.gap > 6*time.Millisecond {
		t.Fatalf("pace gap %v, want ≈ 75 ms / 16 slots", p.gap)
	}
	if p.commitGap == 0 || p.commitGap > 2*p.gap {
		t.Errorf("longest inter-commit gap %v, want within 2 × the pace gap %v", p.commitGap, p.gap)
	}
	// Sealed counts the uncommitted tail too, so this understates.
	if perBundle := float64(p.committed) / float64(p.sealed); perBundle < 3 {
		t.Errorf("%.2f transactions per bundle at 4000 tx/s, want ≥ 3", perBundle)
	}
	if again := pacedStreamPoint(t, 4000, 4); again.replay != p.replay {
		t.Errorf("same-seed runs diverged:\n  %s\n  %s", p.replay, again.replay)
	}
}

// TestPacedStreamIdle: at 200 tx/s sealing stays per transaction and
// latency stays where it was measured when the pace went in, within 2 % and
// 1 % (the references moved once since, with the builder's timeline and
// keys). Two client layouts, because the clients tick in lockstep: one
// client delivers a pair of transactions to two producers every 10 ms —
// nothing ever queues behind a seal, every bundle holds one transaction,
// and the second of each pair pays part of one pace gap at the leader;
// Build's four clients hit one producer with a burst of four every 20 ms —
// momentary load, which batches (the transactions behind the first wait
// for the next proposal) at no cost in latency.
func TestPacedStreamIdle(t *testing.T) {
	within := func(name string, got, parent time.Duration, pct int64) {
		t.Helper()
		if d := (got - parent).Abs(); d*100 > parent*time.Duration(pct) {
			t.Errorf("%s: confirmed mean %v, want within %d%% of %v", name, got, pct, parent)
		}
	}
	one := pacedStreamPoint(t, 200, 1)
	// Only in the first 75 ms, before any proposal has come round, can a
	// transaction wait — for the 20 ms tick at most.
	if one.sealWaitMS > 20 || one.sealed < one.committed {
		t.Errorf("one client: %d bundles for %d committed transactions, %.3f ms waited for a seal in total; want one bundle per transaction, sealed on arrival",
			one.sealed, one.committed, one.sealWaitMS)
	}
	within("one client", one.res.Latency.Mean, 148300555*time.Nanosecond, 2)
	four := pacedStreamPoint(t, 200, 4)
	within("four lockstep clients", four.res.Latency.Mean, 151415537*time.Nanosecond, 1)
}

// TestReplayPinned holds the model still: golden replay digests
// ("<sha256> <deliveries>") for one run of each schedule family — a
// block-mode P-PBFT point (Pipeline 1 never enters the pace code),
// recovery with the view-0 leader crashed and a view change, a paced
// 16-slot stream point, quick quickstart (P-HS, Multi-Zone, full nodes)
// in block and in stream mode, and quick contention, whose row also
// carries a digest of every per-height state root. Two runs each must
// reproduce them. The experiment rows — quick recovery and byzantine
// through Options.Replay, and fig7, fig8, scale and fig5 (WAN and LAN),
// which take no trace, as a SHA-256 of their rendered quick tables
// (scale's without its machine-cost table) — run once: same-seed
// determinism is the first six rows' and TestReplayRecoveryDeterministic's
// business, these hold every Multi-Zone deployment shape, the scale sweep
// and Fig. 5's Narwhal and Stratus columns still. A change
// that moves the model on purpose re-pins the rows it moves; a host-only
// change must leave all of them alone. (All ten rows moved together with
// simnet's NIC model, which re-timed every delivery; seven moved again
// with ISSUE 25 — Predis blocks on the consensus lane, stripe headers on
// f+1 carriers, two-relayer subscription loops broken — while the two bare
// consensus points and fig8's tables did not. Stream quickstart alone
// moved when stream mode stopped pushing proposed blocks to full nodes.
// Seven moved again when full nodes began receiving n_c − f stripe indices
// instead of n_c — every row with full nodes, fig8's tables included —
// while the two bare consensus points and fig7's tables did not. The two
// recovery rows alone moved when a gap above buffered bundles stopped
// being re-requested whole each time the buffered run grew. Eight moved
// when relayer placement became a function of zone membership — every
// row with full nodes, fig7's table digest included, since consensus
// nodes' relayer subscriptions changed with it — while the two bare
// consensus points and scale's tables did not. The six rows with full nodes
// and a replay trace moved when the relayer tree began carrying the
// committed Predis block under its own type tag instead of a zone wrapper;
// folding the old tag into the new one in ReplayTrace.record reproduces
// their new digests from the old code, and fig8's tables, whose sources
// became core.Predis, did not move. The fig5 rows were pinned when
// Narwhal's and Stratus's batches became bundles on Predis's data plane.
// The fig5lan table digest alone moved when stats.Table.Render began
// printing a second point of a series at an x it had seen: Narwhal's
// 4 000 and 16 000 offered points commit the same throughput. The two bare
// consensus points and the fig5 rows alone moved when the bare group
// became a Deploy: clients 5000+k, keys from seed+7, load from 200 ms.)
func TestReplayPinned(t *testing.T) {
	sum := func(tr *ReplayTrace) string { return fmt.Sprintf("%s %d", tr.Sum(), tr.Deliveries()) }
	point := func() string {
		tr := NewReplayTrace()
		if _, err := measure(Deploy{
			System: SysPPBFT, NC: 4,
			Offered: 1000, Load: 1500 * time.Millisecond, Seed: 42, Replay: tr,
		}); err != nil {
			t.Fatal(err)
		}
		return sum(tr)
	}
	streamPoint := func() string {
		digest, deliveries, _ := streamReplayOnce(t)
		return fmt.Sprintf("%s %d", digest, deliveries)
	}
	recovery := func() string {
		tr := NewReplayTrace()
		d := recoveryDeploy(3, 1500, 6*time.Second, 7)
		d.Replay = tr
		if _, err := runRecovery(recoverySpec{
			Deploy: d, bucket: 500 * time.Millisecond,
			crashFrom: 2 * time.Second, crashTo: 3500 * time.Millisecond,
			victimConsensus: true,
		}); err != nil {
			t.Fatal(err)
		}
		return sum(tr)
	}
	contention := func() string {
		tr, state := contentionOnce(t)
		return fmt.Sprintf("%s roots %s", sum(tr), crypto.HashBytes([]byte(state)))
	}
	// experiment runs a registered experiment at -quick -seed 1: its replay
	// digest where it takes a trace, else a digest of its rendered tables.
	experiment := func(run func(Options) ([]*stats.Table, error), replay bool) func() string {
		return func() string {
			tr := NewReplayTrace()
			o := Options{Quick: true, Seed: 1}
			if replay {
				o.Replay = tr
			}
			tables, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if replay {
				return sum(tr)
			}
			var out strings.Builder
			for _, tbl := range tables {
				out.WriteString(tbl.Render())
			}
			return crypto.HashBytes([]byte(out.String())).String()
		}
	}
	// scaleTables is Scale without its machine-cost table, the one table
	// whose figures (wall-clock, peak RSS) differ from run to run.
	scaleTables := func(o Options) ([]*stats.Table, error) {
		tables, err := Scale(o)
		return slices.DeleteFunc(tables, func(tbl *stats.Table) bool {
			return strings.Contains(tbl.Title, "nondeterministic")
		}), err
	}
	for _, c := range []struct {
		name string
		runs int
		run  func() string
		want string
	}{
		{"P-PBFT point", 2, point, "b762fcac853466d6a48a7ee429ef9c48726770dd89b63edcfa381bf271aea657 3067"},
		{"leader-crash recovery", 2, recovery, "105351265e3c7d9f377654bff3ad09113a71f6c0ee0a5d8d5e7789ef8b82e95b 34025"},
		{"stream P-PBFT point", 2, streamPoint, "1a9d820b6a1d45bd45895559ef621e2966a1d690d4bc8943f5f5796501a6e513 14761"},
		{"quickstart", 2, experiment(Quickstart, true), "61dd7a71ea18edfe6de6f0e3f7f655f8d458a7d8051deda71f05444f044106cc 20483"},
		{"stream quickstart", 2, experiment(QuickstartStream, true), "442f6d2af675d5f012708e3292d29c0b23f755fd50cbcb7aeb569301318431b9 131072"},
		{"contention", 2, contention, "d3d7704ce35917697702a5321fa2939b9a3cf066cbc4441a64d917e4e738c06c 6832 roots 47a0edeaa534521ab31badcfbc342cfe0aab5b6c9117a5c97cb92403d9a49a3b"},
		{"quick recovery", 1, experiment(Recovery, true), "7cbca1f2d36f184f1d3676d3e1975d378f5ffde140d1e84cf508c954d700d020 174645"},
		{"quick byzantine", 1, experiment(Byzantine, true), "336e3467e6bb4dfda3b1777ff7c43730da32c1b94b7870783af494defd16959f 437888"},
		{"quick fig7 tables", 1, experiment(Fig7, false), "ac9c141acd77195dcdac0c438b8cbf3f7adb1959643784fe942b494f565073c8"},
		{"quick fig8 tables", 1, experiment(Fig8, false), "25c836b4b099b21edbf1fcc14feef2ece20fa589b544d9656efc333f22f5bb70"},
		{"quick scale tables", 1, experiment(scaleTables, false), "3bbb870433738b118300d524b760b1029e3248dbadadd1d0f5be84b3c5f51f9f"},
		{"quick fig5wan tables", 1, experiment(Fig5WAN, false), "e3918ea077d78ce7b96123db2079628eb0080d594e60e5977b47023347519fc8"},
		{"quick fig5lan tables", 1, experiment(Fig5LAN, false), "9eb0f9877f1eaed0be881b19500703cdaeca804e125267fa19b431a21f58558a"},
	} {
		for run := 1; run <= c.runs; run++ {
			if got := c.run(); got != c.want {
				t.Errorf("%s, run %d: replay %s, want %s", c.name, run, got, c.want)
			}
		}
	}
}
