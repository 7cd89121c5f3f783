package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
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
// proposal-clocked sealing, 2 simulated seconds.
func pacedStreamPoint(t *testing.T, offered float64, clients int) pacedPoint {
	t.Helper()
	tr, reg := NewReplayTrace(), obs.NewRegistry()
	var last time.Time
	var commitGap time.Duration
	res, err := RunPoint(PointSpec{
		System: SysPPBFT, NC: 4, Offered: offered, Clients: clients, Duration: 2 * time.Second,
		Seed: 42, Stream: true, Trace: tr, Metrics: reg,
		OnCommit: func(at time.Time, txs int) {
			if at.Sub(simnet.Epoch) >= 500*time.Millisecond { // RunPoint's warm-up: a quarter of the run
				if !last.IsZero() {
					commitGap = max(commitGap, at.Sub(last))
				}
				last = at
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
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
// latency stays where seal-on-arrival and the ack-clocked window had it
// (means at the parent commit, same points). Two client layouts, because
// RunPoint's clients tick in lockstep: one client delivers a pair of
// transactions to two producers every 10 ms — nothing ever queues behind
// a seal, every bundle holds one transaction, and the second of each pair
// pays part of one pace gap at the leader; the default four clients hit
// one producer with a burst of four every 20 ms — momentary load, which
// batches (the transactions behind the first wait for the next proposal)
// at no cost in latency.
func TestPacedStreamIdle(t *testing.T) {
	within := func(name string, got, parent time.Duration, pct int64) {
		t.Helper()
		if d := (got - parent).Abs(); d*100 > parent*time.Duration(pct) {
			t.Errorf("%s: confirmed mean %v, want within %d%% of the parent's %v", name, got, pct, parent)
		}
	}
	one := pacedStreamPoint(t, 200, 1)
	// Only in the first 75 ms, before any proposal has come round, can a
	// transaction wait — for the 20 ms tick at most.
	if one.sealWaitMS > 20 || one.sealed < one.committed {
		t.Errorf("one client: %d bundles for %d committed transactions, %.3f ms waited for a seal in total; want one bundle per transaction, sealed on arrival",
			one.sealed, one.committed, one.sealWaitMS)
	}
	within("one client", one.res.Latency.Mean, 144644763*time.Nanosecond, 2)
	four := pacedStreamPoint(t, 200, 4)
	within("four lockstep clients", four.res.Latency.Mean, 149065161*time.Nanosecond, 1)
}

// TestReplayPinned holds the model still: golden replay digests
// ("<sha256> <deliveries>") for one run of each schedule family — a
// block-mode P-PBFT point (Pipeline 1 never enters the pace code),
// recovery with the view-0 leader crashed and a view change, a paced
// 16-slot stream point, quick quickstart (P-HS, Multi-Zone, full nodes)
// in block and in stream mode, and quick contention, whose row also
// carries a digest of every per-height state root. Two runs each must
// reproduce them. The experiment rows — quick recovery and byzantine
// through Options.Replay, and fig7 and fig8, which take no trace, as a
// SHA-256 of their rendered quick tables — run once: same-seed
// determinism is the first six rows' and TestReplayRecoveryDeterministic's
// business, these hold every Multi-Zone deployment shape still. A change
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
// being re-requested whole each time the buffered run grew.)
func TestReplayPinned(t *testing.T) {
	sum := func(tr *ReplayTrace) string { return fmt.Sprintf("%s %d", tr.Sum(), tr.Deliveries()) }
	point := func() string {
		tr := NewReplayTrace()
		if _, err := RunPoint(PointSpec{
			System: SysPPBFT, NC: 4, Offered: 1000, Duration: 1500 * time.Millisecond, Seed: 42, Trace: tr,
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
	quickstart := func(stream bool) func() string {
		return func() string {
			tr := NewReplayTrace()
			if _, err := Quickstart(Options{Quick: true, Seed: 1, Stream: stream, Replay: tr}); err != nil {
				t.Fatal(err)
			}
			return sum(tr)
		}
	}
	contention := func() string {
		tr, state := contentionOnce(t, false)
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
	for _, c := range []struct {
		name string
		runs int
		run  func() string
		want string
	}{
		{"P-PBFT point", 2, point, "2b99bcdc2610a1094c3621927ef686ddf98fef6a3d5b79d34d25e346dd6fa78f 2966"},
		{"leader-crash recovery", 2, recovery, "ec6ccb2ad5102306f2cf656a79193fa0af3eb89622d07535bb1c613a28adb3cb 34051"},
		{"stream P-PBFT point", 2, streamPoint, "8c2f8bd883313664b38fbdaa80e61a47a6a53ac8d871f7c507e045eaff24a16d 14369"},
		{"quickstart", 2, quickstart(false), "597d80c3c9a8890adfe7f148bd19fe657e076849f38d5bda50ed399532ea6075 20670"},
		{"stream quickstart", 2, quickstart(true), "8754e7f6eea8588af3f6ae7ed4537cba7257c258d5a29547735347145bc06584 131260"},
		{"contention", 2, contention, "5f76e37759dfcf096267aafa1e4280a5ffb55bcc6d2326051bb218bbb48c07b3 6875 roots 17e061a1ef6bf248f4dfb1bf9073861720cbe6f762e60614de89e13f457b10c3"},
		{"quick recovery", 1, experiment(Recovery, true), "7485ee8c65ca9ce1e9be44c8a783c4d4f709142d4ac93f884c14402882c318ff 178190"},
		{"quick byzantine", 1, experiment(Byzantine, true), "9f0334a90e1b18f69679d480e60a28c9c4fb8666f6fa78bbe0d238b428ebb922 443676"},
		{"quick fig7 tables", 1, experiment(Fig7, false), "6942a4d630345b1d819b9732c057b7234dec1a846a45fa65e0f8f359c6979ee2"},
		{"quick fig8 tables", 1, experiment(Fig8, false), "782007a019dc0eef73e56b4cd5540e882a98e7162d548754cb7edbc038725c60"},
	} {
		for run := 1; run <= c.runs; run++ {
			if got := c.run(); got != c.want {
				t.Errorf("%s, run %d: replay %s, want %s", c.name, run, got, c.want)
			}
		}
	}
}
