package multizone

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"predis/internal/faults"
)

// TestEq3FailureProbability checks the paper's approximation p_c ≈ f/N.
func TestEq3FailureProbability(t *testing.T) {
	// 3% annual server failure rate, as the paper cites.
	const ph = 0.03
	cases := []struct{ f, n int }{{1, 4}, {2, 8}, {5, 16}, {33, 100}}
	for _, c := range cases {
		pc := FailureProbability(c.f, c.n, ph)
		approx := float64(c.f) / float64(c.n)
		if pc < approx || pc > approx+ph {
			t.Fatalf("f=%d n=%d: pc=%v not within [f/N, f/N+ph]", c.f, c.n, pc)
		}
	}
	if FailureProbability(1, 0, ph) != 1 {
		t.Fatal("degenerate N must fail closed")
	}
}

// TestEq4RelayerCount checks the paper's claim: with n_zr = n_c and
// n_c ≥ 4, a node receives data from relayers with probability > 99.98%.
func TestEq4RelayerCount(t *testing.T) {
	const ph = 0.03
	for _, nc := range []int{4, 8, 16} {
		f := (nc - 1) / 3
		// The paper's deployments (Figs. 7–8) have many more full nodes
		// than consensus nodes, so p_c ≈ f/N is small; we use N = 10·n_c.
		// (At the degenerate N = n_c, p_c ≈ 1/4 and Eq. 4's bound needs
		// more relayers than n_c — the 99.98% figure presumes N ≫ f.)
		pc := FailureProbability(f, 10*nc, ph)
		p := DeliveryProbability(pc, nc)
		if p <= 0.9998 {
			t.Fatalf("nc=%d: delivery probability %.6f ≤ 99.98%%", nc, p)
		}
	}
	// Eq. 4 solved for n_zr must satisfy its own bound.
	for _, pc := range []float64{0.1, 0.25, 0.33} {
		for _, pr := range []float64{1e-3, 2e-4} {
			const tol = 1 + 1e-9 // pc^nzr can exceed pr by float error alone
			nzr := RelayersForTarget(pc, pr)
			if loss := 1 - DeliveryProbability(pc, nzr); loss > pr*tol {
				t.Fatalf("pc=%v pr=%v: nzr=%d gives loss %v > pr", pc, pr, nzr, loss)
			}
			if nzr > 1 {
				if loss := 1 - DeliveryProbability(pc, nzr-1); loss <= pr/tol {
					t.Fatalf("pc=%v pr=%v: nzr=%d not minimal", pc, pr, nzr)
				}
			}
		}
	}
	if RelayersForTarget(1.0, 1e-3) < 1<<30 {
		t.Fatal("pc=1 must be unsatisfiable")
	}
	if RelayersForTarget(0.5, 1) != 1 {
		t.Fatal("pr=1 needs one relayer")
	}
}

// TestEq3Edges pins Eq. 3's boundary behaviour: with no malicious nodes
// the blend degenerates to the honest failure rate, with everyone
// malicious it saturates at certain failure, and an f beyond N (callers
// may pass the global fault bound against a small zone) clamps rather
// than extrapolating past 1.
func TestEq3Edges(t *testing.T) {
	const ph = 0.03
	if got := FailureProbability(0, 7, ph); got != ph {
		t.Fatalf("f=0: pc=%v, want ph=%v", got, ph)
	}
	if got := FailureProbability(7, 7, ph); got != 1 {
		t.Fatalf("f=N: pc=%v, want 1", got)
	}
	if got := FailureProbability(9, 7, ph); got != 1 {
		t.Fatalf("f>N must clamp: pc=%v, want 1", got)
	}
	if got := FailureProbability(0, 7, 0); got != 0 {
		t.Fatalf("f=0, ph=0: pc=%v, want 0", got)
	}
	if got := RelayersForTarget(0.25, 0); got != 1 {
		t.Fatalf("pr=0 is unreachable; want the 1-relayer floor, got %d", got)
	}
	if got := RelayersForTarget(0, 1e-3); got != 1 {
		t.Fatalf("pc=0 needs one relayer, got %d", got)
	}
}

// TestEq4EmpiricalCrossCheck verifies DeliveryProbability against a
// seeded Monte Carlo of the event it models: each of n_zr relayers fails
// independently with probability pc, and the stripe is delivered when at
// least one survives. 20k trials put 3σ under ±0.011 at the worst case,
// so a 0.02 tolerance separates a correct formula from an off-by-one in
// the exponent (pc^(nzr±1) differs by ≥ 0.09 on every row).
func TestEq4EmpiricalCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 20_000
	cases := []struct {
		pc  float64
		nzr int
	}{
		{0, 1}, {0, 3},
		{0.125, 1}, {0.125, 2},
		{0.25, 1}, {0.25, 2}, {0.25, 4},
		{0.5, 1}, {0.5, 2}, {0.5, 3},
		{1, 2},
	}
	for _, c := range cases {
		delivered := 0
		for i := 0; i < trials; i++ {
			for r := 0; r < c.nzr; r++ {
				if rng.Float64() >= c.pc {
					delivered++
					break
				}
			}
		}
		got := float64(delivered) / trials
		want := DeliveryProbability(c.pc, c.nzr)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("pc=%v nzr=%d: measured %.4f, Eq. 4 predicts %.4f",
				c.pc, c.nzr, got, want)
		}
	}
}

// TestDeliveryProbabilityBounds sanity-checks the complement of Eq. 4.
func TestDeliveryProbabilityBounds(t *testing.T) {
	if DeliveryProbability(0.5, 0) != 0 {
		t.Fatal("zero relayers deliver nothing")
	}
	if DeliveryProbability(0, 3) != 1 {
		t.Fatal("pc=0 must always deliver")
	}
	if DeliveryProbability(1, 3) != 0 {
		t.Fatal("pc=1 must never deliver")
	}
	if got := DeliveryProbability(0.25, 4); got <= 0.99 || got >= 1 {
		t.Fatalf("DeliveryProbability(0.25, 4) = %v", got)
	}
}

// TestStripesSurviveMessageLoss runs the full Multi-Zone stack with 2%
// random message loss applied to every message: erasure parity (any
// n_c−f of n_c stripes), digest pulls, and consensus retransmission via
// heartbeat traffic must still complete blocks everywhere.
func TestStripesSurviveMessageLoss(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 2, perZone: 5,
		rate: 300, duration: 10 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	faults.Install(zc.net, faults.Schedule{Seed: 5, Actions: []faults.Action{lossEverywhere(0.02, cfg)}})
	zc.net.Start()
	zc.net.Run(cfg.duration)
	lost := zc.net.Dropped().Filtered
	if lost == 0 {
		t.Fatal("loss window dropped nothing; test misconfigured")
	}
	for _, fn := range zc.fulls {
		if _, _, blocks := fn.Stats(); blocks == 0 {
			t.Fatalf("node %d completed no blocks under 2%% loss", fn.cfg.Self)
		}
	}
	t.Logf("lost %d messages; all %d full nodes still completed blocks", lost, len(zc.fulls))
}
