package harness

import (
	"strings"
	"testing"
	"time"

	"predis/internal/faults"
	"predis/internal/stats"
	"predis/internal/wire"
)

// TestRunPointAllSystems measures one point of every system on a bare
// consensus group.
func TestRunPointAllSystems(t *testing.T) {
	for _, sys := range []System{SysPBFT, SysPPBFT, SysHotStuff, SysPHS, SysNarwhal, SysStratus} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			res, err := measure(Deploy{
				System: sys, NC: 4,
				Offered: 2000, Load: 3 * time.Second, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Throughput <= 0 {
				t.Fatalf("%s: zero throughput", sys)
			}
			if res.Latency.Count == 0 {
				t.Fatalf("%s: no latency samples", sys)
			}
			t.Logf("%s: %.0f tx/s, lat=%v", sys, res.Throughput, res.Latency.Mean)
		})
	}
}

func TestRunPointUnknownSystem(t *testing.T) {
	if _, err := (Deploy{System: "bogus", NC: 4}).Build(); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// fig6Point measures P-PBFT at n_c = 8 over 4 s of load at the offered
// rate, with the nodes in silent silenced while the load runs.
func fig6Point(t *testing.T, offered float64, silent ...wire.NodeID) PointResult {
	t.Helper()
	dep, err := Deploy{
		System: SysPPBFT, NC: 8,
		Offered: offered, Load: 4 * time.Second, Seed: 1,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var actions []faults.Action
	for _, id := range silent {
		actions = append(actions, faults.Silent{Node: id, To: dep.End})
	}
	faults.Install(dep.Net, faults.Schedule{Seed: 1, Actions: actions})
	return dep.Run()
}

func TestRunPointWithFaults(t *testing.T) {
	if res := fig6Point(t, 3000, 7); res.Throughput <= 0 {
		t.Fatal("no throughput with one silent node")
	}
}

func TestLoadSweepShape(t *testing.T) {
	tp, lat, err := LoadSweep(Deploy{
		System: SysPPBFT, NC: 4, Load: 2 * time.Second, Seed: 1,
	}, []float64{1000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Points) != 2 || len(lat.Points) != 2 {
		t.Fatalf("sweep points: %d / %d", len(tp.Points), len(lat.Points))
	}
	if tp.Points[1].Y < tp.Points[0].Y {
		t.Log("note: throughput did not grow with load (may be saturated)")
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 16 {
		t.Fatalf("registry has %d experiments, want 16", len(reg))
	}
	seen := make(map[string]bool)
	for _, e := range reg {
		if e.ID == "" || e.Run == nil || e.Title == "" {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := Lookup(e.ID); err != nil {
			t.Fatalf("Lookup(%s): %v", e.ID, err)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown id succeeded")
	}
}

// TestFig6Shape verifies the fault experiment's headline property at small
// scale: case-1 throughput with f silent nodes is close to (8−f)/8 of
// normal.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	normal, silent1 := fig6Point(t, 8000), fig6Point(t, 8000, 7)
	ratio := silent1.Throughput / normal.Throughput
	t.Logf("normal=%.0f silent(f=1)=%.0f ratio=%.2f (paper predicts ≈ 7/8 = 0.875)", normal.Throughput, silent1.Throughput, ratio)
	if ratio < 0.6 || ratio > 1.05 {
		t.Fatalf("case-1 ratio %.2f far from (8-f)/8", ratio)
	}
}

func TestLatencyAtCoverage(t *testing.T) {
	delays := []time.Duration{
		5 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond,
	}
	cov := latencyAtCoverage(delays, 4)
	if cov[25] != 1*time.Millisecond {
		t.Fatalf("25%% = %v", cov[25])
	}
	if cov[100] != 5*time.Millisecond {
		t.Fatalf("100%% = %v", cov[100])
	}
	// Partial coverage: only 2 of 4 arrived.
	cov2 := latencyAtCoverage(delays[:2], 4)
	if _, ok := cov2[100]; ok {
		t.Fatal("100% coverage reported despite missing arrivals")
	}
	if _, ok := cov2[50]; !ok {
		t.Fatal("50% coverage missing")
	}
}

func TestRandomAdjacency(t *testing.T) {
	adj := randomAdjacency(30, 8, 3)
	for i, ns := range adj {
		if len(ns) < 8 {
			t.Fatalf("node %d degree %d < 8", i, len(ns))
		}
		for _, p := range ns {
			if int(p) == i {
				t.Fatalf("self-loop at %d", i)
			}
			found := false
			for _, q := range adj[p] {
				if int(q) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", i, p)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl, err := Fig4c(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl[0].Render()
	if !strings.Contains(out, "PBFT") || !strings.Contains(out, "P-PBFT") {
		t.Fatalf("table missing series:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// TestCapacityStopsAtFirstMiss pins the rule behind fig4c/fig4d: capacity is
// the last rung sustained before the first that is not, and the climb ends
// there — a rung that would clear the bar past the knee is never run.
func TestCapacityStopsAtFirstMiss(t *testing.T) {
	rungs := []float64{1000, 2000, 3000, 4000}
	for _, c := range []struct {
		tput []float64
		want float64
		runs int
	}{
		{[]float64{1000, 1990, 2500, 3990}, 2000, 3},
		{[]float64{900, 2000, 3000, 4000}, 0, 1},
		{[]float64{1000, 2000, 2950, 3880}, 4000, 4},
	} {
		runs := 0
		got, err := capacity(Deploy{}, rungs, func(d Deploy) (PointResult, error) {
			if d.Offered != rungs[runs] {
				t.Errorf("run %d offered %v, want %v", runs, d.Offered, rungs[runs])
			}
			runs++
			return PointResult{Throughput: c.tput[runs-1]}, nil
		})
		if err != nil || got != c.want || runs != c.runs {
			t.Errorf("committed %v: capacity %v after %d runs (err %v), want %v after %d", c.tput, got, runs, err, c.want, c.runs)
		}
	}
}

// TestFig5QuickShape runs the Fig. 5 WAN comparison at reduced scale and
// asserts the paper's ordering: Predis and Stratus beat Narwhal on
// throughput, and Narwhal has the worst latency.
func TestFig5QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	tables, err := Fig5WAN(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	tput := tables[0]
	last := func(name string) float64 {
		for _, s := range tput.Series {
			if s.Name == name {
				return s.Points[len(s.Points)-1].Y
			}
		}
		t.Fatalf("series %q missing", name)
		return 0
	}
	predis, narwhal, stratus := last("Predis"), last("Narwhal"), last("Stratus")
	if predis <= narwhal || stratus <= narwhal {
		t.Fatalf("ordering violated: predis=%.0f stratus=%.0f narwhal=%.0f",
			predis, stratus, narwhal)
	}
}

// TestFig7QuickShape asserts the star decline and Multi-Zone flatness.
func TestFig7QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	tables, err := Fig7(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tables[0].Series {
		first := s.Points[0].Y
		last := s.Points[len(s.Points)-1].Y
		switch {
		case s.Name == "star-nc4" && last >= first*0.8:
			t.Fatalf("star did not decline: %v → %v", first, last)
		case s.Name == "multizone-nc4" && last < first*0.8:
			t.Fatalf("multizone declined: %v → %v", first, last)
		}
	}
}

// TestFig8QuickShape asserts Multi-Zone's flat latency and the linear
// growth of the content-shipping topologies.
func TestFig8QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	tables, err := Fig8(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 2 {
		t.Fatalf("expected ≥2 block sizes, got %d", len(tables))
	}
	// Compare at 75% coverage: the very last node's arrival can ride the
	// periodic digest-repair path, which adds seconds of noise unrelated
	// to the topology's propagation behaviour.
	at75 := func(tbl *stats.Table, name string) float64 {
		for _, s := range tbl.Series {
			if s.Name != name {
				continue
			}
			for _, p := range s.Points {
				if p.X == 75 {
					return p.Y
				}
			}
		}
		t.Fatalf("series %q missing 75%% point", name)
		return 0
	}
	star1, star5 := at75(tables[0], "star"), at75(tables[1], "star")
	mz1, mz5 := at75(tables[0], "multizone-3z"), at75(tables[1], "multizone-3z")
	if star5 < 3*star1 {
		t.Fatalf("star latency did not grow with block size: %v → %v", star1, star5)
	}
	if mz5 > 3*mz1 {
		t.Fatalf("multizone latency grew with block size: %v → %v", mz1, mz5)
	}
	if mz5 >= star5 {
		t.Fatalf("multizone (%v ms) not faster than star (%v ms) at 5 MB", mz5, star5)
	}
}

// TestRecoveryQuickShape runs the crash-recovery experiment at reduced
// scale and checks its headline properties: the leader crash produces a
// visible throughput dip that recovers, and both victims end at the live
// chain head (Recovery itself errors otherwise).
func TestRecoveryQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	tables, err := Recovery(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// timeline + summary, plus one per-stage latency table per scenario.
	if len(tables) != 4 {
		t.Fatalf("expected timeline + summary + 2 stage tables, got %d", len(tables))
	}
	summary := tables[1]
	row := func(name string, x float64) float64 {
		for _, s := range summary.Series {
			if s.Name != name {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Y
				}
			}
		}
		t.Fatalf("summary row %v of %q missing", x, name)
		return 0
	}
	// Leader crash: consensus halts during the view change, so the dip
	// floor is (near) zero and recovery happens after the restart.
	if dip := row("leader-crash", 3); dip < 50 {
		t.Fatalf("leader crash dip depth %.1f%%, want ≥ 50%%", dip)
	}
	if ttr := row("leader-crash", 4); ttr <= 0 {
		t.Fatalf("leader crash never recovered (ttr=%v)", ttr)
	}
	// Both scenarios: victim head reached the live head (small slack).
	for _, sc := range []string{"relayer-crash", "leader-crash"} {
		victim, live := row(sc, 5), row(sc, 6)
		if victim+4 < live {
			t.Fatalf("%s: victim head %v below live head %v", sc, victim, live)
		}
	}
	t.Logf("\n%s", summary.Render())
}

// TestRecoveryDeterministic renders the experiment twice with the same
// seed and demands bit-identical tables: the fault schedule, the crash,
// the catch-up, and every measured bucket replay exactly.
func TestRecoveryDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	render := func() string {
		tables, err := Recovery(Options{Quick: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tbl := range tables {
			b.WriteString(tbl.Render())
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("nondeterministic recovery experiment:\n%s---\n%s", a, b)
	}
}
