package harness

import (
	"fmt"
	"sort"
	"testing"

	"predis/internal/workload"
)

// contentionOnce runs one small contention deployment (skewed semantic
// workload) and returns the replay trace
// plus a rendering of every execution-visible output: per-height state
// roots, agreement flags, and the observer machine's counters.
func contentionOnce(t *testing.T) (*ReplayTrace, string) {
	t.Helper()
	tr := NewReplayTrace()
	res, err := runContention(Options{Quick: true, Seed: 11, Replay: tr},
		workload.ZipfConfig{
			Accounts: 128, Theta: 0.9, HotFrac: 0.2, RMWFrac: 0.2,
			Amount: contentionAmount, Seed: 11,
		})
	if err != nil {
		t.Fatal(err)
	}
	heights := make([]uint64, 0, len(res.roots))
	for h := range res.roots {
		heights = append(heights, h)
	}
	sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
	state := fmt.Sprintf("tps=%.1f agree=%v ledger=%v stats=%+v\n",
		res.tps, res.rootsAgree, res.ledgerOK, res.stats)
	for _, h := range heights {
		root := res.roots[h]
		state += fmt.Sprintf("%d:%x\n", h, root[:8])
	}
	return tr, state
}

// TestContentionDeterministic pins the executor's end-to-end determinism
// inside the full deployment: replay digest, per-height state roots,
// abort counts, and level shape are byte-identical across same-seed runs.
func TestContentionDeterministic(t *testing.T) {
	tr0, s0 := contentionOnce(t)
	tr, s := contentionOnce(t)
	if tr.Sum() != tr0.Sum() {
		t.Fatalf("replay digest diverged: %s vs %s", tr.Sum(), tr0.Sum())
	}
	if s != s0 {
		t.Fatalf("execution state diverged:\n  first: %s\n  second: %s", s0, s)
	}
}

// TestContentionFindsParallelism asserts the leveler exposes width on a
// low-conflict workload: mean dependency-level width must exceed 1.
func TestContentionFindsParallelism(t *testing.T) {
	res, err := runContention(Options{Quick: true, Seed: 3},
		workload.ZipfConfig{Accounts: 4096, Theta: 0, RMWFrac: 0.1,
			Amount: contentionAmount, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.rootsAgree || !res.ledgerOK {
		t.Fatalf("roots diverged: agree=%v ledger=%v", res.rootsAgree, res.ledgerOK)
	}
	if res.stats.MeanWidth() <= 1 {
		t.Fatalf("mean level width = %.2f, want > 1 on a conflict-free workload",
			res.stats.MeanWidth())
	}
	if res.stats.Txs == 0 {
		t.Fatal("no semantic transactions executed")
	}
}
