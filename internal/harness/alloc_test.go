package harness

import (
	"runtime"
	"testing"
	"time"
)

// streamAllocBudget is the most heap objects TestStreamAllocBudget lets a
// confirmed transaction cost: 10 % above the 6.74 it measured when the
// relayer tree began carrying the committed block itself and commits
// flattened their transactions into scratch (7.19 before, and 11.55 before
// a bundle's and a block's fixed costs became one allocation each).
const streamAllocBudget = 7.4

// TestStreamAllocBudget is the end-to-end allocation gate. A deployment
// shaped like predis-perf's stream_lan — P-PBFT, n_c = 4, two zones of
// three full nodes, streaming commit with its 16-slot window, 4 000 tx/s —
// runs one simulated second of load and a drain, and the heap objects
// allocated from the first submission on, per client-confirmed
// transaction, must stay within streamAllocBudget.
func TestStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	dep, err := Deploy{
		System: SysPPBFT, NC: 4, Fulls: ZoneMajor(2, 3), Stream: true,
		ViewTimeout: 2 * time.Second, AliveInterval: 200 * time.Millisecond, DigestInterval: time.Second,
		JoinSpacing: 20 * time.Millisecond, Offered: 4000, Load: time.Second, Seed: 1,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep.Net.Start()
	dep.Net.Run(dep.LoadStart)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dep.Net.Run(dep.End + 500*time.Millisecond)
	runtime.ReadMemStats(&after)
	confirmed := 0
	for _, c := range dep.Clients {
		confirmed += int(c.Submitted()) - c.PendingCount()
	}
	if confirmed < 3900 {
		t.Fatalf("%d transactions confirmed, want the second's 4 000 less at most 100", confirmed)
	}
	perTx := float64(after.Mallocs-before.Mallocs) / float64(confirmed)
	t.Logf("%d confirmed, %.3f heap objects per confirmed transaction", confirmed, perTx)
	if perTx > streamAllocBudget {
		t.Errorf("%.3f heap objects per confirmed transaction, budget %.1f", perTx, streamAllocBudget)
	}
}
