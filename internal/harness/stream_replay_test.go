package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// streamReplayOnce runs one streaming-commit P-PBFT point — per-transaction
// seals, eager cuts, a 16-slot pipeline — and returns its
// replay digest, delivery count, and formatted result.
func streamReplayOnce(t *testing.T) (string, uint64, string) {
	t.Helper()
	tr := NewReplayTrace()
	res, err := RunPoint(PointSpec{
		System:   SysPPBFT,
		NC:       4,
		Offered:  1200,
		Duration: 1500 * time.Millisecond,
		Seed:     42,
		Stream:   true,
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
}

// TestStreamReplayDeterministic asserts streaming commit keeps the replay
// contract block mode has always had: two same-seed runs are
// byte-identical — pipelining must not let wall-clock scheduling leak
// into the virtual-time schedule.
func TestStreamReplayDeterministic(t *testing.T) {
	sum, n, state := streamReplayOnce(t)
	if n == 0 {
		t.Fatal("stream point delivered no messages")
	}
	if sum2, n2, state2 := streamReplayOnce(t); sum2 != sum || n2 != n || state2 != state {
		t.Errorf("same-seed stream runs diverged:\n got %q n=%d %s\nwant %q n=%d %s",
			sum2, n2, state2, sum, n, state)
	}
}

// TestStreamBlockModesDiverge sanity-checks the experiment itself: the
// streaming schedule must actually differ from block mode (otherwise the
// latency-floor comparison would be measuring nothing).
func TestStreamBlockModesDiverge(t *testing.T) {
	tr := NewReplayTrace()
	if _, err := RunPoint(PointSpec{
		System: SysPPBFT, NC: 4, Offered: 1200,
		Duration: 1500 * time.Millisecond, Seed: 42, Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}
	sum, _, _ := streamReplayOnce(t)
	if tr.Sum() == sum {
		t.Fatal("block and stream modes produced identical schedules")
	}
}

// TestStreamQuickstartDeterministic runs the full streaming pipeline —
// P-HS with drain blocks, Multi-Zone distribution, execution on every
// consensus host — twice and asserts byte-identical
// observability exports, like the block-mode determinism test it
// mirrors.
func TestStreamQuickstartDeterministic(t *testing.T) {
	run := func() (string, string, string) {
		sink := &ObsSink{}
		if _, err := Quickstart(Options{
			Quick: true, Seed: 3, Stream: true, Obs: sink,
		}); err != nil {
			t.Fatalf("stream quickstart: %v", err)
		}
		var trace, metrics, stages bytes.Buffer
		if err := sink.Trace.WriteChrome(&trace, sink.Sampler); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		if err := sink.Metrics.WriteCSV(&metrics); err != nil {
			t.Fatalf("metrics csv: %v", err)
		}
		if err := sink.Trace.WriteStageCSV(&stages); err != nil {
			t.Fatalf("stage csv: %v", err)
		}
		return trace.String(), metrics.String(), stages.String()
	}
	t1, m1, s1 := run()
	t2, m2, s2 := run()
	if t1 != t2 {
		t.Error("chrome traces differ between same-seed stream runs")
	}
	if m1 != m2 {
		t.Error("metrics CSVs differ between same-seed stream runs")
	}
	if s1 != s2 {
		t.Error("stage CSVs differ between same-seed stream runs")
	}
}
