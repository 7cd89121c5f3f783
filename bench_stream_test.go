// Wall-clock benchmarks for streaming commit (go test -run '^$' -bench
// Stream .), complementing the virtual-time latency contrast the latfloor
// experiment reports: these rows show what the streaming machinery itself
// costs the simulator host. Each point also reports the virtual-time
// confirmed-latency mean, so the block-vs-stream latency cut prints
// alongside the wall-clock numbers it was paid for with. The tracked
// numbers are predis-perf's stream_lan / block_lan workloads.
package predis

import (
	"runtime"
	"testing"
	"time"

	"predis/internal/harness"
)

// benchStreamPoint runs one P-PBFT measurement point per iteration —
// the latfloor LAN configuration at 2000 tx/s — in block or streaming
// mode.
func benchStreamPoint(b *testing.B, stream bool) {
	b.Helper()
	spec := harness.PointSpec{
		System:         harness.SysPPBFT,
		NC:             4,
		Offered:        2000,
		Duration:       2 * time.Second,
		Seed:           1,
		BundleInterval: 50 * time.Millisecond,
	}
	spec.Stream = stream
	var mean time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunPoint(spec)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.Latency.Mean
	}
	b.ReportMetric(float64(mean)/float64(time.Millisecond), "confirmed-mean-ms")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkStreamPoint contrasts block and streaming commit on the same
// deployment: the mode dimension is the virtual-time latency cut.
func BenchmarkStreamPoint(b *testing.B) {
	for _, mode := range []string{"block", "stream"} {
		b.Run("mode="+mode, func(b *testing.B) {
			benchStreamPoint(b, mode == "stream")
		})
	}
}

// BenchmarkStreamLatfloor runs the whole quick latfloor grid per
// iteration — the experiment CI and quick_results.txt regenerate — so
// its wall-clock cost is tracked like the other experiment benchmarks.
func BenchmarkStreamLatfloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.LatencyFloor(harness.Options{
			Quick: true, Seed: 1, Parallel: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkStreamQuickstart runs the streaming quickstart — P-HS with
// drain blocks feeding the full Multi-Zone pipeline — per iteration.
func BenchmarkStreamQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.QuickstartStream(harness.Options{
			Quick: true, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}
