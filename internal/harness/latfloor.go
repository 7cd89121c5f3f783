package harness

import (
	"time"

	"predis/internal/obs"
	"predis/internal/stats"
)

// latfloorSpecs builds the measurement grid for LatencyFloor: for one
// network profile, block mode and streaming commit run over the same
// offered loads on the same P-PBFT deployment. Streaming uses an
// in-flight PBFT window so ordering never gates on the previous commit;
// block mode is the classic single-slot protocol every other experiment
// measures.
func latfloorSpecs(o Options, wan bool, stream bool, loads []float64, duration time.Duration) []PointSpec {
	specs := make([]PointSpec, len(loads))
	for i, load := range loads {
		specs[i] = PointSpec{
			System:   SysPPBFT,
			NC:       4,
			F:        1,
			WAN:      wan,
			Offered:  load,
			Duration: duration,
			Seed:     o.seed(),
			Stream:   stream,
			// A moderate production batching interval (Fabric defaults to
			// hundreds of ms; 50 ms is generous). Block mode's latency
			// floor includes it — transactions wait for the seal tick —
			// while streaming seals per transaction and never sees it.
			// Both modes run the identical configuration.
			BundleInterval: 50 * time.Millisecond,
		}
	}
	return specs
}

// LatencyFloor contrasts block-granularity commit with streaming commit
// (per-transaction seals, eager cuts, pipelined PBFT instances) on the
// same P-PBFT deployment, on LAN and WAN, across offered loads. It
// reports mean/p50/p99 confirmed-transaction latency per mode and the
// throughput-parity series. This is the experiment behind the
// streaming-commit claim: the latency floor drops from "wait for the next
// block" to "wait for the next bundle" while committed throughput stays
// equal.
func LatencyFloor(o Options) ([]*stats.Table, error) {
	loads, rows, err := latfloorRun(o)
	if err != nil {
		return nil, err
	}
	return latfloorTables(loads, rows), nil
}

// latfloorRun measures LatencyFloor's grid: the offered loads, and one row
// of results per load for LAN block, LAN stream, WAN block and WAN stream.
func latfloorRun(o Options) ([]float64, [][]PointResult, error) {
	loads := []float64{500, 1000, 2000, 4000}
	duration := 8 * time.Second
	if o.Quick {
		loads = []float64{1000, 2000}
		duration = 4 * time.Second
	}

	// Grid order: LAN block, LAN stream, WAN block, WAN stream — each a
	// row of len(loads) points.
	grid := [][]PointSpec{
		latfloorSpecs(o, false, false, loads, duration),
		latfloorSpecs(o, false, true, loads, duration),
		latfloorSpecs(o, true, false, loads, duration),
		latfloorSpecs(o, true, true, loads, duration),
	}
	flat := make([]PointSpec, 0, 4*len(loads))
	for _, row := range grid {
		flat = append(flat, row...)
	}
	if o.Obs != nil {
		// -metrics: the registry of the busiest LAN stream point, which
		// carries the producers' seal counters and the PBFT proposal pace.
		o.Obs.Metrics = obs.NewRegistry()
		flat[2*len(loads)-1].Metrics = o.Obs.Metrics
	}
	workers := o.parallel()
	if o.Replay != nil {
		// Replay hashes fold every delivery into one running digest, so
		// the points must run (and attach) in a fixed order: sequential.
		workers = 1
		for i := range flat {
			flat[i].Trace = o.Replay
		}
	}
	results, err := RunPoints(flat, workers)
	if err != nil {
		return nil, nil, err
	}
	return loads, [][]PointResult{
		results[0*len(loads) : 1*len(loads)],
		results[1*len(loads) : 2*len(loads)],
		results[2*len(loads) : 3*len(loads)],
		results[3*len(loads) : 4*len(loads)],
	}, nil
}

// latfloorTables renders latfloorRun's grid: the LAN and WAN latency
// tables, then throughput parity.
func latfloorTables(loads []float64, rows [][]PointResult) []*stats.Table {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	latTable := func(name string, block, stream []PointResult) *stats.Table {
		t := &stats.Table{
			Title: "Latency floor (" + name + ", P-PBFT nc=4): confirmed " +
				"latency ms vs offered tx/s — block vs streaming commit",
			XLabel: "offered tx/s",
		}
		series := []struct {
			name string
			row  []PointResult
			pick func(stats.Summary) time.Duration
		}{
			{"block mean", block, func(s stats.Summary) time.Duration { return s.Mean }},
			{"stream mean", stream, func(s stats.Summary) time.Duration { return s.Mean }},
			{"block p50", block, func(s stats.Summary) time.Duration { return s.P50 }},
			{"stream p50", stream, func(s stats.Summary) time.Duration { return s.P50 }},
			{"block p99", block, func(s stats.Summary) time.Duration { return s.P99 }},
			{"stream p99", stream, func(s stats.Summary) time.Duration { return s.P99 }},
		}
		for _, sp := range series {
			s := &stats.Series{Name: sp.name}
			for i, load := range loads {
				s.Add(load, ms(sp.pick(sp.row[i].Latency)))
			}
			t.Series = append(t.Series, s)
		}
		return t
	}

	parity := &stats.Table{
		Title:  "Latency floor: committed throughput parity vs offered tx/s",
		XLabel: "offered tx/s",
	}
	for r, name := range []string{"LAN block tx/s", "LAN stream tx/s", "WAN block tx/s", "WAN stream tx/s"} {
		s := &stats.Series{Name: name}
		for i, load := range loads {
			s.Add(load, rows[r][i].Throughput)
		}
		parity.Series = append(parity.Series, s)
	}

	return []*stats.Table{
		latTable("LAN", rows[0], rows[1]),
		latTable("WAN", rows[2], rows[3]),
		parity,
	}
}
