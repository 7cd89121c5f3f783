package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"predis/internal/stats"
)

// repResult is what one simulation run yields. virtual and replay are
// pure functions of (workload, seed, rate, load); the host fields are
// what the run cost this machine.
type repResult struct {
	virtual map[string]float64
	replay  string
	// samples backs the printed sample counts of the percentile metrics.
	confirmedSamples, propagationSamples int
	attempted, failed                    uint64
	committed                            int // observer commits, whole run

	wall     time.Duration // net.Run over the load phase
	runWall  time.Duration // net.Start() and every net.Run: all time handlers can run in
	loadSecs float64
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	events   int

	errs []string
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOnce builds the deployment, runs it to its horizon, applies the
// correctness gate and reduces the probes to metrics. keep, when
// non-nil, receives the finished deployment (the traced pass reads the
// layers' public counters off it).
func runOnce(spec workloadSpec, opts runOpts, keep func(*deployment)) (repResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	d, err := build(spec, opts)
	if err != nil {
		return repResult{}, err
	}
	// Three phases on the virtual clock: the join window (full nodes
	// join and subscribe), the load phase (timed), the drain.
	t0 := time.Now()
	d.net.Start()
	events := d.net.Run(d.loadStart)
	t1 := time.Now()
	events += d.net.Run(d.loadEnd)
	wall := time.Since(t1)
	events += d.net.Run(d.horizon)
	runWall := time.Since(t0)
	runtime.ReadMemStats(&m1)

	res := repResult{
		replay:   d.replay.Sum(),
		wall:     wall,
		runWall:  runWall,
		loadSecs: opts.load.Seconds(),
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		events:   events,
	}
	d.check()
	res.errs = d.probe.errs
	d.reduce(&res)
	if keep != nil {
		keep(d)
	}
	return res, nil
}

// check is the correctness gate of every run.
func (d *deployment) check() {
	p := d.probe
	// Full nodes: gap-free, identically ordered completions. (Equal block
	// hashes per height were checked as completions arrived.)
	var maxFull uint64
	for i, seq := range p.completed {
		for j, h := range seq {
			if h != uint64(j+1) {
				p.failf("full node %d completed height %d at position %d (gap or reorder)", d.fulls[i].ID(), h, j+1)
				break
			}
		}
		if n := uint64(len(seq)); n > maxFull {
			maxFull = n
		}
	}
	if maxFull == 0 {
		p.failf("no full node completed a block")
	}
	// Execution plane: every ledger entry carries the executors' root
	// (executors were cross-checked as they ran).
	if d.ledger != nil {
		if err := d.ledger.VerifyChain(); err != nil {
			p.failf("ledger: %v", err)
		}
		if d.ledger.Len() == 0 {
			p.failf("ledger is empty")
		}
		for h := uint64(1); h <= uint64(d.ledger.Len()); h++ {
			e, err := d.ledger.Get(h)
			if err != nil {
				p.failf("ledger: %v", err)
				break
			}
			if root, ok := p.roots[e.Height]; !ok || root != e.StateRoot {
				p.failf("ledger root at height %d differs from the executors'", e.Height)
				break
			}
		}
	}
	// Restarted nodes end at most one block behind the healthiest peer.
	if d.spec.crashes() {
		var live uint64
		for _, h := range p.lastCommit[1:] {
			if h > live {
				live = h
			}
		}
		if p.lastCommit[0]+1 < live {
			p.failf("restarted leader stuck at height %d, live head %d", p.lastCommit[0], live)
		}
		victim := d.fulls[0]
		if victim.CatchingUp() || victim.LastHeight()+1 < maxFull {
			p.failf("restarted full node %d at height %d (catching up: %v), live head %d",
				victim.ID(), victim.LastHeight(), victim.CatchingUp(), maxFull)
		}
	}
}

// reduce turns the probes into the virtual end-to-end metrics.
func (d *deployment) reduce(res *repResult) {
	p := d.probe
	for _, cl := range d.clients {
		res.attempted += cl.Submitted()
		res.failed += uint64(cl.PendingCount())
	}
	res.committed = p.totalTxs

	lat := d.col.Latency()
	res.confirmedSamples = lat.Count
	sort.Slice(p.propagation, func(i, j int) bool { return p.propagation[i] < p.propagation[j] })
	res.propagationSamples = len(p.propagation)

	// Longest commit-free interval at the observer, window edges
	// included so a stall that outlasts the window still counts.
	gap := time.Duration(0)
	prev := d.col.WarmupEnd
	for _, at := range append(p.commitTimes, d.col.MeasureEnd) {
		if at.Sub(prev) > gap {
			gap = at.Sub(prev)
		}
		prev = at
	}

	confirmedFrac := 0.0
	if res.attempted > 0 {
		confirmedFrac = 1 - float64(res.failed)/float64(res.attempted)
	}
	res.virtual = map[string]float64{
		"committed_tps":      d.col.Throughput(),
		"confirmed_p50_ms":   ms(lat.P50),
		"confirmed_p99_ms":   ms(lat.P99),
		"propagation_p50_ms": ms(stats.Percentile(p.propagation, 50)),
		"propagation_p99_ms": ms(stats.Percentile(p.propagation, 99)),
		"max_commit_gap_ms":  ms(gap),
		"confirmed_frac":     confirmedFrac,
	}
}

// meetsSLO reports whether a run satisfies the workload's SLO.
func (r *repResult) meetsSLO(spec workloadSpec) bool {
	return r.virtual["confirmed_p99_ms"] <= spec.sloP99MS &&
		r.virtual["confirmed_frac"] >= sloMinConfirmed &&
		r.confirmedSamples > 0
}

// sameVirtual checks that two runs of the identical simulation agree on
// the replay hash and on every virtual metric.
func sameVirtual(a, b *repResult) error {
	if a.replay != b.replay {
		return fmt.Errorf("replay hash differs between repetitions: %s vs %s", a.replay, b.replay)
	}
	for k, v := range a.virtual {
		if b.virtual[k] != v {
			return fmt.Errorf("virtual metric %s differs between repetitions: %v vs %v", k, v, b.virtual[k])
		}
	}
	if a.attempted != b.attempted || a.failed != b.failed {
		return fmt.Errorf("attempted/failed differ between repetitions")
	}
	return nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// relSpread is the interquartile range of xs as a share of its median
// (the exclusive quartile method of Python's statistics.quantiles), 0
// for fewer than two samples.
func relSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
