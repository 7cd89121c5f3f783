// Package harness defines the reproducible experiments behind every figure
// in the paper's evaluation (§V). Each experiment builds a simulated
// deployment, runs it in virtual time, and reports the same series the
// paper plots; cmd/predis-bench runs them.
package harness

import (
	"fmt"
	"time"

	"predis/internal/env"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/pbft"
	"predis/internal/stats"
	"predis/internal/wire"
)

// System names the data production strategies under test, using the
// paper's labels.
type System string

// Systems.
const (
	SysPBFT     System = "PBFT"
	SysPPBFT    System = "P-PBFT"
	SysHotStuff System = "HotStuff"
	SysPHS      System = "P-HS"
	SysNarwhal  System = "Narwhal"
	SysStratus  System = "Stratus"
)

// modeEngine maps a system to its node configuration.
func modeEngine(sys System) (node.Mode, node.EngineKind, error) {
	switch sys {
	case SysPBFT:
		return node.ModeBaseline, node.EnginePBFT, nil
	case SysPPBFT:
		return node.ModePredis, node.EnginePBFT, nil
	case SysHotStuff:
		return node.ModeBaseline, node.EngineHotStuff, nil
	case SysPHS:
		return node.ModePredis, node.EngineHotStuff, nil
	case SysNarwhal:
		return node.ModeNarwhal, node.EngineHotStuff, nil
	case SysStratus:
		return node.ModeStratus, node.EngineHotStuff, nil
	default:
		return 0, 0, fmt.Errorf("harness: unknown system %q", sys)
	}
}

// PointResult is the outcome of one measurement.
type PointResult struct {
	Throughput       float64 // consensus-side committed tx/s
	ClientThroughput float64 // client-confirmed tx/s
	Latency          stats.Summary
	Blocks           int
	// ViewOrTimeouts is the most view changes (PBFT) or pacemaker
	// timeouts (HotStuff) any one engine counted.
	ViewOrTimeouts uint64
}

// publish fills reg, once a run has ended, from the counters the
// components keep: per consensus node (ID = index) Predis's bundle, commit
// and seal counts and a pipelined PBFT engine's proposal pace (see
// pbft.Engine.Pace); per full node the fetch plane's pulls and the parked
// references (see FullNode.PullStats and ParkStats); per client its
// resubmissions by cause (see workload.Client.Resubmits); and the network's
// consensus lane (see simnet.LaneStats). It is the only place a run's
// counts enter a registry. A nil reg publishes nothing.
func (dep *Deployment) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for i, n := range dep.Hosts {
		id := wire.NodeID(i)
		if p := n.Predis(); p != nil {
			produced, accepted, committed := p.Stats()
			sealed, wait := p.Seals()
			reg.Counter("bundle_produced", id).Add(produced)
			reg.Counter("bundle_accepted", id).Add(accepted)
			reg.Counter("txs_committed", id).Add(committed)
			reg.Counter("bundle_sealed", id).Add(sealed)
			reg.Gauge("bundle_seal_wait_ms", id).Set(ms(wait))
		}
		if e, ok := n.Engine().(*pbft.Engine); ok {
			gap, delayed, delay := e.Pace()
			reg.Gauge("pbft.pace_gap_ms", id).Set(ms(gap))
			reg.Counter("pbft.pace_delayed", id).Add(delayed)
			reg.Gauge("pbft.pace_delay_ms", id).Set(ms(delay))
		}
	}
	for _, fn := range dep.Fulls {
		requests, bundles, _, _ := fn.PullStats()
		reg.Counter("multizone.pull_requests", fn.ID()).Add(requests)
		reg.Counter("multizone.pull_bundles", fn.ID()).Add(bundles)
		parked, resolved, expired, wait := fn.ParkStats()
		reg.Counter("multizone.parked", fn.ID()).Add(parked)
		reg.Counter("multizone.park_resolved", fn.ID()).Add(resolved)
		reg.Counter("multizone.park_expired", fn.ID()).Add(expired)
		reg.Gauge("multizone.park_wait_max_ms", fn.ID()).Set(ms(wait))
	}
	for _, cl := range dep.Clients {
		onEvidence, onTimer := cl.Resubmits()
		reg.Counter("workload.resubmits_evidence", cl.ID()).Add(onEvidence)
		reg.Counter("workload.resubmits_timer", cl.ID()).Add(onTimer)
	}
	st := dep.Net.LaneStats()
	reg.Counter("simnet.lane_frames", wire.NoNode).Add(st.Frames)
	reg.Counter("simnet.lane_bytes", wire.NoNode).Add(st.Bytes)
	reg.Gauge("simnet.lane_max_share", wire.NoNode).Set(st.MaxShare)
}

// parRun evaluates fn(0..n-1) over up to `workers` goroutines (see
// env.Parallel) and merges the results back in index order, so output
// is identical to a sequential loop regardless of scheduling. On error
// it reports the failure with the lowest index, matching what a
// sequential loop would have surfaced first.
func parRun[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	env.Parallel(n, workers, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measure builds d, runs it and reports the load's outcome.
func measure(d Deploy) (PointResult, error) {
	dep, err := d.Build()
	if err != nil {
		return PointResult{}, err
	}
	return dep.Run(), nil
}

// LoadSweep measures a deployment across offered loads, in order, and
// returns (throughput, latency-ms) pairs — one line of a
// throughput-latency figure.
func LoadSweep(base Deploy, loads []float64) (*stats.Series, *stats.Series, error) {
	tl := &stats.Series{Name: string(base.System)}
	lat := &stats.Series{Name: string(base.System)}
	for _, load := range loads {
		d := base
		d.Offered = load
		res, err := measure(d)
		if err != nil {
			return nil, nil, err
		}
		ms := float64(res.Latency.Mean) / float64(time.Millisecond)
		tl.Add(load, res.Throughput)
		lat.Add(res.Throughput, ms)
	}
	return tl, lat, nil
}
