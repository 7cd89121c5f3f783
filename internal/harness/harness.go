// Package harness defines the reproducible experiments behind every figure
// in the paper's evaluation (§V). Each experiment builds a simulated
// deployment, runs it in virtual time, and reports the same series the
// paper plots; bench_test.go and cmd/predis-bench expose them.
package harness

import (
	"fmt"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/faults"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/pbft"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
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

// PointSpec describes one throughput/latency measurement.
type PointSpec struct {
	System     System
	NC         int // consensus group size; the fault bound is (NC−1)/3
	BundleSize int // bundle / microblock size (Predis, Narwhal, Stratus)
	BatchSize  int // batch size (baseline PBFT / HotStuff)
	WAN        bool
	Offered    float64 // total offered load, tx/s
	Clients    int
	Duration   time.Duration
	Seed       int64
	// Faults, when non-empty, is installed on the network before it starts
	// (the injector draws from Seed).
	Faults []faults.Action
	// BundleInterval overrides the producer's bundle seal interval
	// (default 20ms, the value every experiment used historically).
	BundleInterval time.Duration
	// Stream enables streaming commit (see node.Config.Stream): bundles
	// seal per transaction, cuts are eager, and consensus pipelines. Off,
	// the point is byte-for-byte the historical block-mode measurement.
	Stream bool
	// Replay, when non-nil, folds every delivery into a replay hash so
	// tests can assert two same-seed runs are byte-identical.
	Replay *ReplayTrace
	// Metrics, when non-nil, receives the nodes' counters after the run
	// (see publish).
	Metrics *obs.Registry
	// OnCommit, when non-nil, observes every commit at node 0.
	OnCommit func(at time.Time, txs int)
}

func (s *PointSpec) withDefaults() PointSpec {
	out := *s
	if out.NC == 0 {
		out.NC = 4
	}
	if out.BundleSize == 0 {
		out.BundleSize = 50
	}
	if out.BatchSize == 0 {
		out.BatchSize = 800
	}
	if out.Clients == 0 {
		out.Clients = 4
	}
	if out.Duration == 0 {
		out.Duration = 5 * time.Second
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.BundleInterval == 0 {
		out.BundleInterval = 20 * time.Millisecond
	}
	return out
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

// RunPoint builds the deployment for one spec, runs it, and measures.
func RunPoint(spec PointSpec) (PointResult, error) {
	s := spec.withDefaults()
	f := consensus.FaultBound(s.NC)
	mode, engine, err := modeEngine(s.System)
	if err != nil {
		return PointResult{}, err
	}
	net := newNet(s.Seed, s.WAN, s.Replay)
	warm := simnet.Epoch.Add(s.Duration / 4)
	end := simnet.Epoch.Add(s.Duration)
	col := workload.NewCollector(warm, end)

	suite := crypto.NewSimSuite(s.NC, uint64(s.Seed)+100)
	nodes := make([]*node.Node, s.NC)
	for i := 0; i < s.NC; i++ {
		i := i
		cfg := node.Config{
			Mode:           mode,
			Engine:         engine,
			NC:             s.NC,
			F:              f,
			Self:           wire.NodeID(i),
			Signer:         suite.Signer(i),
			BatchSize:      s.BatchSize,
			BundleSize:     s.BundleSize,
			BundleInterval: s.BundleInterval,
			ViewTimeout:    2 * time.Second,
			Stream:         s.Stream,
			ReplyToClients: true,
			OnCommit: func(height uint64, txs []*types.Transaction) {
				if i == 0 {
					col.RecordNodeCommit(net.Now(), len(txs))
					if s.OnCommit != nil {
						s.OnCommit(net.Now(), len(txs))
					}
				}
			},
		}
		n, err := node.New(cfg)
		if err != nil {
			return PointResult{}, err
		}
		nodes[i] = n
		net.AddNode(wire.NodeID(i), n)
	}

	policy := workload.RoundRobin
	if mode == node.ModeBaseline {
		policy = workload.Broadcast
	}
	clients := addClients(net, 1000, s.Clients, s.NC, s.Offered, workload.ClientConfig{
		Policy:    policy,
		F:         f,
		GenStart:  simnet.Epoch.Add(50 * time.Millisecond),
		GenStop:   end,
		Collector: col,
	})
	if len(s.Faults) > 0 {
		faults.Install(net, faults.Schedule{Seed: s.Seed, Actions: s.Faults})
	}

	net.Start()
	net.Run(s.Duration)

	_, _, _, blocks := col.Counts()
	res := PointResult{
		Throughput:       col.Throughput(),
		ClientThroughput: col.ClientThroughput(),
		Latency:          col.Latency(),
		Blocks:           blocks,
	}
	for _, n := range nodes {
		_, changes := n.Engine().Stats()
		res.ViewOrTimeouts = max(res.ViewOrTimeouts, changes)
	}
	publish(s.Metrics, net, nodes, nil, clients)
	return res, nil
}

// publish fills reg, once a run has ended, from the counters the
// components keep: per consensus node (ID = index) Predis's bundle, commit
// and seal counts and a pipelined PBFT engine's proposal pace (see
// pbft.Engine.Pace); per full node the fetch plane's pulls and the parked
// references (see FullNode.PullStats and ParkStats); per client its
// resubmissions by cause (see workload.Client.Resubmits); and the network's
// consensus lane (see simnet.LaneStats). It is the only place a run's
// counts enter a registry. A nil reg publishes nothing.
func publish(reg *obs.Registry, net *simnet.Network, nodes []*node.Node, fulls []*multizone.FullNode, clients []*workload.Client) {
	if reg == nil {
		return
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for i, n := range nodes {
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
	for _, fn := range fulls {
		requests, bundles, _, _ := fn.PullStats()
		reg.Counter("multizone.pull_requests", fn.ID()).Add(requests)
		reg.Counter("multizone.pull_bundles", fn.ID()).Add(bundles)
		parked, resolved, expired, wait := fn.ParkStats()
		reg.Counter("multizone.parked", fn.ID()).Add(parked)
		reg.Counter("multizone.park_resolved", fn.ID()).Add(resolved)
		reg.Counter("multizone.park_expired", fn.ID()).Add(expired)
		reg.Gauge("multizone.park_wait_max_ms", fn.ID()).Set(ms(wait))
	}
	for _, cl := range clients {
		onEvidence, onTimer := cl.Resubmits()
		reg.Counter("workload.resubmits_evidence", cl.ID()).Add(onEvidence)
		reg.Counter("workload.resubmits_timer", cl.ID()).Add(onTimer)
	}
	st := net.LaneStats()
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

// RunPoints evaluates independent specs on a worker pool, returning
// results in spec order. Each point builds its own simnet.Network, so
// per-point determinism (and replay hashes) are untouched by the
// wall-clock interleaving.
func RunPoints(specs []PointSpec, workers int) ([]PointResult, error) {
	return parRun(len(specs), workers, func(i int) (PointResult, error) {
		return RunPoint(specs[i])
	})
}

// LoadSweep runs a spec across offered loads, in order, and returns
// (throughput, latency-ms) pairs — one line of a throughput-latency
// figure.
func LoadSweep(base PointSpec, loads []float64) (*stats.Series, *stats.Series, error) {
	tl := &stats.Series{Name: string(base.System)}
	lat := &stats.Series{Name: string(base.System)}
	for _, load := range loads {
		spec := base
		spec.Offered = load
		res, err := RunPoint(spec)
		if err != nil {
			return nil, nil, err
		}
		ms := float64(res.Latency.Mean) / float64(time.Millisecond)
		tl.Add(load, res.Throughput)
		lat.Add(res.Throughput, ms)
	}
	return tl, lat, nil
}
