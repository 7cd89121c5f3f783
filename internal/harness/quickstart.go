package harness

import (
	"time"

	"predis/internal/exec"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
)

// ObsSink receives the observability artifacts of an experiment run:
// the lifecycle tracer, the metrics registry, and the simnet sampler.
// Pass a zero-value sink via Options.Obs; experiments that support
// observability populate it before returning, and callers (predis-bench)
// export Chrome traces and CSV breakdowns from it. Experiments that do
// not support observability leave the sink untouched.
type ObsSink struct {
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Sampler *obs.Sampler
}

// Quickstart runs the full Predis data-flow pipeline once, end to end:
// a P-HS consensus group (Predis on HotStuff) with a Multi-Zone
// full-node attachment, open-loop clients, and — when Options.Obs is
// set — lifecycle tracing plus NIC/queue sampling. It is the smallest
// deployment in which all seven pipeline stages fire (submit,
// bundle_sealed, block_proposed, prepare_commit, executed,
// stripe_distributed, fullnode_delivered), in either commit mode, and it
// renders the per-stage latency breakdown the paper's dataflow argument is
// about: consensus-side stages stay flat while dissemination rides on
// pre-distribution.
func Quickstart(o Options) ([]*stats.Table, error) { return quickstart(o, false) }

// QuickstartStream runs Quickstart's deployment in streaming commit:
// per-transaction seals and eager cuts, with HotStuff draining ordered
// cuts through empty blocks; full nodes are served exactly as in block
// mode.
func QuickstartStream(o Options) ([]*stats.Table, error) { return quickstart(o, true) }

func quickstart(o Options, stream bool) ([]*stats.Table, error) {
	offered, load := 4000.0, 6*time.Second
	if o.Quick {
		offered, load = 2000, 3*time.Second
	}

	// Observability: the tracer flows through every layer, the sampler
	// watches the network itself, and the registry is filled from the
	// components' counters once the run has ended (publish). All three are
	// created even without a sink so the stage table below is always
	// rendered — tracing is passive and cannot perturb the schedule.
	tracer := obs.NewTracer(simnet.Epoch)
	registry := obs.NewRegistry()

	// P-HS with Multi-Zone distribution hooks, two zones of three full
	// nodes with one cross-zone backup each (the Fig. 7 deployment shape,
	// scaled down).
	dep, err := Deploy{
		System: SysPHS, NC: 4, Fulls: ZoneMajor(2, 3),
		Stream: stream, ViewTimeout: 2 * time.Second,
		AliveInterval: 300 * time.Millisecond, DigestInterval: 2 * time.Second,
		JoinSpacing: 20 * time.Millisecond,
		Offered:     offered, Load: load, Seed: o.seed(),
		Replay: o.Replay, Trace: tracer,
		Host: func(cfg *node.Config) {
			cfg.Executor = exec.NewMachine(execGenesis)
		},
	}.Build()
	if err != nil {
		return nil, err
	}
	sampler := obs.NewSampler(dep.Net, 100*time.Millisecond)
	sampler.Start(dep.End)
	res := dep.Run()
	dep.publish(registry)

	if o.Obs != nil {
		o.Obs.Trace = tracer
		o.Obs.Metrics = registry
		o.Obs.Sampler = sampler
	}

	// Headline numbers plus the per-stage latency breakdown.
	lat := res.Latency
	summary := &stats.Table{
		Title: "Quickstart: P-HS + Multi-Zone (rows: 1=committed tx/s, " +
			"2=confirmed tx/s, 3=mean latency ms, 4=p99 latency ms, 5=blocks, " +
			"6=p50 latency ms, 7=p90 latency ms)",
		XLabel: "row",
	}
	name := "P-HS+MZ"
	if stream {
		name = "P-HS+MZ stream"
	}
	sum := &stats.Series{Name: name}
	sum.Add(1, res.Throughput)
	sum.Add(2, res.ClientThroughput)
	sum.Add(3, float64(lat.Mean)/float64(time.Millisecond))
	sum.Add(4, float64(lat.P99)/float64(time.Millisecond))
	sum.Add(5, float64(res.Blocks))
	sum.Add(6, float64(lat.P50)/float64(time.Millisecond))
	sum.Add(7, float64(lat.P90)/float64(time.Millisecond))
	summary.Series = append(summary.Series, sum)

	return []*stats.Table{summary, tracer.StageTable()}, nil
}
