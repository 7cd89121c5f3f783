package harness

import (
	"time"

	"predis/internal/crypto"
	"predis/internal/exec"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
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
// stripe_distributed, fullnode_delivered), and it renders the per-stage
// latency breakdown
// the paper's dataflow argument is about: consensus-side stages stay
// flat while dissemination rides on pre-distribution.
func Quickstart(o Options) ([]*stats.Table, error) {
	nc, f := 4, 1
	zones, perZone := 2, 3
	offered := 4000.0
	duration := 6 * time.Second
	if o.Quick {
		offered = 2000
		duration = 3 * time.Second
	}
	seed := o.seed()

	node.RegisterAllMessages()
	multizone.RegisterMessages()

	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: seed,
	})
	if o.Replay != nil {
		o.Replay.Attach(net)
	}

	// Observability: tracer and metrics flow through every layer; the
	// sampler watches the network itself. All three are created even
	// without a sink so the stage table below is always rendered —
	// tracing is passive and cannot perturb the schedule.
	tracer := obs.NewTracer(simnet.Epoch)
	registry := obs.NewRegistry()
	sampler := obs.NewSampler(net, 100*time.Millisecond, registry)

	joinWindow := time.Duration(zones*perZone)*20*time.Millisecond + 200*time.Millisecond
	horizon := joinWindow + duration
	warm := simnet.Epoch.Add(joinWindow + duration/4)
	end := simnet.Epoch.Add(horizon)
	col := workload.NewCollector(warm, end)

	suite := crypto.NewSimSuite(nc, uint64(seed)+7)
	striper, err := multizone.NewStriper(nc, f)
	if err != nil {
		return nil, err
	}

	// Consensus group: P-HS with Multi-Zone distribution hooks. With
	// Options.Stream the same deployment runs in streaming-commit mode:
	// eager cuts, speculative stripe distribution at proposal time, and
	// per-bundle execution merges.
	hosts := make([]*multizone.ConsensusHost, nc)
	for i := 0; i < nc; i++ {
		i := i
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         node.EngineHotStuff,
			BundleSize:     50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    2 * time.Second,
			Stream:         o.Stream,
			Striper:        striper,
			ReplyToClients: true,
			Trace:          tracer,
			Metrics:        registry,
			Executor:       exec.NewMachine(execGenesis),
			OnCommit: func(height uint64, txs int) {
				if i == 0 {
					col.RecordNodeCommit(net.Now(), txs)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		hosts[i] = host
		net.AddNode(wire.NodeID(i), host)
	}

	// Zones of full nodes joining incrementally, with one cross-zone
	// backup peer each (the Fig. 7 deployment shape, scaled down).
	fullID := func(z, k int) wire.NodeID { return wire.NodeID(100 + z*100 + k) }
	fulls := make([]*multizone.FullNode, 0, zones*perZone)
	join := 0
	for z := 0; z < zones; z++ {
		for k := 0; k < perZone; k++ {
			id := fullID(z, k)
			peers := make([]wire.NodeID, 0, perZone-1)
			for p := 0; p < perZone; p++ {
				if p != k {
					peers = append(peers, fullID(z, p))
				}
			}
			var backups []wire.NodeID
			if zones > 1 {
				backups = append(backups, fullID((z+1)%zones, k%perZone))
			}
			fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
				Self: id, Zone: z, JoinSeq: uint64(join),
				NC: nc, F: f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    backups,
				AliveInterval:  300 * time.Millisecond,
				DigestInterval: 2 * time.Second,
				Trace:          tracer,
			})
			if err != nil {
				return nil, err
			}
			fulls = append(fulls, fn)
			net.AddNode(id, &multizone.Delayed{Inner: fn, Delay: time.Duration(join) * 20 * time.Millisecond})
			join++
		}
	}

	// Open-loop clients, round-robin over consensus nodes (every node
	// packs bundles in Predis).
	targets := make([]wire.NodeID, nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	clients := nc
	for k := 0; k < clients; k++ {
		net.AddNode(wire.NodeID(5000+k), workload.NewClient(workload.ClientConfig{
			Self:      wire.NodeID(5000 + k),
			Targets:   targets,
			Policy:    workload.RoundRobin,
			Rate:      offered / float64(clients),
			TxSize:    types.DefaultTxSize,
			F:         f,
			Epoch:     simnet.Epoch,
			GenStart:  simnet.Epoch.Add(joinWindow),
			GenStop:   end,
			Collector: col,
			Trace:     tracer,
		}))
	}

	sampler.Start(horizon)
	net.Start()
	net.Run(horizon)
	// The fetch plane's counters, per full node (see FullNode.PullStats).
	for _, fn := range fulls {
		requests, bundles, _, _ := fn.PullStats()
		registry.Counter("multizone.pull_requests", fn.ID()).Add(requests)
		registry.Counter("multizone.pull_bundles", fn.ID()).Add(bundles)
	}
	for i, host := range hosts {
		publishPace(registry, wire.NodeID(i), host.Node.Engine())
	}

	if o.Obs != nil {
		o.Obs.Trace = tracer
		o.Obs.Metrics = registry
		o.Obs.Sampler = sampler
	}

	// Headline numbers plus the per-stage latency breakdown.
	lat := col.Latency()
	title := "Quickstart: P-HS + Multi-Zone (rows: 1=committed tx/s, " +
		"2=confirmed tx/s, 3=mean latency ms, 4=p99 latency ms, 5=blocks, " +
		"6=p50 latency ms, 7=p90 latency ms"
	if o.Stream {
		title += ", 8=spec finalized, 9=spec wasted"
	}
	summary := &stats.Table{Title: title + ")", XLabel: "row"}
	name := "P-HS+MZ"
	if o.Stream {
		name = "P-HS+MZ stream"
	}
	sum := &stats.Series{Name: name}
	_, _, _, blocks := col.Counts()
	sum.Add(1, col.Throughput())
	sum.Add(2, col.ClientThroughput())
	sum.Add(3, float64(lat.Mean)/float64(time.Millisecond))
	sum.Add(4, float64(lat.P99)/float64(time.Millisecond))
	sum.Add(5, float64(blocks))
	sum.Add(6, float64(lat.P50)/float64(time.Millisecond))
	sum.Add(7, float64(lat.P90)/float64(time.Millisecond))
	if o.Stream {
		var hits, waste uint64
		for _, fn := range fulls {
			h, w := fn.SpecStats()
			hits += h
			waste += w
		}
		sum.Add(8, float64(hits))
		sum.Add(9, float64(waste))
	}
	summary.Series = append(summary.Series, sum)

	return []*stats.Table{summary, tracer.StageTable()}, nil
}
