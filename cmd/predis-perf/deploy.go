package main

import (
	"fmt"
	"math/rand"
	"time"

	"predis/internal/compute"
	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/faults"
	"predis/internal/harness"
	"predis/internal/ledger"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// Node ID layout: consensus hosts 0..nc-1, full nodes 100+100·zone+k,
// clients 5000+k.
const clientBase = 5000

// Clients tick every clientTick of virtual time, staggered evenly across
// the tick. The seed delays the start of every consensus host and
// client by up to startJitter: machines do not boot on the same
// nanosecond. Without it a fault-free workload is the same simulation
// on every seed; with a large one, event orderings flip between seeds
// and tail percentiles jump between discrete regimes. Full nodes keep
// their exact 20 ms join spacing (§IV-C assumes ordered joins): moving
// a join by even 100 µs lands most seeds of fanout_lan on a relayer
// tree with twice the p99 propagation delay and up to four times the
// resident memory.
const (
	clientTick  = 10 * time.Millisecond
	startJitter = 100 * time.Microsecond
)

func fullID(zone, k int) wire.NodeID { return wire.NodeID(100 + zone*100 + k) }

// Semantic-workload shape (exec_skew): genesis balance and transfer
// amount leave hot accounts room to drain into deterministic aborts.
const (
	execGenesis  = 1000
	execAmount   = 50
	execAccounts = 16384
	execTheta    = 0.9
	execRMWFrac  = 0.1
)

func zipfConfig(seed int64) workload.ZipfConfig {
	return workload.ZipfConfig{
		Accounts: execAccounts, Theta: execTheta, RMWFrac: execRMWFrac,
		Amount: execAmount, Seed: uint64(seed),
	}
}

// runOpts are the per-run knobs that are not part of the workload: the
// seed, the offered rate and load length (ladder rungs and the warm-up
// shorten them), and the optional instrumentation of a traced run.
type runOpts struct {
	seed int64
	rate float64
	load time.Duration
	// pool is the compute pool (nil = inline, the e2e default).
	pool *compute.Pool
	// spans, when non-nil, wraps every handler in the host-clock span
	// decorator; obsTrace/obsReg attach the virtual-time tracer and
	// metric registry through the layers' own config fields.
	spans    *spanRecorder
	obsTrace *obs.Tracer
	obsReg   *obs.Registry
}

// commitProbe records what the run's correctness gate and the virtual
// metrics need, observed through the layers' public hooks only.
type commitProbe struct {
	// firstCommit[h] is when the first consensus node committed height h.
	firstCommit map[uint64]time.Time
	// lastCommit[i] is host i's highest committed height.
	lastCommit []uint64
	// observer series: commit instants and sizes inside the window.
	commitTimes []time.Time
	// totalTxs/totalBlocks count every observer commit of the run.
	totalTxs, totalBlocks int
	// propagation holds commit→complete delays for (h, full node) pairs
	// whose commit fell in the window.
	propagation []time.Duration
	// completed[i] is full node i's completion sequence; blockHash pins
	// the block every full node must see at a height.
	completed [][]uint64
	blockHash map[uint64]crypto.Hash
	// roots[h] is the state root at height h; the first executor to
	// reach h sets it and every later one must match.
	roots map[uint64]crypto.Hash
	// bundleTxs/bundles count the observer full node's assembled bundles.
	bundleTxs, bundles int
	errs               []string
}

func (p *commitProbe) failf(format string, args ...any) {
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *commitProbe) recordRoot(who string, r exec.Result) {
	if prev, ok := p.roots[r.Height]; ok {
		if prev != r.StateRoot {
			p.failf("state root mismatch at height %d on %s", r.Height, who)
		}
		return
	}
	p.roots[r.Height] = r.StateRoot
}

// deployment is one built simulation, ready for net.Start().
type deployment struct {
	spec workloadSpec
	opts runOpts
	net  *simnet.Network

	hosts    []*multizone.ConsensusHost
	fulls    []*multizone.FullNode
	clients  []*workload.Client
	machines []*exec.Machine // hosts first, then full nodes
	ledger   *ledger.Ledger
	replay   *harness.ReplayTrace
	col      *workload.Collector
	probe    *commitProbe

	// Virtual timeline, relative to the epoch.
	loadStart, loadEnd, horizon time.Duration
}

// build constructs the deployment from the layers' public constructors.
// It draws everything random from opts.seed: simnet's per-node sources,
// key material, the Zipf stream, the fault injector's draws, and every
// node's start jitter.
func build(spec workloadSpec, opts runOpts) (*deployment, error) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()

	latency := simnet.LANLatency()
	if spec.wan {
		latency = simnet.WANLatency()
	}
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: latency, Seed: opts.seed, Compute: opts.pool,
	})
	d := &deployment{
		spec: spec, opts: opts, net: net,
		replay:    harness.NewReplayTrace(),
		loadStart: spec.joinWindow(),
	}
	d.replay.Attach(net)
	d.loadEnd = d.loadStart + opts.load
	d.horizon = d.loadEnd + spec.drain
	d.col = workload.NewCollector(simnet.Epoch.Add(d.loadStart+opts.load/4), simnet.Epoch.Add(d.loadEnd))
	probe := &commitProbe{
		firstCommit: make(map[uint64]time.Time),
		lastCommit:  make([]uint64, spec.nc),
		completed:   make([][]uint64, spec.fullNodes()),
		blockHash:   make(map[uint64]crypto.Hash),
		roots:       make(map[uint64]crypto.Hash),
	}
	d.probe = probe
	inWindow := func(at time.Time) bool {
		return !at.Before(d.col.WarmupEnd) && at.Before(d.col.MeasureEnd)
	}
	add := func(id wire.NodeID, role nodeRole, h env.Handler) {
		net.AddNode(id, opts.spans.wrap(role, h))
	}

	starts := rand.New(rand.NewSource(opts.seed ^ 0x70657266)) // "perf"
	jitter := func() time.Duration { return time.Duration(starts.Int63n(int64(startJitter))) }

	suite := crypto.NewSimSuite(spec.nc, uint64(opts.seed)+7)
	striper, err := multizone.NewStriper(spec.nc, spec.f)
	if err != nil {
		return nil, err
	}

	for i := 0; i < spec.nc; i++ {
		i := i
		cfg := multizone.HostConfig{
			NC: spec.nc, F: spec.f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         spec.engine,
			BundleSize:     bundleSize,
			BundleInterval: bundleInterval,
			ViewTimeout:    spec.viewTimeout,
			Stream:         spec.stream,
			Pipeline:       spec.pipeline,
			Striper:        striper,
			ReplyToClients: true,
			Trace:          opts.obsTrace,
			Metrics:        opts.obsReg,
			OnCommit: func(height uint64, txs int) {
				now := net.Now()
				if _, ok := probe.firstCommit[height]; !ok {
					probe.firstCommit[height] = now
				}
				if height > probe.lastCommit[i] {
					probe.lastCommit[i] = height
				}
				if i != spec.observer {
					return
				}
				probe.totalTxs += txs
				probe.totalBlocks++
				d.col.RecordNodeCommit(now, txs)
				if inWindow(now) {
					probe.commitTimes = append(probe.commitTimes, now)
				}
			},
		}
		if spec.semantic {
			m := exec.NewMachine(execGenesis)
			d.machines = append(d.machines, m)
			cfg.Executor = m
			cfg.OnExecute = func(r exec.Result) { probe.recordRoot(fmt.Sprintf("host %d", i), r) }
		}
		host, err := multizone.NewConsensusHost(cfg)
		if err != nil {
			return nil, err
		}
		d.hosts = append(d.hosts, host)
		add(wire.NodeID(i), roleHost, &multizone.Delayed{Inner: host, Delay: jitter()})
	}

	// Zones of full nodes joining one by one, with one cross-zone backup
	// peer each (the Fig. 7 / recovery deployment shape).
	join := 0
	for z := 0; z < spec.zones; z++ {
		for k := 0; k < spec.perZone; k++ {
			idx := join
			id := fullID(z, k)
			peers := make([]wire.NodeID, 0, spec.perZone-1)
			for p := 0; p < spec.perZone; p++ {
				if p != k {
					peers = append(peers, fullID(z, p))
				}
			}
			var backups []wire.NodeID
			if spec.zones > 1 {
				backups = append(backups, fullID((z+1)%spec.zones, k))
			}
			cfg := multizone.FullNodeConfig{
				Self: id, Zone: z, JoinSeq: uint64(join),
				NC: spec.nc, F: spec.f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    backups,
				AliveInterval:  200 * time.Millisecond,
				DigestInterval: 1 * time.Second,
				Trace:          opts.obsTrace,
				OnBlockComplete: func(blk *core.PredisBlock, txs int) {
					probe.completed[idx] = append(probe.completed[idx], blk.Height)
					hash := blk.Hash()
					if prev, ok := probe.blockHash[blk.Height]; !ok {
						probe.blockHash[blk.Height] = hash
					} else if prev != hash {
						probe.failf("full node %d completed a different block at height %d", id, blk.Height)
					}
					if at, ok := probe.firstCommit[blk.Height]; ok && inWindow(at) {
						probe.propagation = append(probe.propagation, net.Now().Sub(at))
					}
				},
			}
			if idx == spec.fullNodes()-1 {
				// Observer full node (never the crashed one): bundle shape.
				cfg.OnBundle = func(b *core.Bundle) {
					probe.bundles++
					probe.bundleTxs += len(b.Txs)
				}
			}
			if spec.semantic {
				m := exec.NewMachine(execGenesis)
				d.machines = append(d.machines, m)
				cfg.Executor = m
				cfg.OnExecute = func(r exec.Result) { probe.recordRoot(fmt.Sprintf("full node %d", id), r) }
				if idx == spec.fullNodes()-1 {
					d.ledger = ledger.New()
					cfg.Ledger = d.ledger
				}
			}
			fn, err := multizone.NewFullNode(cfg)
			if err != nil {
				return nil, err
			}
			d.fulls = append(d.fulls, fn)
			add(id, roleFull, &multizone.Delayed{Inner: fn, Delay: time.Duration(join) * joinSpacing})
			join++
		}
	}

	if spec.crashes() {
		w := spec.crashWindows(opts.load)
		faults.Install(net, faults.Schedule{Seed: opts.seed, Actions: []faults.Action{
			faults.CrashWindow{Node: 0, From: w[0][0], To: w[0][1]},
			faults.CrashWindow{Node: fullID(0, 0), From: w[1][0], To: w[1][1]},
		}})
	}

	// Open-loop load: each client paces rate/numClients tx/s in ticks of
	// virtual time, so arrivals are on schedule whatever the system does
	// and latency is timed from the due time by construction.
	targets := make([]wire.NodeID, spec.nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	var ops func(wire.NodeID, uint64) types.Op
	if spec.semantic {
		ops = workload.NewZipfOps(zipfConfig(opts.seed)).Op
	}
	for k := 0; k < numClients; k++ {
		id := wire.NodeID(clientBase + k)
		phase := time.Duration(k)*clientTick/numClients + jitter()
		cl := workload.NewClient(workload.ClientConfig{
			Self:          id,
			Targets:       targets,
			Policy:        workload.RoundRobin,
			Rate:          opts.rate / numClients,
			TxSize:        types.DefaultTxSize,
			F:             spec.f,
			Epoch:         simnet.Epoch,
			Tick:          clientTick,
			GenStart:      simnet.Epoch.Add(d.loadStart + phase),
			GenStop:       simnet.Epoch.Add(d.loadEnd),
			ResubmitAfter: resubmitAfter,
			Collector:     d.col,
			Trace:         opts.obsTrace,
			Ops:           ops,
		})
		d.clients = append(d.clients, cl)
		add(id, roleClient, cl)
	}
	return d, nil
}
