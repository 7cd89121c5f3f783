package harness

import (
	"fmt"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// recoverySpec describes one crash-recovery measurement over the full
// Multi-Zone deployment: a P-PBFT consensus group with striped zones of
// full nodes, a declarative fault schedule crashing either the view-0
// consensus leader or the zone's first-joining full node (which, by the
// subscription protocol of §IV-C, claims stripes and relays), and a
// restart inside the run so catch-up is exercised end to end.
type recoverySpec struct {
	nc, f          int
	zones, perZone int
	offered        float64
	duration       time.Duration
	bucket         time.Duration
	seed           int64
	crashFrom      time.Duration
	crashTo        time.Duration
	// victimConsensus selects the scenario: true crashes consensus node 0
	// (the PBFT view-0 leader, forcing a view change and later a replica
	// catch-up); false crashes the first-joined full node of zone 0 (a
	// relayer, forcing stripe re-subscription and zone catch-up).
	victimConsensus bool
	// actions, when non-nil, replaces the default crash window with a
	// custom fault schedule (the Byzantine experiment reuses this rig
	// with adversarial actions instead of a crash).
	actions []faults.Action
	// starveRewire arms FullNodeConfig.StarveRewireAfter on every full
	// node (0 leaves the opt-in withholding detector off).
	starveRewire int
	// trace, when non-nil, accumulates the replay hash of every delivery
	// (see ReplayTrace).
	trace *ReplayTrace
	// obsTrace, when non-nil, records block/bundle lifecycle stages so the
	// experiment can render a per-stage latency breakdown around the
	// crash window.
	obsTrace *obs.Tracer
}

// recoveryResult is one run's outcome.
type recoveryResult struct {
	// buckets holds committed tx/s per bucket, observed at a consensus
	// node that never crashes.
	buckets []float64
	// trace is the injector's applied-fault log (deterministic per seed).
	trace string
	// victimHead / liveHead compare the restarted node's chain head with
	// the healthiest live peer at the end of the run (consensus commit
	// heights for the leader scenario, zone block heights for the relayer
	// scenario).
	victimHead, liveHead uint64
	// catchingUp reports whether the victim's catch-up was still in
	// flight when the run ended (relayer scenario only).
	catchingUp bool
	// Byzantine-hardening counters, summed across all full nodes. On a
	// benign schedule (crashes, loss) every one of these is zero:
	// verification never fails without an adversary.
	rejected, refetches, quarantines, rewires uint64
	// undecodable counts frames the network dropped because their body
	// would not decode (garbage-wire attacks; zero on benign runs).
	undecodable uint64
	// equivocations sums proven leader equivocations across the
	// consensus group (zero on benign runs).
	equivocations uint64
}

// runRecovery builds the deployment, installs the fault schedule, runs
// it, and reports the bucketed throughput plus chain-head positions.
func runRecovery(spec recoverySpec) (recoveryResult, error) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()

	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: spec.seed,
	})

	if spec.trace != nil {
		spec.trace.Attach(net)
	}

	nBuckets := int(spec.duration/spec.bucket) + 1
	buckets := make([]float64, nBuckets)
	record := func(at time.Time, txs int) {
		i := int(at.Sub(simnet.Epoch) / spec.bucket)
		if i >= 0 && i < nBuckets {
			buckets[i] += float64(txs)
		}
	}

	suite := crypto.NewSimSuite(spec.nc, uint64(spec.seed)+7)
	striper, err := multizone.NewStriper(spec.nc, spec.f)
	if err != nil {
		return recoveryResult{}, err
	}

	// Consensus group. In the leader scenario the bucket recorder is the
	// last consensus node (which never crashes); in the relayer scenario
	// it is a healthy full node in the victim's zone, so the timeline
	// shows the zone's completion rate through heartbeat expiry, relayer
	// re-election, and catch-up. Per-node last-commit heights feed the
	// leader scenario's head comparison.
	lastCommit := make([]uint64, spec.nc)
	hosts := make([]*multizone.ConsensusHost, 0, spec.nc)
	for i := 0; i < spec.nc; i++ {
		i := i
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: spec.nc, F: spec.f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         node.EnginePBFT,
			BundleSize:     50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    1 * time.Second,
			Striper:        striper,
			ReplyToClients: true,
			Trace:          spec.obsTrace,
			OnCommit: func(height uint64, txs int) {
				if height > lastCommit[i] {
					lastCommit[i] = height
				}
				if spec.victimConsensus && i == spec.nc-1 {
					record(net.Now(), txs)
				}
			},
		})
		if err != nil {
			return recoveryResult{}, err
		}
		hosts = append(hosts, host)
		net.AddNode(wire.NodeID(i), host)
	}

	// Zones of full nodes joining incrementally, cross-zone backups as in
	// the Fig. 7 deployment.
	fullID := func(z, k int) wire.NodeID { return wire.NodeID(100 + z*100 + k) }
	fulls := make([]*multizone.FullNode, 0, spec.zones*spec.perZone)
	join := 0
	for z := 0; z < spec.zones; z++ {
		for k := 0; k < spec.perZone; k++ {
			id := fullID(z, k)
			peers := make([]wire.NodeID, 0, spec.perZone-1)
			for p := 0; p < spec.perZone; p++ {
				if p != k {
					peers = append(peers, fullID(z, p))
				}
			}
			var backups []wire.NodeID
			if spec.zones > 1 {
				backups = append(backups, fullID((z+1)%spec.zones, k%spec.perZone))
			}
			fcfg := multizone.FullNodeConfig{
				Self: id, Zone: z, JoinSeq: uint64(join),
				NC: spec.nc, F: spec.f,
				Striper:           striper,
				Signer:            suite.Signer(0),
				ZonePeers:         peers,
				BackupPeers:       backups,
				AliveInterval:     200 * time.Millisecond,
				DigestInterval:    1 * time.Second,
				StarveRewireAfter: spec.starveRewire,
				Trace:             spec.obsTrace,
			}
			if !spec.victimConsensus && z == 0 && k == 1 {
				// Zone-side observer: a healthy peer of the crashed relayer.
				fcfg.OnBlockComplete = func(blk *core.PredisBlock, txs int) {
					record(net.Now(), txs)
				}
			}
			fn, err := multizone.NewFullNode(fcfg)
			if err != nil {
				return recoveryResult{}, err
			}
			fulls = append(fulls, fn)
			net.AddNode(id, &multizone.Delayed{Inner: fn, Delay: time.Duration(join) * 20 * time.Millisecond})
			join++
		}
	}

	// Fault schedule: one crash window on the chosen victim unless the
	// caller scripted its own actions (Byzantine scenarios).
	victim := fullID(0, 0) // first joiner of zone 0: claims stripes, relays
	if spec.victimConsensus {
		victim = wire.NodeID(0) // PBFT view-0 leader
	}
	actions := spec.actions
	if actions == nil {
		actions = []faults.Action{
			faults.CrashWindow{Node: victim, From: spec.crashFrom, To: spec.crashTo},
		}
	}
	inj := faults.Install(net, faults.Schedule{Seed: spec.seed, Actions: actions})

	// Load.
	targets := make([]wire.NodeID, spec.nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	joinWindow := time.Duration(spec.zones*spec.perZone)*20*time.Millisecond + 200*time.Millisecond
	clients := spec.nc
	for k := 0; k < clients; k++ {
		net.AddNode(wire.NodeID(5000+k), workload.NewClient(workload.ClientConfig{
			Self:     wire.NodeID(5000 + k),
			Targets:  targets,
			Policy:   workload.RoundRobin,
			Rate:     spec.offered / float64(clients),
			TxSize:   types.DefaultTxSize,
			F:        spec.f,
			Epoch:    simnet.Epoch,
			GenStart: simnet.Epoch.Add(joinWindow),
			GenStop:  simnet.Epoch.Add(spec.duration),
			Trace:    spec.obsTrace,
		}))
	}

	net.Start()
	net.Run(spec.duration)

	res := recoveryResult{buckets: buckets, trace: inj.TraceString()}
	for _, fn := range fulls {
		rj, rf, q, rw := fn.ByzStats()
		res.rejected += rj
		res.refetches += rf
		res.quarantines += q
		res.rewires += rw
	}
	res.undecodable = net.Dropped().Undecodable
	for _, h := range hosts {
		// Both engine kinds expose proven-equivocation counts; the
		// interface stays narrow so node.Engine needs no new method.
		if eq, ok := h.Node.Engine().(interface{ Equivocations() uint64 }); ok {
			res.equivocations += eq.Equivocations()
		}
	}
	if spec.victimConsensus {
		res.victimHead = lastCommit[0]
		for i := 1; i < spec.nc; i++ {
			if lastCommit[i] > res.liveHead {
				res.liveHead = lastCommit[i]
			}
		}
	} else {
		for _, fn := range fulls {
			if fn.ID() == victim {
				res.victimHead = fn.LastHeight()
				res.catchingUp = fn.CatchingUp()
				continue
			}
			if fn.LastHeight() > res.liveHead {
				res.liveHead = fn.LastHeight()
			}
		}
	}
	return res, nil
}

// recoveryMetrics reduces a bucketed throughput series to the headline
// numbers: the pre-crash baseline rate, the dip floor during the outage,
// the dip depth as a percent of baseline, and the time from restart until
// throughput first regains 90% of baseline (-1 when it never does).
func recoveryMetrics(buckets []float64, bucket, warm, crashFrom, crashTo time.Duration) (baseline, floor, dipPct, ttrMS float64) {
	rate := func(i int) float64 { return buckets[i] / bucket.Seconds() }
	var sum float64
	n := 0
	for i := range buckets {
		start := time.Duration(i) * bucket
		end := start + bucket
		if start >= warm && end <= crashFrom {
			sum += rate(i)
			n++
		}
	}
	if n > 0 {
		baseline = sum / float64(n)
	}
	floor = baseline
	for i := range buckets {
		start := time.Duration(i) * bucket
		if start >= crashFrom && start < crashTo+2*bucket && rate(i) < floor {
			floor = rate(i)
		}
	}
	if baseline > 0 {
		dipPct = 100 * (1 - floor/baseline)
	}
	ttrMS = -1
	for i := range buckets {
		start := time.Duration(i) * bucket
		end := start + bucket
		if start >= crashTo && end <= time.Duration(len(buckets))*bucket &&
			rate(i) >= 0.9*baseline {
			ttrMS = float64(end-crashTo) / float64(time.Millisecond)
			break
		}
	}
	return baseline, floor, dipPct, ttrMS
}

// Recovery is the crash-recovery experiment (ISSUE 1 tentpole 4): the
// Multi-Zone deployment under a scripted relayer crash and, separately, a
// consensus-leader crash. It reports the committed-throughput timeline
// around each outage and a summary of dip depth, time-to-recover, and the
// restarted node's final chain head versus the live head. Both victims
// must catch back up to the live head (small slack for blocks committed
// in the final instants); a stuck victim is an error, not a data point.
func Recovery(o Options) ([]*stats.Table, error) {
	spec := recoverySpec{
		nc: 4, f: 1, zones: 2, perZone: 5,
		offered: 6000, duration: 16 * time.Second,
		bucket:    500 * time.Millisecond,
		seed:      o.seed(),
		crashFrom: 6 * time.Second, crashTo: 9 * time.Second,
	}
	if o.Quick {
		spec.perZone = 4
		spec.offered = 3000
		spec.duration = 10 * time.Second
		spec.crashFrom, spec.crashTo = 4*time.Second, 6*time.Second
	}
	warm := time.Duration(spec.zones*spec.perZone)*20*time.Millisecond + 700*time.Millisecond

	timeline := &stats.Table{
		Title:  "Recovery: committed throughput (tx/s) per 500ms bucket around the crash window",
		XLabel: "t(s)",
	}
	summary := &stats.Table{
		Title: "Recovery summary (rows: 1=baseline tx/s, 2=dip floor tx/s, " +
			"3=dip depth %, 4=time-to-recover ms, 5=victim head, 6=live head, " +
			"7=stripes rejected, 8=refetches, 9=quarantines, 10=rewires — " +
			"rows 7-10 are the Byzantine-hardening counters and must be zero " +
			"on these benign crash scenarios)",
		XLabel: "row",
	}
	scenarios := []struct {
		name      string
		consensus bool
	}{
		{"relayer-crash", false},
		{"leader-crash", true},
	}
	stageTables := make([]*stats.Table, 0, len(scenarios))
	for _, sc := range scenarios {
		s := spec
		s.victimConsensus = sc.consensus
		s.trace = o.Replay // scenarios run sequentially: folding both is deterministic
		s.obsTrace = obs.NewTracer(simnet.Epoch)
		res, err := runRecovery(s)
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", sc.name, err)
		}
		if res.liveHead == 0 {
			return nil, fmt.Errorf("recovery %s: cluster made no progress", sc.name)
		}
		// Hard acceptance: the restarted node reaches the live head.
		const slack = 4
		if res.victimHead+slack < res.liveHead {
			return nil, fmt.Errorf("recovery %s: victim stuck at height %d, live head %d",
				sc.name, res.victimHead, res.liveHead)
		}
		if res.catchingUp {
			return nil, fmt.Errorf("recovery %s: catch-up still in flight at end of run", sc.name)
		}
		ts := &stats.Series{Name: sc.name}
		for i, v := range res.buckets {
			end := time.Duration(i+1) * s.bucket
			if end > s.duration {
				break
			}
			ts.Add(end.Seconds(), v/s.bucket.Seconds())
		}
		timeline.Series = append(timeline.Series, ts)

		baseline, floor, dip, ttr := recoveryMetrics(res.buckets, s.bucket, warm, s.crashFrom, s.crashTo)
		sum := &stats.Series{Name: sc.name}
		sum.Add(1, baseline)
		sum.Add(2, floor)
		sum.Add(3, dip)
		sum.Add(4, ttr)
		sum.Add(5, float64(res.victimHead))
		sum.Add(6, float64(res.liveHead))
		sum.Add(7, float64(res.rejected))
		sum.Add(8, float64(res.refetches))
		sum.Add(9, float64(res.quarantines))
		sum.Add(10, float64(res.rewires))
		summary.Series = append(summary.Series, sum)
		if n := res.rejected + res.refetches + res.quarantines + res.rewires +
			res.undecodable + res.equivocations; n != 0 {
			return nil, fmt.Errorf("recovery %s: benign crash moved Byzantine counters (%d)",
				sc.name, n)
		}

		// Per-stage latency breakdown: dissemination stages absorb the
		// outage (stripe_distributed/fullnode_delivered tails stretch while
		// the victim is down) without moving the consensus-side stages.
		st := s.obsTrace.StageTable()
		st.Title = sc.name + " — " + st.Title
		stageTables = append(stageTables, st)
		if o.Obs != nil {
			o.Obs.Trace = s.obsTrace
		}
	}
	return append([]*stats.Table{timeline, summary}, stageTables...), nil
}
