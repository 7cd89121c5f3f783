package harness

import (
	"errors"
	"fmt"
	"time"

	"predis/internal/core"
	"predis/internal/faults"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// recoverySpec describes one crash-recovery measurement over the full
// Multi-Zone deployment: a P-PBFT consensus group with striped zones of
// full nodes (see recoveryDeploy), a declarative fault schedule crashing
// either the view-0 consensus leader or the zone's first-joining full node
// (which, by the subscription protocol of §IV-C, claims stripes and
// relays), and a restart inside the run so catch-up is exercised end to
// end. Deploy.Replay and Deploy.Trace, when set, fold the replay hash and
// record the lifecycle stages around the crash window.
type recoverySpec struct {
	Deploy
	bucket    time.Duration
	crashFrom time.Duration
	crashTo   time.Duration
	// victimConsensus selects the scenario: true crashes consensus node 0
	// (the PBFT view-0 leader, forcing a view change and later a replica
	// catch-up); false crashes the first-joined full node of zone 0 (a
	// relayer, forcing stripe re-subscription and zone catch-up).
	victimConsensus bool
	// actions, when non-nil, replaces the default crash window with a
	// custom fault schedule (the Byzantine experiment reuses this rig
	// with adversarial actions instead of a crash).
	actions []faults.Action
}

// recoveryDeploy is the deployment the fault experiments run on: P-PBFT
// with a 1 s view timeout and two zones of perZone full nodes on fast
// heartbeats. Fault windows are absolute times, so run is the length of
// the whole run and the load fills what the join window leaves of it.
func recoveryDeploy(perZone int, offered float64, run time.Duration, seed int64) Deploy {
	d := Deploy{
		System: SysPPBFT, NC: 4, Fulls: ZoneMajor(2, perZone),
		ViewTimeout:   1 * time.Second,
		AliveInterval: 200 * time.Millisecond, DigestInterval: 1 * time.Second,
		JoinSpacing: 20 * time.Millisecond,
		Offered:     offered, Seed: seed,
	}
	d.Load = run - d.loadStart()
	return d
}

// faultRig is the rig Recovery and Byzantine share: recoveryDeploy under
// one fault window, 6–9 s of a 16 s run (quick: 4–6 s of quickRun).
func faultRig(o Options, quickRun time.Duration) recoverySpec {
	spec := recoverySpec{
		Deploy:    recoveryDeploy(5, 6000, 16*time.Second, o.seed()),
		bucket:    500 * time.Millisecond,
		crashFrom: 6 * time.Second, crashTo: 9 * time.Second,
	}
	if o.Quick {
		spec.Deploy = recoveryDeploy(4, 3000, quickRun, o.seed())
		spec.crashFrom, spec.crashTo = 4*time.Second, 6*time.Second
	}
	// Scenarios run sequentially, so folding all of them into one trace is
	// deterministic.
	spec.Replay = o.Replay
	return spec
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
	// benign schedule (crashes, loss) the first three are zero:
	// verification never fails without an adversary. spares counts the
	// spare indices full nodes took while a sender was silent, which a
	// crash causes as much as withholding does.
	rejected, refetches, quarantines, spares uint64
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
	d := spec.Deploy
	var dep *Deployment
	buckets := make([]float64, int(d.end()/spec.bucket)+1)
	record := func(txs int) {
		if i := int(dep.Net.Elapsed() / spec.bucket); i < len(buckets) {
			buckets[i] += float64(txs)
		}
	}

	// In the leader scenario the bucket recorder is the last consensus node
	// (which never crashes); in the relayer scenario it is a healthy full
	// node in the victim's zone, so the timeline shows the zone's
	// completion rate through heartbeat expiry, relayer re-election, and
	// catch-up. Per-node last-commit heights feed the leader scenario's
	// head comparison.
	lastCommit := make([]uint64, d.NC)
	d.Host = func(cfg *node.Config) {
		i := int(cfg.Self)
		cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
			if height > lastCommit[i] {
				lastCommit[i] = height
			}
			if spec.victimConsensus && i == d.NC-1 {
				record(len(txs))
			}
		}
	}
	d.Full = func(cfg *multizone.FullNodeConfig) {
		if !spec.victimConsensus && cfg.JoinSeq == 1 {
			// Zone-side observer: a healthy peer of the crashed relayer.
			cfg.OnBlockComplete = func(blk *core.PredisBlock, txs int) { record(txs) }
		}
	}
	dep, err := d.Build()
	if err != nil {
		return recoveryResult{}, err
	}
	net, hosts, fulls := dep.Net, dep.Hosts, dep.Fulls

	// Fault schedule: one crash window on the chosen victim unless the
	// caller scripted its own actions (Byzantine scenarios).
	victim := d.Fulls[0].ID // first joiner of zone 0: claims stripes, relays
	if spec.victimConsensus {
		victim = wire.NodeID(0) // PBFT view-0 leader
	}
	actions := spec.actions
	if actions == nil {
		actions = []faults.Action{
			faults.CrashWindow{Node: victim, From: spec.crashFrom, To: spec.crashTo},
		}
	}
	inj := faults.Install(net, faults.Schedule{Seed: d.Seed, Actions: actions})

	net.Start()
	net.Run(dep.End)

	res := recoveryResult{buckets: buckets, trace: inj.TraceString()}
	for _, fn := range fulls {
		rj, rf, q, sp := fn.ByzStats()
		res.rejected += rj
		res.refetches += rf
		res.quarantines += q
		res.spares += sp
	}
	res.undecodable = net.Dropped().Undecodable
	for _, h := range hosts {
		res.equivocations += h.Engine().Equivocations()
	}
	if spec.victimConsensus {
		res.victimHead = lastCommit[0]
		for i := 1; i < d.NC; i++ {
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
	if res.liveHead == 0 {
		return res, errors.New("cluster made no progress")
	}
	return res, nil
}

// meanRate averages the tx/s of the whole buckets inside [from, to); n is
// how many there were.
func meanRate(buckets []float64, bucket, from, to time.Duration) (mean float64, n int) {
	var sum float64
	for i := range buckets {
		start := time.Duration(i) * bucket
		if start >= from && start+bucket <= to {
			sum += buckets[i] / bucket.Seconds()
			n++
		}
	}
	if n > 0 {
		mean = sum / float64(n)
	}
	return mean, n
}

// timelineSeries renders the buckets that ended inside the run as tx/s
// against the bucket's end time in seconds.
func timelineSeries(name string, buckets []float64, bucket, run time.Duration) *stats.Series {
	ts := &stats.Series{Name: name}
	for i, v := range buckets {
		end := time.Duration(i+1) * bucket
		if end > run {
			break
		}
		ts.Add(end.Seconds(), v/bucket.Seconds())
	}
	return ts
}

// recoveryMetrics reduces a bucketed throughput series to the headline
// numbers: the pre-crash baseline rate, the dip floor during the outage,
// the dip depth as a percent of baseline, and the time from restart until
// throughput first regains 90% of baseline (-1 when it never does).
func recoveryMetrics(buckets []float64, bucket, warm, crashFrom, crashTo time.Duration) (baseline, floor, dipPct, ttrMS float64) {
	rate := func(i int) float64 { return buckets[i] / bucket.Seconds() }
	baseline, _ = meanRate(buckets, bucket, warm, crashFrom)
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
	spec := faultRig(o, 10*time.Second)
	warm := spec.loadStart() + 500*time.Millisecond

	timeline := &stats.Table{
		Title:  "Recovery: committed throughput (tx/s) per 500ms bucket around the crash window",
		XLabel: "t(s)",
	}
	summary := &stats.Table{
		Title: "Recovery summary (rows: 1=baseline tx/s, 2=dip floor tx/s, " +
			"3=dip depth %, 4=time-to-recover ms, 5=victim head, 6=live head, " +
			"7=stripes rejected, 8=refetches, 9=quarantines, 10=spares taken — " +
			"rows 7-9 are the Byzantine-hardening counters and must be zero " +
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
		s.Trace = obs.NewTracer(simnet.Epoch)
		res, err := runRecovery(s)
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", sc.name, err)
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
		timeline.Series = append(timeline.Series, timelineSeries(sc.name, res.buckets, s.bucket, s.end()))

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
		sum.Add(10, float64(res.spares))
		summary.Series = append(summary.Series, sum)
		if n := res.rejected + res.refetches + res.quarantines +
			res.undecodable + res.equivocations; n != 0 {
			return nil, fmt.Errorf("recovery %s: benign crash moved Byzantine counters (%d)",
				sc.name, n)
		}

		// Per-stage latency breakdown: dissemination stages absorb the
		// outage (stripe_distributed/fullnode_delivered tails stretch while
		// the victim is down) without moving the consensus-side stages.
		st := s.Trace.StageTable()
		st.Title = sc.name + " — " + st.Title
		stageTables = append(stageTables, st)
		if o.Obs != nil {
			o.Obs.Trace = s.Trace
		}
	}
	return append([]*stats.Table{timeline, summary}, stageTables...), nil
}
