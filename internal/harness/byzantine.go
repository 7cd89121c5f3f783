package harness

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/faults"
	"predis/internal/multizone"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// This file is the Byzantine data-plane experiment: §IV-B's robustness
// analysis measured instead of assumed. Part one sweeps the malicious
// fraction f/N and the relayer redundancy n_zr and compares the measured
// stripe-delivery probability against Eq. 4's prediction. Part two opens
// scripted attack windows (stripe corruption, withholding, garbage
// frames, leader equivocation) over the full Multi-Zone deployment and
// measures the throughput dip, the time to recover, and the hardening
// counters (rejected stripes, refetches, quarantines, spares, proven
// equivocations) while the blacklist heals the distribution tree.

// stripePusher sends one prepared stripe to a subscriber at a fixed
// virtual time; a fault schedule may tamper with it in flight.
type stripePusher struct {
	to  wire.NodeID
	msg *multizone.StripeMsg
	at  time.Duration
}

func (p *stripePusher) Start(ctx env.Context) {
	ctx.After(p.at, func() { ctx.Send(p.to, p.msg) })
}
func (p *stripePusher) Receive(from wire.NodeID, m wire.Message) {}

// stripeSink verifies arriving stripes exactly as a full node's receive
// path does: header signature first, then the Merkle proof.
type stripeSink struct {
	striper *multizone.Striper
	signer  crypto.Signer
	ok      bool
}

func (s *stripeSink) Start(ctx env.Context) {}
func (s *stripeSink) Receive(from wire.NodeID, m wire.Message) {
	sm, isStripe := m.(*multizone.StripeMsg)
	if !isStripe {
		return
	}
	if !sm.Header.VerifySig(s.signer) {
		return
	}
	if s.striper.VerifyStripe(sm.Header.StripeRoot, sm) == nil {
		s.ok = true
	}
}

// deliveryTrial runs one tiny simulation: nzr relayers each push the same
// stripe to one subscriber; each relayer is independently malicious
// (stripe-corrupting) with probability pc. It reports whether at least
// one stripe survived verification — Eq. 4's event.
func deliveryTrial(striper *multizone.Striper, signer crypto.Signer,
	msg *multizone.StripeMsg, nzr int, pc float64, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(simnet.Config{
		Latency: simnet.UniformLatency(time.Millisecond), Seed: seed,
	})
	sink := &stripeSink{striper: striper, signer: signer}
	const sinkID = wire.NodeID(99)
	net.AddNode(sinkID, sink)
	var actions []faults.Action
	for i := 0; i < nzr; i++ {
		id := wire.NodeID(10 + i)
		net.AddNode(id, &stripePusher{to: sinkID, msg: msg,
			at: time.Duration(i+1) * 5 * time.Millisecond})
		if rng.Float64() < pc {
			actions = append(actions, faults.CorruptStripe{Node: id, From: 0, To: time.Second})
		}
	}
	faults.Install(net, faults.Schedule{Seed: seed, Actions: actions})
	net.Start()
	net.Run(200 * time.Millisecond)
	return sink.ok
}

// byzDeliverySweep is part one: measured delivery probability across the
// (f/N, n_zr) grid beside Eq. 4's prediction.
func byzDeliverySweep(o Options) (*stats.Table, error) {
	multizone.RegisterMessages()
	fracs := []float64{0, 0.125, 0.25, 0.375, 0.5}
	trials := 40
	if o.Quick {
		fracs = []float64{0, 0.25, 0.5}
		trials = 15
	}
	nzrs := []int{1, 2, 3}

	striper, err := multizone.NewStriper(4, 1)
	if err != nil {
		return nil, err
	}
	suite := crypto.NewSimSuite(4, uint64(o.seed())+7)
	txs := make([]*types.Transaction, 20)
	for i := range txs {
		txs[i] = types.NewTransaction(7, uint64(i), 256, time.Duration(i))
	}
	set, err := striper.Encode(txs)
	if err != nil {
		return nil, err
	}
	bundle := core.PackBundleStriped(suite.Signer(1), 1, nil, txs, make(core.TipList, 4), set.Root)
	// The producer's own stripe: a carrier of the signed header the sink
	// checks first.
	msg, err := set.Stripe(bundle.Header, 1)
	if err != nil {
		return nil, err
	}

	table := &stats.Table{
		Title: "Byzantine: stripe delivery probability, measured vs Eq. 4 " +
			"(pc = f/N, delivery = 1 - pc^n_zr)",
		XLabel: "f/N",
	}
	for _, nzr := range nzrs {
		measured := &stats.Series{Name: fmt.Sprintf("measured n_zr=%d", nzr)}
		predicted := &stats.Series{Name: fmt.Sprintf("eq4 n_zr=%d", nzr)}
		for fi, frac := range fracs {
			okCount := 0
			for tr := 0; tr < trials; tr++ {
				seed := o.seed()*1_000_003 + int64(nzr)*10_007 + int64(fi)*101 + int64(tr)
				if deliveryTrial(striper, suite.Signer(0), msg, nzr, frac, seed) {
					okCount++
				}
			}
			got := float64(okCount) / float64(trials)
			want := multizone.DeliveryProbability(frac, nzr)
			if math.Abs(got-want) > 0.25 {
				return nil, fmt.Errorf("byzantine: delivery probability off Eq. 4 at f/N=%.3f n_zr=%d: measured %.3f, predicted %.3f",
					frac, nzr, got, want)
			}
			measured.Add(frac, got)
			predicted.Add(frac, want)
		}
		table.Series = append(table.Series, measured, predicted)
	}
	return table, nil
}

// Byzantine is the data-plane adversary experiment. Beside the Eq. 4
// sweep it opens one attack window per adversary kind over the Fig. 7
// deployment and requires the hardening machinery to both detect the
// attack (nonzero counters of the right kind) and outrun it: committed
// throughput must return to within 5% of the pre-attack baseline before
// the run ends.
func Byzantine(o Options) ([]*stats.Table, error) {
	sweep, err := byzDeliverySweep(o)
	if err != nil {
		return nil, err
	}

	spec := faultRig(o, 12*time.Second)
	warm := spec.loadStart() + 500*time.Millisecond
	relayer := spec.Fulls[0].ID // first joiner of zone 0: claims stripes, relays

	scenarios := []struct {
		name      string
		consensus bool // observe consensus commits instead of zone completions
		actions   []faults.Action
		check     func(recoveryResult) error
	}{
		{
			name: "corrupt-stripes",
			actions: []faults.Action{faults.CorruptStripe{
				Node: relayer, From: spec.crashFrom, To: spec.crashTo}},
			check: func(r recoveryResult) error {
				if r.rejected == 0 || r.refetches == 0 || r.quarantines == 0 {
					return fmt.Errorf("corruption went unpunished: rejected=%d refetches=%d quarantines=%d",
						r.rejected, r.refetches, r.quarantines)
				}
				return nil
			},
		},
		{
			name: "withhold-stripes",
			actions: []faults.Action{faults.Withhold{
				Node: relayer, Types: []wire.Type{multizone.TypeStripe},
				From: spec.crashFrom, To: spec.crashTo}},
			check: func(r recoveryResult) error {
				if r.spares == 0 {
					return fmt.Errorf("the withholder's subscribers never took a spare")
				}
				return nil
			},
		},
		{
			name: "garbage-wire",
			actions: []faults.Action{faults.GarbageWire{
				Node: relayer, From: spec.crashFrom, To: spec.crashTo}},
			check: func(r recoveryResult) error {
				if r.undecodable == 0 {
					return fmt.Errorf("garbage frames were not counted as undecodable drops")
				}
				return nil
			},
		},
		{
			name:      "equivocate-leader",
			consensus: true,
			actions: []faults.Action{faults.EquivocateLeader{
				Node: 0, Signer: spec.signer(0),
				Victims: []wire.NodeID{2, 3},
				From:    spec.crashFrom, To: spec.crashTo}},
			check: func(r recoveryResult) error {
				if r.equivocations == 0 {
					return fmt.Errorf("equivocating leader never proven")
				}
				return nil
			},
		},
	}

	timeline := &stats.Table{
		Title:  "Byzantine: committed throughput (tx/s) per 500ms bucket around the attack window",
		XLabel: "t(s)",
	}
	summary := &stats.Table{
		Title: "Byzantine summary (rows: 1=baseline tx/s, 2=dip floor tx/s, " +
			"3=dip depth %, 4=time-to-recover ms, 5=post-attack tx/s as % of baseline)",
		XLabel: "row",
	}
	counters := &stats.Table{
		Title: "Byzantine hardening counters (rows: 1=stripes rejected, 2=refetches, " +
			"3=quarantines, 4=spares, 5=undecodable frames, 6=proven equivocations)",
		XLabel: "row",
	}
	for _, sc := range scenarios {
		s := spec
		s.victimConsensus = sc.consensus
		s.actions = sc.actions
		res, err := runRecovery(s)
		if err != nil {
			return nil, fmt.Errorf("byzantine %s: %w", sc.name, err)
		}
		if err := sc.check(res); err != nil {
			return nil, fmt.Errorf("byzantine %s: %w", sc.name, err)
		}

		timeline.Series = append(timeline.Series, timelineSeries(sc.name, res.buckets, s.bucket, s.end()))

		baseline, floor, dip, ttr := recoveryMetrics(res.buckets, s.bucket, warm, s.crashFrom, s.crashTo)
		if baseline <= 0 {
			return nil, fmt.Errorf("byzantine %s: no pre-attack baseline", sc.name)
		}
		// Self-healing acceptance: committed throughput after the window
		// (skipping one settle bucket) must come back to within 5% of the
		// pre-attack baseline.
		tail, tailN := meanRate(res.buckets, s.bucket, s.crashTo+s.bucket, s.end())
		if tailN == 0 {
			return nil, fmt.Errorf("byzantine %s: no post-attack buckets", sc.name)
		}
		tailPct := 100 * tail / baseline
		if tailPct < 95 {
			return nil, fmt.Errorf("byzantine %s: throughput stuck at %.1f%% of baseline after the attack window",
				sc.name, tailPct)
		}

		sum := &stats.Series{Name: sc.name}
		sum.Add(1, baseline)
		sum.Add(2, floor)
		sum.Add(3, dip)
		sum.Add(4, ttr)
		sum.Add(5, tailPct)
		summary.Series = append(summary.Series, sum)

		cs := &stats.Series{Name: sc.name}
		cs.Add(1, float64(res.rejected))
		cs.Add(2, float64(res.refetches))
		cs.Add(3, float64(res.quarantines))
		cs.Add(4, float64(res.spares))
		cs.Add(5, float64(res.undecodable))
		cs.Add(6, float64(res.equivocations))
		counters.Series = append(counters.Series, cs)
	}
	return []*stats.Table{sweep, timeline, summary, counters}, nil
}
