package harness

import (
	"math/rand"
	"time"

	"predis/internal/core"
	"predis/internal/faults"
	"predis/internal/pbft"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// Fig6 reproduces "Predis under Faults": nc = 8, with f ∈ {0, 1, 2}
// malicious nodes behaving per case 1 (silent: no bundles, no votes) or
// case 2 (refuse to vote, send bundles to only n_c−f−1 peers). Both are
// fault schedules on the injector; the protocol itself stays honest code.
// The paper reports case-1 throughput ≈ (8−f)/8 of normal and case-2
// throughput between case 1 and normal with higher latency.
func Fig6(o Options) ([]*stats.Table, error) {
	const nc = 8
	duration := 6 * time.Second
	offered := 16000.0
	if o.Quick {
		duration = 3 * time.Second
		offered = 10000
	}
	// Every point is this deployment; the faults last as long as its load.
	d := Deploy{
		System: SysPPBFT, NC: nc, Offered: offered, Load: duration, Seed: o.seed(),
	}
	end := d.end()
	// adversary returns the schedule of faulty node id among f of them.
	type adversary func(id wire.NodeID, f int) []faults.Action
	silent := func(id wire.NodeID, _ int) []faults.Action {
		return []faults.Action{faults.Silent{Node: id, To: end}}
	}
	rng := rand.New(rand.NewSource(o.seed()))
	partial := func(id wire.NodeID, f int) []faults.Action {
		// Its bundles skip f honest peers drawn from the seed, so each
		// reaches n_c−f−1 of them.
		victims := make([]wire.NodeID, f)
		for i, k := range rng.Perm(nc - f)[:f] {
			victims[i] = wire.NodeID(k)
		}
		return partialSender(id, victims, end)
	}
	cases := []struct {
		name  string
		fault adversary
	}{
		{"normal", nil},
		{"case1-silent", silent},
		{"case2-partial", partial},
	}
	tput := &stats.Table{Title: "Fig.6 Predis under faults (nc=8) — throughput (tx/s) vs f", XLabel: "f"}
	lat := &stats.Table{Title: "Fig.6 Predis under faults (nc=8) — latency (ms) vs f", XLabel: "f"}
	// Flatten (case × f) into one worker-pool batch, remembering which
	// case/f each point belongs to so the series assemble in loop order.
	type pointKey struct {
		caseIdx int
		f       int
	}
	var keys []pointKey
	var schedules [][]faults.Action
	for ci, c := range cases {
		for _, f := range []int{0, 1, 2} {
			if c.fault == nil && f > 0 {
				continue // "normal" is a single reference point
			}
			var schedule []faults.Action
			for k := 0; k < f; k++ {
				// Faulty nodes are non-leaders so throughput, not view
				// changes, dominates the measurement (the paper's cases
				// keep the leader honest).
				schedule = append(schedule, c.fault(wire.NodeID(nc-1-k), f)...)
			}
			keys = append(keys, pointKey{ci, f})
			schedules = append(schedules, schedule)
		}
	}
	results, err := parRun(len(keys), o.parallel(), func(i int) (PointResult, error) {
		dep, err := d.Build()
		if err != nil {
			return PointResult{}, err
		}
		faults.Install(dep.Net, faults.Schedule{Seed: d.Seed, Actions: schedules[i]})
		return dep.Run(), nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		ts := &stats.Series{Name: c.name}
		ls := &stats.Series{Name: c.name}
		for i, k := range keys {
			if k.caseIdx != ci {
				continue
			}
			res := results[i]
			ts.Add(float64(k.f), res.Throughput)
			ls.Add(float64(k.f), float64(res.Latency.Mean)/float64(time.Millisecond))
		}
		tput.Series = append(tput.Series, ts)
		lat.Series = append(lat.Series, ls)
	}
	return []*stats.Table{tput, lat}, nil
}

// partialSender is Fig. 6's case-2 adversary on node id over [0, end): it
// neither proposes, votes nor confirms to clients, and its bundles never
// reach victims, who must fetch them.
func partialSender(id wire.NodeID, victims []wire.NodeID, end time.Duration) []faults.Action {
	return []faults.Action{
		faults.Withhold{Node: id, To: end, Types: []wire.Type{
			pbft.TypePrePrepare, pbft.TypePrepare, pbft.TypeCommit, types.TypeBlockReply}},
		faults.Withhold{Node: id, To: end, Types: []wire.Type{core.TypeBundle}, Victims: victims},
	}
}
