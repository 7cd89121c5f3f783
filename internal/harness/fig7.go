package harness

import (
	"fmt"
	"time"

	"predis/internal/env"
	"predis/internal/node"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// starHost couples a P-PBFT consensus node with the root of its star: a
// one-level Tree that ships every committed block, in full, to the full
// nodes attached to it.
type starHost struct {
	n     *node.Node
	relay *TreeRelay
}

var _ env.Handler = (*starHost)(nil)

func (h *starHost) Start(ctx env.Context) {
	h.relay.Start(ctx)
	h.n.Start(ctx)
}

func (h *starHost) Receive(from wire.NodeID, m wire.Message) { h.n.Receive(from, m) }

// runFig7Point measures consensus throughput with full-node distribution
// attached: Multi-Zone as d describes it, or — star — the same group,
// load and timeline with every consensus node shipping complete blocks to
// the full nodes attached to it round-robin (their zones play no part).
func runFig7Point(d Deploy, star bool) (float64, error) {
	if !star {
		dep, err := d.Build()
		if err != nil {
			return 0, err
		}
		return dep.Run().Throughput, nil
	}

	fulls := make([]wire.NodeID, len(d.Fulls))
	for i, s := range d.Fulls {
		fulls[i] = s.ID
	}
	trees := starTrees(d.NC, fulls)
	roots := make([]*TreeRelay, d.NC)
	for i := range roots {
		roots[i] = NewTreeRelay(trees[i], nil)
	}
	d.Host = func(cfg *node.Config) {
		self, commit := cfg.Self, cfg.OnCommit
		cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
			roots[self].Publish(height, self, types.TotalBytes(txs))
			if commit != nil {
				commit(height, txs)
			}
		}
	}
	dep := d.deployment()
	if err := d.group(dep, nil); err != nil {
		return 0, err
	}
	for i, n := range dep.Hosts {
		dep.Net.AddNode(wire.NodeID(i), &starHost{n: n, relay: roots[i]})
	}
	for i, id := range fulls {
		dep.Net.AddNode(id, NewTreeRelay(trees[i%d.NC], nil))
	}
	d.addLoad(dep, d.NC)
	return dep.Run().Throughput, nil
}

// Fig7 reproduces "Effect on Throughput": offered load fixed (26,000 tx/s
// in the paper), sweeping the number of full nodes, comparing the star
// topology against Multi-Zone, for two consensus group sizes.
func Fig7(o Options) ([]*stats.Table, error) {
	fullCounts := []int{8, 16, 24, 36, 48}
	ncs := []int{4, 8}
	zones := 4
	offered := 26000.0
	duration := 6 * time.Second
	if o.Quick {
		fullCounts = []int{8, 24}
		ncs = []int{4}
		offered = 12000
		duration = 3 * time.Second
	}
	tbl := &stats.Table{
		Title:  "Fig.7 consensus throughput (tx/s) vs number of full nodes",
		XLabel: "fullNodes",
	}
	// Flatten (nc × fullCount × {star, multizone}) into one batch for the
	// worker pool; each point is an independent simulation.
	var points []Deploy
	for _, nc := range ncs {
		for _, n := range fullCounts {
			points = append(points, Deploy{
				System: SysPPBFT, NC: nc, Fulls: roundRobin(n, zones),
				ViewTimeout:   2 * time.Second,
				AliveInterval: 300 * time.Millisecond, DigestInterval: 2 * time.Second,
				JoinSpacing: 20 * time.Millisecond,
				Offered:     offered, Load: duration, Seed: o.seed(),
			})
		}
	}
	results, err := parRun(2*len(points), o.parallel(), func(i int) (float64, error) {
		return runFig7Point(points[i/2], i%2 == 0)
	})
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, nc := range ncs {
		star := &stats.Series{Name: fmt.Sprintf("star-nc%d", nc)}
		mz := &stats.Series{Name: fmt.Sprintf("multizone-nc%d", nc)}
		for _, n := range fullCounts {
			star.Add(float64(n), results[idx])
			mz.Add(float64(n), results[idx+1])
			idx += 2
		}
		tbl.Series = append(tbl.Series, star, mz)
	}
	return []*stats.Table{tbl}, nil
}
