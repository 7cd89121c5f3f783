package harness

import (
	"fmt"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/gossip"
	"predis/internal/multizone"
	"predis/internal/stats"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
)

// Fig. 8 measures block propagation latency across ~100 full nodes for
// the star topology, the random topology with FEG gossip, and Multi-Zone
// with 3 and 12 zones, at block sizes from 1 MB to 40 MB. Per the paper's
// setup, star and random ship complete blocks when a block is produced,
// while Multi-Zone pre-distributes bundle stripes continuously and ships
// only the tiny Predis block at production time.

// propPercentiles are the coverage points reported per topology.
var propPercentiles = []float64{25, 50, 75, 90, 100}

// latencyAtCoverage converts per-node arrival delays into latency at each
// coverage percentage.
func latencyAtCoverage(delays []time.Duration, total int) map[float64]time.Duration {
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	out := make(map[float64]time.Duration, len(propPercentiles))
	for _, p := range propPercentiles {
		k := int(float64(total)*p/100+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(delays) {
			if len(delays) < total {
				continue // coverage never reached
			}
			k = len(delays) - 1
		}
		out[p] = delays[k]
	}
	return out
}

// fig8Spec configures one propagation measurement.
type fig8Spec struct {
	nc, f     int
	fullNodes int
	blockMB   int
	blocks    int
	seed      int64
}

// runFig8Star publishes complete blocks from consensus nodes to attached
// full nodes — one one-level Tree per consensus node — and reports
// per-coverage latency averaged over blocks.
func runFig8Star(spec fig8Spec) (map[float64]time.Duration, error) {
	net := newNet(spec.seed, false, nil)
	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)
	onBlock := func(height uint64, at time.Time) {
		arrivals[height] = append(arrivals[height], at.Sub(published[height]))
	}

	fulls := make([]wire.NodeID, spec.fullNodes)
	for i := range fulls {
		fulls[i] = wire.NodeID(100 + i)
	}
	trees := starTrees(spec.nc, fulls)
	for i, id := range fulls {
		net.AddNode(id, NewTreeRelay(trees[i%spec.nc], onBlock))
	}
	roots := make([]*TreeRelay, spec.nc)
	for i, tree := range trees {
		roots[i] = NewTreeRelay(tree, nil)
		net.AddNode(wire.NodeID(i), roots[i])
	}
	net.Start()

	size := spec.blockMB << 20
	interval := blockInterval(spec.blockMB)
	for b := 1; b <= spec.blocks; b++ {
		h := uint64(b)
		published[h] = net.Now()
		for i, root := range roots {
			root.Publish(h, wire.NodeID(i), size) // every consensus node ships the complete block
		}
		net.Run(net.Elapsed() + interval)
	}
	net.Run(net.Elapsed() + 4*interval)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// runFig8Random disseminates complete blocks over a degree-8 random graph
// with FEG-style gossip (fanout 4 + digest/pull).
func runFig8Random(spec fig8Spec) (map[float64]time.Duration, error) {
	net := newNet(spec.seed, false, nil)
	total := spec.nc + spec.fullNodes
	adj := randomAdjacency(total, 8, spec.seed)
	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)

	nodes := make([]*gossip.Node, total)
	for i := 0; i < total; i++ {
		i := i
		var onBlock func(uint64, time.Time)
		if i >= spec.nc { // measure at full nodes only
			onBlock = func(height uint64, at time.Time) {
				arrivals[height] = append(arrivals[height], at.Sub(published[height]))
			}
		}
		nodes[i] = gossip.New(gossip.Config{
			Self:           wire.NodeID(i),
			Neighbors:      adj[i],
			Fanout:         4,
			DigestInterval: 500 * time.Millisecond,
			OnBlock:        onBlock,
		})
		net.AddNode(wire.NodeID(i), nodes[i])
	}
	net.Start()

	size := spec.blockMB << 20
	interval := blockInterval(spec.blockMB)
	for b := 1; b <= spec.blocks; b++ {
		h := uint64(b)
		published[h] = net.Now()
		for i := 0; i < spec.nc; i++ {
			nodes[i].Seed(&topology.BlockData{Height: h, Origin: wire.NodeID(i), Size: uint32(size)})
		}
		net.Run(net.Elapsed() + interval)
	}
	net.Run(net.Elapsed() + 4*interval)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// randomAdjacency builds a connected degree-d random graph.
func randomAdjacency(n, d int, seed int64) [][]wire.NodeID {
	adj := make([]map[wire.NodeID]bool, n)
	for i := range adj {
		adj[i] = make(map[wire.NodeID]bool)
	}
	link := func(a, b int) {
		if a != b {
			adj[a][wire.NodeID(b)] = true
			adj[b][wire.NodeID(a)] = true
		}
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		for len(adj[i]) < d {
			link(i, next(n))
		}
	}
	out := make([][]wire.NodeID, n)
	for i, set := range adj {
		for id := range set {
			out[i] = append(out[i], id)
		}
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	return out
}

// runFig8MultiZone streams bundles as stripes continuously and measures
// how long a tiny Predis block plus local reassembly takes to complete a
// block at every full node.
func runFig8MultiZone(spec fig8Spec, zones int) (map[float64]time.Duration, error) {
	striper, err := multizone.NewStriper(spec.nc, spec.f)
	if err != nil {
		return nil, err
	}
	net := newNet(spec.seed, false, nil)
	suite := crypto.NewSimSuite(spec.nc, uint64(spec.seed)+31)

	arrivals := make(map[uint64][]time.Duration)
	published := make(map[uint64]time.Time)

	// Consensus-side sources: produce bundles, exchange them, stripe them
	// to subscribers, and commit the Predis blocks source 0 cuts.
	sources := make([]*fig8Source, spec.nc)
	for i := range sources {
		src := &fig8Source{self: wire.NodeID(i), dist: multizone.NewDistributor(wire.NodeID(i), striper)}
		src.p, err = core.NewPredis(core.Options{
			Params: core.Params{
				NC: spec.nc, F: spec.f, BundleSize: fig8BundleSize,
				BundleInterval: fig8NoTick,
				Signer:         suite.Signer(i),
				KeepConfirmed:  64,
			},
			Self: src.self,
			Dist: src.dist,
		})
		if err != nil {
			return nil, err
		}
		sources[i] = src
		net.AddNode(src.self, src)
	}

	// Full nodes dealt over the zones, joining incrementally.
	zoned := Deploy{
		NC: spec.nc, Fulls: roundRobin(spec.fullNodes, zones),
		AliveInterval: 300 * time.Millisecond, DigestInterval: 2 * time.Second,
		JoinSpacing: 15 * time.Millisecond,
		Full: func(cfg *multizone.FullNodeConfig) {
			cfg.MaxSubscribers = 24 // §V-B: equalize bandwidth with the random topology
			cfg.OnBlockComplete = func(blk *core.PredisBlock, txs int) {
				if pub, ok := published[blk.Height]; ok {
					arrivals[blk.Height] = append(arrivals[blk.Height], net.Now().Sub(pub))
				}
			}
		},
	}
	if _, err := zoned.addZones(net, striper, suite.Signer(0)); err != nil {
		return nil, err
	}
	net.Start()
	// Let the subscription mesh settle.
	settle := time.Duration(spec.fullNodes)*zoned.JoinSpacing + 2*time.Second
	net.Run(settle)

	bundleBytes := fig8BundleSize * types.DefaultTxSize
	bundlesPerBlock := (spec.blockMB << 20) / bundleBytes
	perSource := (bundlesPerBlock + spec.nc - 1) / spec.nc
	interval := blockInterval(spec.blockMB)

	var parent wire.Message // the last committed block; nil before the first
	for b := 1; b <= spec.blocks; b++ {
		// Pre-distribute the block's bundles (this is continuous traffic in
		// steady state; its cost is *not* part of block propagation).
		for k := 0; k < perSource; k++ {
			for _, src := range sources {
				src.seal()
			}
			// Pace production so uplinks are not modeled as infinitely
			// deep queues.
			net.Run(net.Elapsed() + time.Duration(float64(interval)/float64(perSource+1)))
		}
		// One tip-exchange round so the leader can prove availability.
		for _, src := range sources {
			src.seal()
		}
		net.Run(net.Elapsed() + 300*time.Millisecond)

		leader := sources[0]
		payload, _, ok := leader.p.BuildProposal(leader.p.LastHeight()+1, parent)
		if !ok {
			return nil, fmt.Errorf("fig8: leader could not cut a block at height %d", b)
		}
		blk := payload.(*core.PredisBlock)
		published[blk.Height] = net.Now()
		for _, src := range sources[1:] {
			leader.ctx.Send(src.self, blk)
		}
		leader.p.OnCommit(blk.Height, blk)
		parent = blk
		net.Run(net.Elapsed() + interval/2)
	}
	net.Run(net.Elapsed() + 30*time.Second)
	return averageCoverage(arrivals, spec.fullNodes), nil
}

// fig8BundleSize is the sources' bundle size, and fig8NoTick their
// BundleInterval: longer than any run, because the figure fixes the
// production schedule (§V-B) and the tick must never seal a heartbeat.
const (
	fig8BundleSize = 50
	fig8NoTick     = 24 * time.Hour
)

// fig8Source is one of Fig. 8's consensus nodes: a core.Predis and its
// Multi-Zone distributor, driven by the figure's schedule in place of a
// consensus engine. Fig. 8 measures only the distribution layer, and the
// paper does the same by fixing the block production schedule.
type fig8Source struct {
	self  wire.NodeID
	p     *core.Predis
	dist  *multizone.Distributor
	ctx   env.Context
	txSeq uint64
}

// Start implements env.Handler.
func (s *fig8Source) Start(ctx env.Context) {
	s.ctx = ctx
	s.dist.Start(ctx)
	s.p.Start(ctx)
}

// Receive implements env.Handler: a block is committed, the zone plane
// goes to the distributor, and the rest to Predis.
func (s *fig8Source) Receive(from wire.NodeID, m wire.Message) {
	if blk, ok := m.(*core.PredisBlock); ok {
		s.p.OnCommit(blk.Height, blk)
	} else if m.Type()&0xff00 == wire.TypeRangeZone {
		s.dist.Receive(from, m)
	} else {
		s.p.Receive(from, m)
	}
}

// seal submits one bundle of synthetic transactions, which Predis seals at
// once: stored (so striped to subscribers) and sent to the other sources.
func (s *fig8Source) seal() {
	for i := 0; i < fig8BundleSize; i++ {
		s.txSeq++
		s.p.SubmitTx(types.NewTransaction(9000+s.self, s.txSeq, types.DefaultTxSize, time.Duration(s.txSeq)))
	}
}

// averageCoverage averages per-block coverage latencies across blocks.
func averageCoverage(arrivals map[uint64][]time.Duration, total int) map[float64]time.Duration {
	sums := make(map[float64]time.Duration)
	counts := make(map[float64]int)
	for _, delays := range arrivals {
		cov := latencyAtCoverage(delays, total)
		for p, d := range cov {
			sums[p] += d
			counts[p]++
		}
	}
	out := make(map[float64]time.Duration)
	for p, s := range sums {
		out[p] = s / time.Duration(counts[p])
	}
	return out
}

// blockInterval scales the production interval with block size so
// pre-distribution is feasible at 100 Mbps.
func blockInterval(blockMB int) time.Duration {
	switch {
	case blockMB <= 1:
		return 4 * time.Second
	case blockMB <= 5:
		return 12 * time.Second
	case blockMB <= 20:
		return 40 * time.Second
	default:
		return 80 * time.Second
	}
}

// Fig8 reproduces the propagation-latency comparison.
func Fig8(o Options) ([]*stats.Table, error) {
	blockSizes := []int{1, 5, 20, 40}
	fullNodes := 100
	blocks := 3
	zoneVariants := []int{3, 12}
	if o.Quick {
		blockSizes = []int{1, 5}
		fullNodes = 36
		blocks = 1
		zoneVariants = []int{3}
	}
	// Flatten (blockSize × topology-variant) into one batch for the
	// worker pool; each job runs its own simnet.Network and returns one
	// coverage series.
	type job struct {
		mb   int
		name string
		run  func(fig8Spec) (map[float64]time.Duration, error)
	}
	var jobs []job
	for _, mb := range blockSizes {
		jobs = append(jobs,
			job{mb, "star", runFig8Star},
			job{mb, "random-FEG", runFig8Random})
		for _, z := range zoneVariants {
			z := z
			jobs = append(jobs, job{mb, fmt.Sprintf("multizone-%dz", z),
				func(s fig8Spec) (map[float64]time.Duration, error) {
					return runFig8MultiZone(s, z)
				}})
		}
	}
	series, err := parRun(len(jobs), o.parallel(), func(i int) (*stats.Series, error) {
		j := jobs[i]
		spec := fig8Spec{nc: 8, f: 2, fullNodes: fullNodes, blockMB: j.mb, blocks: blocks, seed: o.seed()}
		cov, err := j.run(spec)
		if err != nil {
			return nil, err
		}
		return coverageSeries(j.name, cov), nil
	})
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	idx := 0
	for _, mb := range blockSizes {
		tbl := &stats.Table{
			Title:  fmt.Sprintf("Fig.8 propagation latency (ms) at %d MB blocks, %d full nodes", mb, fullNodes),
			XLabel: "%nodes",
		}
		perSize := 2 + len(zoneVariants)
		tbl.Series = append(tbl.Series, series[idx:idx+perSize]...)
		idx += perSize
		tables = append(tables, tbl)
	}
	return tables, nil
}

func coverageSeries(name string, cov map[float64]time.Duration) *stats.Series {
	s := &stats.Series{Name: name}
	for _, p := range propPercentiles {
		if d, ok := cov[p]; ok {
			s.Add(p, float64(d)/float64(time.Millisecond))
		}
	}
	return s
}
