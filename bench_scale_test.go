package predis_test

// Scale benchmarks: how much does one simulated second of a large-population
// deployment cost in wall-clock time and allocations?
//
// BenchmarkScaleNaive1k is the per-client shape: one workload.Client per
// logical client (a timer per client per tick, a pending map per client)
// and four star sources, each the root of a one-level harness.Tree over
// its share of the population. BenchmarkScaleAggregated1k/10k drive the
// same offered load through one workload.Client at the combined rate and
// fan the same blocks over the population through one shared-slice 8-ary
// tree. The allocs/op ratio between the two 1k rows is the headline
// (go test -run '^$' -bench Scale -benchmem .).

import (
	"testing"
	"time"

	"predis/internal/harness"
	"predis/internal/simnet"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"

	"predis/internal/env"
)

// countingRoot absorbs submitted transactions and counts them; it stands in
// for the consensus core so the benchmark measures population cost, not
// consensus cost.
type countingRoot struct {
	txs uint64
}

func (r *countingRoot) Start(ctx env.Context) {}

func (r *countingRoot) Receive(from wire.NodeID, m wire.Message) {
	switch m.(type) {
	case *types.SubmitTx:
		r.txs++
	default:
	}
}

// scaleNet is the benchmarks' network: 100 Mbps NICs, 2 ms latency.
func scaleNet() *simnet.Network {
	topology.RegisterMessages()
	types.RegisterMessages()
	return simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.UniformLatency(2 * time.Millisecond),
		Seed:    1,
	})
}

// scaleClient submits rate tx/s to node 0 for one simulated second.
func scaleClient(self wire.NodeID, rate float64) *workload.Client {
	return workload.NewClient(workload.ClientConfig{
		Self:     self,
		Targets:  []wire.NodeID{0},
		Policy:   workload.FirstOnly,
		Rate:     rate,
		TxSize:   types.DefaultTxSize,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch,
		GenStop:  simnet.Epoch.Add(time.Second),
	})
}

// runScaleNaive simulates one virtual second of a 1000-node population the
// per-client way: four star sources, each a one-level tree over a quarter
// of the nodes, and 1000 individual clients each running its own tick
// timer.
func runScaleNaive(b *testing.B, nodes, clients int) {
	const sources = 4
	net := scaleNet()
	root := &countingRoot{}
	net.AddNode(0, root)

	stars := make([][]wire.NodeID, sources)
	for i := range stars {
		stars[i] = []wire.NodeID{wire.NodeID(1 + i)}
	}
	for i := 0; i < nodes; i++ {
		stars[i%sources] = append(stars[i%sources], wire.NodeID(100+i))
	}
	srcs := make([]*harness.TreeRelay, sources)
	for i, order := range stars {
		tree := harness.NewTree(order, len(order)-1)
		for _, id := range order[1:] {
			net.AddNode(id, harness.NewTreeRelay(tree, nil))
		}
		srcs[i] = harness.NewTreeRelay(tree, nil)
		net.AddNode(order[0], srcs[i])
	}

	for k := 0; k < clients; k++ {
		net.AddNode(wire.NodeID(10000+k), scaleClient(wire.NodeID(10000+k), 2)) // 2 tx/s per logical client
	}
	net.Start()
	// One block published per 250ms of the simulated second.
	for blk := 1; blk <= 4; blk++ {
		for i, src := range srcs {
			src.Publish(uint64(blk), wire.NodeID(1+i), 64<<10)
		}
		net.Run(time.Duration(blk) * 250 * time.Millisecond)
	}
	net.RunUntilIdle(0)
	if root.txs == 0 {
		b.Fatal("no transactions reached the root")
	}
}

func BenchmarkScaleNaive1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleNaive(b, 1000, 1000)
	}
}

// runScaleAggregated simulates the same offered load the aggregated way:
// one workload.Client at the combined rate standing in for all logical
// clients (one timer per tick total) and a shared-slice 8-ary multicast
// tree fanning the same four 64 KB blocks over the same population.
func runScaleAggregated(b *testing.B, nodes, clients int) {
	net := scaleNet()
	order := make([]wire.NodeID, nodes+1)
	for i := range order {
		order[i] = wire.NodeID(i) // position 0 (id 0) is the root
	}
	tree := harness.NewTree(order, 8)
	root := &treeRoot{relay: harness.NewTreeRelay(tree, nil)}
	net.AddNode(order[0], root)
	for _, id := range order[1:] {
		net.AddNode(id, harness.NewTreeRelay(tree, nil))
	}
	net.AddNode(wire.NodeID(1<<20), scaleClient(wire.NodeID(1<<20), 2*float64(clients))) // same aggregate 2 tx/s per logical client
	net.Start()
	for blk := 1; blk <= 4; blk++ {
		root.relay.Publish(uint64(blk), order[0], 64<<10)
		net.Run(time.Duration(blk) * 250 * time.Millisecond)
	}
	net.RunUntilIdle(0)
	if root.txs == 0 {
		b.Fatal("no transactions reached the root")
	}
}

// treeRoot is the tree root plus transaction sink.
type treeRoot struct {
	relay *harness.TreeRelay
	txs   uint64
}

func (r *treeRoot) Start(ctx env.Context) { r.relay.Start(ctx) }

func (r *treeRoot) Receive(from wire.NodeID, m wire.Message) {
	switch m.(type) {
	case *types.SubmitTx:
		r.txs++
	default:
		r.relay.Receive(from, m)
	}
}

func BenchmarkScaleAggregated1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleAggregated(b, 1000, 1000)
	}
}

func BenchmarkScaleAggregated10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runScaleAggregated(b, 10000, 10000)
	}
}
