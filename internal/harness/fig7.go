package harness

import (
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/stats"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// starHost couples a P-PBFT consensus node with a star-topology source
// that ships every committed block, in full, to its attached full nodes.
type starHost struct {
	n   *node.Node
	src *topology.StarSource
}

var _ env.Handler = (*starHost)(nil)

func (h *starHost) Start(ctx env.Context) {
	h.src.Start(ctx)
	h.n.Start(ctx)
}

func (h *starHost) Receive(from wire.NodeID, m wire.Message) { h.n.Receive(from, m) }

// fig7Spec is one configuration point of Fig. 7.
type fig7Spec struct {
	nc, f     int
	fullNodes int
	zones     int // 0 = star topology
	offered   float64
	duration  time.Duration
	seed      int64
}

// runFig7Point measures consensus throughput with full-node distribution
// attached, for either topology.
func runFig7Point(spec fig7Spec) (float64, error) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	topology.RegisterMessages()

	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: spec.seed,
	})
	joinWindow := time.Duration(spec.fullNodes)*20*time.Millisecond + 200*time.Millisecond
	warm := simnet.Epoch.Add(joinWindow + spec.duration/4)
	end := simnet.Epoch.Add(joinWindow + spec.duration)
	col := workload.NewCollector(warm, end)

	suite := crypto.NewSimSuite(spec.nc, uint64(spec.seed)+7)
	fullIDs := make([]wire.NodeID, spec.fullNodes)
	for i := range fullIDs {
		fullIDs[i] = wire.NodeID(100 + i)
	}

	if spec.zones == 0 {
		// Star: attach full nodes round-robin to consensus nodes; each
		// consensus node sends complete blocks to its attachments.
		attached := make([][]wire.NodeID, spec.nc)
		for i, id := range fullIDs {
			attached[i%spec.nc] = append(attached[i%spec.nc], id)
		}
		for i := 0; i < spec.nc; i++ {
			i := i
			src := topology.NewStarSource(attached[i])
			n, err := node.New(node.Config{
				Mode: node.ModePredis, Engine: node.EnginePBFT,
				NC: spec.nc, F: spec.f, Self: wire.NodeID(i),
				Signer:         suite.Signer(i),
				BundleSize:     50,
				BundleInterval: 20 * time.Millisecond,
				ViewTimeout:    2 * time.Second,
				ReplyToClients: true,
				OnCommit: func(height uint64, txs []*types.Transaction) {
					src.Publish(height, wire.NodeID(i), types.TotalBytes(txs))
					if i == 0 {
						col.RecordNodeCommit(net.Now(), len(txs))
					}
				},
			})
			if err != nil {
				return 0, err
			}
			net.AddNode(wire.NodeID(i), &starHost{n: n, src: src})
		}
		for _, id := range fullIDs {
			net.AddNode(id, topology.NewSink(nil))
		}
	} else {
		striper, err := multizone.NewStriper(spec.nc, spec.f)
		if err != nil {
			return 0, err
		}
		for i := 0; i < spec.nc; i++ {
			i := i
			host, err := multizone.NewConsensusHost(multizone.HostConfig{
				NC: spec.nc, F: spec.f, Self: wire.NodeID(i),
				Signer:         suite.Signer(i),
				Engine:         node.EnginePBFT,
				BundleSize:     50,
				BundleInterval: 20 * time.Millisecond,
				ViewTimeout:    2 * time.Second,
				Striper:        striper,
				ReplyToClients: true,
				OnCommit: func(height uint64, txs int) {
					if i == 0 {
						col.RecordNodeCommit(net.Now(), txs)
					}
				},
			})
			if err != nil {
				return 0, err
			}
			net.AddNode(wire.NodeID(i), host)
		}
		// Full nodes spread over the zones, joining incrementally.
		perZone := make([][]wire.NodeID, spec.zones)
		for i, id := range fullIDs {
			z := i % spec.zones
			perZone[z] = append(perZone[z], id)
		}
		for i, id := range fullIDs {
			z := i % spec.zones
			peers := make([]wire.NodeID, 0, len(perZone[z])-1)
			for _, p := range perZone[z] {
				if p != id {
					peers = append(peers, p)
				}
			}
			var backups []wire.NodeID
			if spec.zones > 1 {
				other := perZone[(z+1)%spec.zones]
				if len(other) > 0 {
					backups = append(backups, other[i%len(other)])
				}
			}
			fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
				Self: id, Zone: z, JoinSeq: uint64(i),
				NC: spec.nc, F: spec.f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    backups,
				AliveInterval:  300 * time.Millisecond,
				DigestInterval: 2 * time.Second,
			})
			if err != nil {
				return 0, err
			}
			net.AddNode(id, &multizone.Delayed{Inner: fn, Delay: time.Duration(i) * 20 * time.Millisecond})
		}
	}

	targets := make([]wire.NodeID, spec.nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	clients := spec.nc
	for k := 0; k < clients; k++ {
		net.AddNode(wire.NodeID(5000+k), workload.NewClient(workload.ClientConfig{
			Self:      wire.NodeID(5000 + k),
			Targets:   targets,
			Policy:    workload.RoundRobin,
			Rate:      spec.offered / float64(clients),
			TxSize:    types.DefaultTxSize,
			F:         spec.f,
			Epoch:     simnet.Epoch,
			GenStart:  simnet.Epoch.Add(joinWindow),
			GenStop:   end,
			Collector: col,
		}))
	}

	net.Start()
	net.Run(joinWindow + spec.duration)
	return col.Throughput(), nil
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
	var specs []fig7Spec
	for _, nc := range ncs {
		f := (nc - 1) / 3
		for _, n := range fullCounts {
			specs = append(specs,
				fig7Spec{nc: nc, f: f, fullNodes: n, zones: 0,
					offered: offered, duration: duration, seed: o.seed()},
				fig7Spec{nc: nc, f: f, fullNodes: n, zones: zones,
					offered: offered, duration: duration, seed: o.seed()})
		}
	}
	results, err := parRun(len(specs), o.parallel(), func(i int) (float64, error) {
		return runFig7Point(specs[i])
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
