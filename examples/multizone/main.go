// Multizone: a two-zone Multi-Zone network over P-PBFT. Full nodes join
// one by one and place themselves by their zone's membership: member k of
// a zone relays stripe index k straight from consensus node k, and every
// other member subscribes each index it wants from that index's relayer.
// They exchange erasure-coded stripes and reconstruct every committed block
// from the tiny Predis block plus their local bundle chains. The program
// prints the relayer topology and each zone's block completion progress,
// and fails unless each zone has exactly one relayer per index.
//
//	go run ./examples/multizone
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multizone:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		nc       = 4
		f        = 1
		zones    = 2
		perZone  = 5
		duration = 6 * time.Second
	)
	node.RegisterAllMessages()
	multizone.RegisterMessages()

	striper, err := multizone.NewStriper(nc, f)
	if err != nil {
		return err
	}
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: 3,
	})
	suite := crypto.NewEd25519Suite(nc, 55)

	var committed int
	for i := 0; i < nc; i++ {
		i := i
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         node.EnginePBFT,
			BundleSize:     50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    time.Second,
			Striper:        striper,
			OnCommit: func(height uint64, txs int) {
				if i == 0 {
					committed += txs
				}
			},
		})
		if err != nil {
			return err
		}
		net.AddNode(wire.NodeID(i), host)
	}

	// Full nodes: zone z gets IDs 100+z*100+k; they join 80 ms apart.
	fullID := func(z, k int) wire.NodeID { return wire.NodeID(100 + z*100 + k) }
	fulls := make(map[wire.NodeID]*multizone.FullNode)
	for z := 0; z < zones; z++ {
		var zonePeers []wire.NodeID
		for k := 0; k < perZone; k++ {
			zonePeers = append(zonePeers, fullID(z, k))
		}
		for k := 0; k < perZone; k++ {
			self := fullID(z, k)
			peers := make([]wire.NodeID, 0, perZone-1)
			for _, p := range zonePeers {
				if p != self {
					peers = append(peers, p)
				}
			}
			fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
				Self: self, Zone: z, JoinSeq: uint64(z*perZone + k),
				NC: nc, F: f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    []wire.NodeID{fullID((z+1)%zones, k)},
				AliveInterval:  250 * time.Millisecond,
				DigestInterval: time.Second,
				OnBlockComplete: func(blk *core.PredisBlock, txs int) {
					if self == fullID(z, perZone-1) { // last joiner narrates
						fmt.Printf("  zone %d ordinary node %d rebuilt block %d (%d txs) at t=%v\n",
							z, self, blk.Height, txs, net.Elapsed().Round(10*time.Millisecond))
					}
				},
			})
			if err != nil {
				return err
			}
			fulls[self] = fn
			delay := time.Duration(z*perZone+k) * 80 * time.Millisecond
			net.AddNode(self, &multizone.Delayed{Inner: fn, Delay: delay})
		}
	}

	net.AddNode(900, workload.NewClient(workload.ClientConfig{
		Self:     900,
		Targets:  []wire.NodeID{0, 1, 2, 3},
		Policy:   workload.RoundRobin,
		Rate:     600,
		TxSize:   types.DefaultTxSize,
		F:        f,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch.Add(time.Duration(zones*perZone)*80*time.Millisecond + 100*time.Millisecond),
		GenStop:  simnet.Epoch.Add(duration),
	}))

	fmt.Printf("multizone: %d zones × %d full nodes over %d consensus nodes\n", zones, perZone, nc)
	net.Start()
	net.Run(duration + 2*time.Second)

	fmt.Printf("\nconsensus committed %d txs; relayer topology:\n", committed)
	for z := 0; z < zones; z++ {
		fmt.Printf("  zone %d:\n", z)
		relayers := make([]int, nc) // relayers per stripe index
		for k := 0; k < perZone; k++ {
			fn := fulls[fullID(z, k)]
			stripes, bundles, blocks := fn.Stats()
			role := "ordinary"
			if fn.IsRelayer() {
				role = fmt.Sprintf("relayer%v", fn.RelayedStripes())
			}
			fmt.Printf("    node %-3d %-12s stripes=%-5d bundles=%-4d blocks=%d\n",
				fullID(z, k), role, stripes, bundles, blocks)
			if blocks == 0 {
				return fmt.Errorf("node %d completed no blocks", fullID(z, k))
			}
			for _, s := range fn.RelayedStripes() {
				relayers[s]++
			}
		}
		for s, n := range relayers {
			if n != 1 {
				return fmt.Errorf("zone %d has %d relayers of stripe %d, want 1", z, n, s)
			}
		}
	}
	return nil
}
