// Multizone: a two-zone Multi-Zone network over P-PBFT, built by
// harness.Deploy with its sim keys. Full nodes join one by one and place
// themselves by their zone's membership: member k of a zone relays stripe
// index k straight from consensus node k, and every other member
// subscribes each index it wants from that index's relayer. They exchange
// erasure-coded stripes and reconstruct every committed block from the
// tiny Predis block plus their local bundle chains. The program prints the
// relayer topology and each zone's block completion progress, and fails
// unless each zone has exactly one relayer per index and every full node
// completes blocks.
//
//	go run ./examples/multizone
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/core"
	"predis/internal/harness"
	"predis/internal/multizone"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multizone:", err)
		os.Exit(1)
	}
}

func run() error {
	const nc, zones, perZone = 4, 2, 5
	// Zone z's members are 100+100z+k, joining 80 ms apart, zone 0 first;
	// each has one backup, the member of the other zone at its own rank.
	var dep *harness.Deployment
	dep, err := harness.Deploy{
		System: harness.SysPPBFT, NC: nc, Fulls: harness.ZoneMajor(zones, perZone),
		ViewTimeout: time.Second, JoinSpacing: 80 * time.Millisecond,
		AliveInterval: 250 * time.Millisecond, DigestInterval: time.Second,
		Offered: 600, Load: 5 * time.Second, Seed: 3,
		Full: func(cfg *multizone.FullNodeConfig) {
			if cfg.JoinSeq%perZone != perZone-1 { // each zone's last joiner narrates
				return
			}
			self, zone := cfg.Self, cfg.Zone
			cfg.OnBlockComplete = func(blk *core.PredisBlock, txs int) {
				fmt.Printf("  zone %d ordinary node %d rebuilt block %d (%d txs) at t=%v\n",
					zone, self, blk.Height, txs, dep.Net.Elapsed().Round(10*time.Millisecond))
			}
		},
	}.Build()
	if err != nil {
		return err
	}

	fmt.Printf("multizone: %d zones × %d full nodes over %d consensus nodes\n", zones, perZone, nc)
	dep.Net.Start()
	dep.Net.Run(dep.End + 2*time.Second)

	_, _, committed, _ := dep.Col.Counts()
	fmt.Printf("\nconsensus committed %d txs in the measured window; relayer topology:\n", committed)
	relayers := make([][]int, zones) // per zone, relayers per stripe index
	for i, fn := range dep.Fulls {
		z := i / perZone
		if i%perZone == 0 {
			fmt.Printf("  zone %d:\n", z)
			relayers[z] = make([]int, nc)
		}
		stripes, bundles, blocks := fn.Stats()
		role := "ordinary"
		if fn.IsRelayer() {
			role = fmt.Sprintf("relayer%v", fn.RelayedStripes())
		}
		fmt.Printf("    node %-3d %-12s stripes=%-5d bundles=%-4d blocks=%d\n",
			fn.ID(), role, stripes, bundles, blocks)
		if blocks == 0 {
			return fmt.Errorf("node %d completed no blocks", fn.ID())
		}
		for _, s := range fn.RelayedStripes() {
			relayers[z][s]++
		}
	}
	for z, counts := range relayers {
		for s, n := range counts {
			if n != 1 {
				return fmt.Errorf("zone %d has %d relayers of stripe %d, want 1", z, n, s)
			}
		}
	}
	return nil
}
