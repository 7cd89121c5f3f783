// Quickstart: a four-node Predis-on-HotStuff (P-HS) network running in the
// deterministic simulator, built by harness.Deploy with its sim keys.
// Clients offer 1,000 tx/s for three simulated seconds; the program prints
// committed blocks and the final throughput/latency summary.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/harness"
	"predis/internal/node"
	"predis/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	var dep *harness.Deployment
	dep, err := harness.Deploy{
		System: harness.SysPHS, NC: 4, ViewTimeout: time.Second,
		Offered: 1000, Load: 3 * time.Second, Seed: 1,
		Host: func(cfg *node.Config) {
			if cfg.Self != 0 { // one replica narrates
				return
			}
			record := cfg.OnCommit
			cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
				fmt.Printf("  block %-3d committed with %3d txs at t=%v\n",
					height, len(txs), dep.Net.Elapsed().Round(time.Millisecond))
				record(height, txs)
			}
		},
	}.Build()
	if err != nil {
		return err
	}

	fmt.Println("quickstart: 4-node P-HS, 1000 tx/s offered for 3s (simulated)")
	res := dep.Run()
	sub, confirmed, committed, _ := dep.Col.Counts()
	fmt.Printf("\nmeasured over the last 3/4 of the load: submitted=%d confirmed=%d committed=%d blocks=%d\n",
		sub, confirmed, committed, res.Blocks)
	fmt.Printf("throughput=%.0f tx/s  latency: mean=%v p50=%v p99=%v\n",
		res.Throughput, res.Latency.Mean.Round(time.Millisecond),
		res.Latency.P50.Round(time.Millisecond), res.Latency.P99.Round(time.Millisecond))
	if confirmed == 0 {
		return fmt.Errorf("no transactions confirmed")
	}
	return nil
}
