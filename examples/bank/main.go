// Bank: a payment ledger replicated with Predis-on-PBFT (P-PBFT), built by
// harness.Deploy with its sim keys. Every transaction carries a transfer
// between two of 16 accounts, drawn uniformly (a Zipf generator at θ = 0);
// each replica executes committed blocks on its own exec.Machine, and the
// program verifies at the end that all four replicas reached the same
// height and state root — the state-machine-replication guarantee built on
// Theorem 3.3 (identical candidate blocks).
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"os"
	"time"

	"predis/internal/exec"
	"predis/internal/harness"
	"predis/internal/node"
	"predis/internal/workload"
)

const (
	nc       = 4
	accounts = 16
	genesis  = 1000 // every account's opening balance
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bank:", err)
		os.Exit(1)
	}
}

func run() error {
	machines := make([]*exec.Machine, nc)
	dep, err := harness.Deploy{
		System: harness.SysPPBFT, NC: nc, ViewTimeout: time.Second,
		Offered: 800, Load: 3 * time.Second, Seed: 7,
		Ops: workload.NewZipfOps(workload.ZipfConfig{Accounts: accounts, Amount: 5, Seed: 99}).Op,
		Host: func(cfg *node.Config) {
			machines[cfg.Self] = exec.NewMachine(genesis)
			cfg.Executor = machines[cfg.Self]
		},
	}.Build()
	if err != nil {
		return err
	}

	fmt.Println("bank: replicating transfers over P-PBFT…")
	dep.Net.Start()
	dep.Net.Run(dep.End + 2*time.Second) // the load, then drain in-flight blocks

	ref := machines[0]
	for i, m := range machines[1:] {
		if m.Height() != ref.Height() || m.StateRoot() != ref.StateRoot() {
			return fmt.Errorf("replica %d at height %d, root %s; replica 0 at height %d, root %s",
				i+1, m.Height(), m.StateRoot().Short(), ref.Height(), ref.StateRoot().Short())
		}
	}
	st := ref.Stats()
	fmt.Printf("all %d replicas executed %d blocks (%d transfers applied, %d aborted) and agree (state root %s)\n",
		nc, ref.Height(), st.Applied, st.Aborted, ref.StateRoot().Short())
	fmt.Println("sample balances at replica 0:")
	for a := uint64(0); a < 4; a++ {
		fmt.Printf("  account %2d: %d\n", a, ref.Balance(a))
	}
	if st.Applied == 0 {
		return fmt.Errorf("nothing committed")
	}
	return nil
}
