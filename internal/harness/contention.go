package harness

import (
	"encoding/binary"
	"fmt"
	"time"

	"predis/internal/crypto"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/stats"
	"predis/internal/workload"
)

// execGenesis is the genesis balance of every account in the harness's
// execution-plane deployments. Against contentionAmount-sized transfers
// it leaves room for a hot account to drain into deterministic aborts
// within a run.
const execGenesis = 1000

// contentionAmount is the per-transfer amount (and RMW delta).
const contentionAmount = 50

// contentionSpec is one point of the contention sweep: a skew shape for
// the semantic workload.
type contentionSpec struct {
	name string
	zipf workload.ZipfConfig
}

// contentionScenarios sweeps conflict rate from conflict-free to a
// single global hotspot.
func contentionScenarios(seed int64) []contentionSpec {
	return []contentionSpec{
		{"uniform-4096", workload.ZipfConfig{
			Accounts: 4096, Theta: 0, RMWFrac: 0.1,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"zipf0.9-1024", workload.ZipfConfig{
			Accounts: 1024, Theta: 0.9, RMWFrac: 0.1,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"zipf1.2-256", workload.ZipfConfig{
			Accounts: 256, Theta: 1.2, RMWFrac: 0.2,
			Amount: contentionAmount, Seed: uint64(seed)}},
		{"hotspot-64", workload.ZipfConfig{
			Accounts: 64, Theta: 0.9, HotFrac: 0.35, RMWFrac: 0.2,
			Amount: contentionAmount, Seed: uint64(seed)}},
	}
}

// contentionResult is one run's outcome.
type contentionResult struct {
	// tps is consensus-side committed throughput.
	tps float64
	// stats aggregates the observer machine's lifetime counters.
	stats exec.Stats
	// roots maps height → state root, recorded from every executing
	// node; rootsAgree is false if any two nodes disagreed at a height.
	roots      map[uint64]crypto.Hash
	rootsAgree bool
	// ledgerOK reports that every persisted ledger entry's StateRoot
	// matches the root the executors computed at that height.
	ledgerOK bool
}

// runContention runs one contention deployment: a P-HS consensus group
// whose four nodes each execute committed blocks on their own account
// machine, plus a small zone of full nodes — one persisting the chain
// with state roots — under a skewed semantic workload.
func runContention(o Options, zipf workload.ZipfConfig) (contentionResult, error) {
	offered, load := 3000.0, 5*time.Second
	if o.Quick {
		offered, load = 1200, 2*time.Second
	}

	res := contentionResult{
		roots:      make(map[uint64]crypto.Hash),
		rootsAgree: true,
		ledgerOK:   true,
	}
	// recordRoot cross-checks every executing node's root at a height:
	// the committed sequence is deterministic, so disagreement means the
	// execution plane diverged.
	recordRoot := func(r exec.Result) {
		if prev, ok := res.roots[r.Height]; ok {
			if prev != r.StateRoot {
				res.rootsAgree = false
			}
			return
		}
		res.roots[r.Height] = r.StateRoot
	}

	// One small zone of full nodes; the first persists the chain (with
	// state roots) to an in-memory ledger and executes on its own
	// machine, so the persisted chain is cross-checked against the
	// consensus-side executors.
	led := ledger.New()
	var observer *exec.Machine // consensus node 0's
	dep, err := Deploy{
		System: SysPHS, NC: 4, Fulls: ZoneMajor(1, 2),
		ViewTimeout:   2 * time.Second,
		AliveInterval: 300 * time.Millisecond,
		JoinSpacing:   20 * time.Millisecond,
		Offered:       offered, Load: load, Seed: o.seed(),
		Ops:    workload.NewZipfOps(zipf).Op,
		Replay: o.Replay,
		Host: func(cfg *node.Config) {
			cfg.Executor = exec.NewMachine(execGenesis)
			cfg.OnExecute = recordRoot
			if cfg.Self == 0 {
				observer = cfg.Executor
			}
		},
		Full: func(cfg *multizone.FullNodeConfig) {
			cfg.Executor = exec.NewMachine(execGenesis)
			cfg.OnExecute = recordRoot
			if cfg.JoinSeq == 0 {
				cfg.Ledger = led
			}
		},
	}.Build()
	if err != nil {
		return res, err
	}
	dep.Net.Start()
	dep.Net.Run(dep.End)

	res.tps = dep.Col.Throughput()
	res.stats = observer.Stats()
	for h := uint64(1); h <= uint64(led.Len()); h++ {
		e, err := led.Get(h)
		if err != nil {
			return res, err
		}
		if root, ok := res.roots[e.Height]; !ok || root != e.StateRoot {
			res.ledgerOK = false
		}
	}
	return res, nil
}

// Contention sweeps workload skew against the execution plane and
// checks that the consensus hosts, the full nodes and the persisted
// ledger agree on the state root at every height (exec's tests pin the
// committer to an in-test oracle that applies each operation in commit
// order). The dependency-level width columns report the parallelism the
// levelizer counts — what an Octopus-style levelized committer could run
// at once: conflict-free workloads collapse to one wide level per block,
// a global hotspot serializes into many narrow ones. The rows skip
// number 2 so that each keeps the number EXPERIMENTS.md cites.
func Contention(o Options) ([]*stats.Table, error) {
	tbl := &stats.Table{
		Title: "Contention: parallel execution under skew (rows: " +
			"1=parallel tx/s, 3=mean level width, 4=max width, " +
			"5=abort %, 6=roots agree (1=yes), 7=state-root fingerprint)",
		XLabel: "row",
	}
	for _, spec := range contentionScenarios(o.seed()) {
		res, err := runContention(o, spec.zipf)
		if err != nil {
			return nil, fmt.Errorf("contention %s: %w", spec.name, err)
		}
		var lastRoot crypto.Hash
		var lastHeight uint64
		for h, root := range res.roots {
			if h > lastHeight {
				lastHeight, lastRoot = h, root
			}
		}

		st := res.stats
		abortPct := 0.0
		if st.Txs > 0 {
			abortPct = 100 * float64(st.Aborted) / float64(st.Txs)
		}
		s := &stats.Series{Name: spec.name}
		s.Add(1, res.tps)
		s.Add(3, st.MeanWidth())
		s.Add(4, float64(st.MaxWidth))
		s.Add(5, abortPct)
		if res.rootsAgree && res.ledgerOK {
			s.Add(6, 1)
		} else {
			s.Add(6, 0)
		}
		s.Add(7, float64(binary.BigEndian.Uint32(lastRoot[:4])))
		tbl.Series = append(tbl.Series, s)
	}
	return []*stats.Table{tbl}, nil
}
