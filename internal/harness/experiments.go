package harness

import (
	"fmt"
	"sort"

	"predis/internal/stats"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks durations and sweep sizes so the whole suite runs in
	// roughly a minute; full mode approaches the paper's configurations.
	Quick bool
	// Seed drives every simulation in the experiment.
	Seed int64
	// Obs, when non-nil, receives the observability artifacts (tracer,
	// metrics registry, simnet sampler) from experiments that support
	// them; see ObsSink.
	Obs *ObsSink
	// Parallel caps how many independent experiment points run
	// concurrently (wall-clock only; each point owns its own
	// simnet.Network, so per-point results and replay hashes are
	// unaffected). 0 or 1 means sequential.
	Parallel int
	// Replay, when non-nil, is attached to the network of experiments
	// that support it — quickstart, recovery, byzantine, contention and
	// latfloor; predis-bench -replay refers here for the list — so every
	// delivery is folded into the trace and external callers (predis-bench
	// -replay, tools/replaydiff) can assert cross-process hash equality.
	// The sweep experiments leave it untouched — their points run
	// concurrently under Parallel, so a single shared trace would fold
	// deliveries in nondeterministic order. latfloor drops to sequential
	// execution when Replay is set, for the same reason.
	Replay *ReplayTrace
	// Stream switches the experiments StreamExperiments names to
	// streaming commit: producers expose running bundle-chain cursors and
	// consensus orders cursor advances; full nodes receive each block at
	// commit, as in block mode. Off (the default), every experiment is
	// byte-for-byte its historical block-mode self. The other experiments
	// ignore it; latfloor contrasts both modes itself.
	Stream bool
}

// StreamExperiments names the experiments that Options.Stream switches to
// streaming commit.
var StreamExperiments = []string{"quickstart"}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) parallel() int {
	if o.Parallel < 1 {
		return 1
	}
	return o.Parallel
}

// Experiment regenerates one figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) ([]*stats.Table, error)
}

// Registry lists every experiment, in figure order.
func Registry() []Experiment {
	return []Experiment{
		{"quickstart", "Quickstart: P-HS + Multi-Zone pipeline with per-stage latency breakdown", Quickstart},
		{"fig4a", "Fig. 4(a): PBFT vs P-PBFT, bundle/batch sizes (WAN, nc=4)", Fig4a},
		{"fig4b", "Fig. 4(b): HotStuff vs P-HS, bundle/batch sizes (WAN, nc=4)", Fig4b},
		{"fig4c", "Fig. 4(c): PBFT vs P-PBFT scalability (nc=4,8,16)", Fig4c},
		{"fig4d", "Fig. 4(d): HotStuff vs P-HS scalability (nc=4,8,16)", Fig4d},
		{"fig5wan", "Fig. 5(a,b): Predis vs Narwhal vs Stratus (WAN)", Fig5WAN},
		{"fig5lan", "Fig. 5(c,d): Predis vs Narwhal vs Stratus (LAN)", Fig5LAN},
		{"fig6", "Fig. 6: Predis under faults (nc=8)", Fig6},
		{"fig7", "Fig. 7: Multi-Zone vs star topology throughput", Fig7},
		{"fig8", "Fig. 8: block propagation latency (star/random/Multi-Zone)", Fig8},
		{"recovery", "Recovery: relayer & leader crash/restart — dip depth and time-to-recover", Recovery},
		{"byzantine", "Byzantine: data-plane adversaries — Eq. 4 delivery sweep, attack windows, self-healing", Byzantine},
		{"contention", "Contention: deterministic parallel execution vs serial under workload skew", Contention},
		// New experiments append at the end: quick_results.txt refreshes
		// add their sections without perturbing the existing ones.
		{"scale", "Scale: 10⁴–10⁵-node population — delivery latency and flow throughput, deep vs shallow trees", Scale},
		{"latfloor", "Latency floor: block vs streaming commit (P-PBFT, LAN+WAN) — confirmed latency, throughput parity", LatencyFloor},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}
