package harness

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// overloadRun is one zone of two relayers under a P-PBFT group of four at
// 4 000 tx/s. With slow set both full nodes get a sixth of the downlink:
// each takes half of the stripes through the other, so relayed stripes
// cross two backlogged links, blocks overtake them, and the full nodes
// fall back on pulling bundles — the wan16_ladder overload in small.
type overloadRun struct {
	confirmed      workloadSummary
	pulls, bundles uint64
	hash           string
}

type workloadSummary struct {
	count    int
	p50, p99 time.Duration
}

func runOverload(t *testing.T, slow bool, seed int64) overloadRun {
	t.Helper()
	const nc, f = 4, 1
	// 40 Mbps consensus uplinks: busy enough, like wan16_ladder's, for
	// pulled bundles to compete with consensus traffic.
	consensusUp := simnet.Mbps100 * 2 / 5
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: seed,
	})
	trace := NewReplayTrace()
	trace.Attach(net)
	duration := 8 * time.Second
	col := workload.NewCollector(simnet.Epoch.Add(duration/4), simnet.Epoch.Add(duration))
	suite := crypto.NewSimSuite(nc, uint64(seed)+7)
	striper, err := multizone.NewStriper(nc, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nc; i++ {
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: nc, F: f, Self: wire.NodeID(i), Signer: suite.Signer(i),
			Engine: node.EnginePBFT, BundleSize: 50, BundleInterval: 20 * time.Millisecond,
			ViewTimeout: 2 * time.Second, Striper: striper, ReplyToClients: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.AddNodeRates(wire.NodeID(i), host, consensusUp, simnet.Mbps100)
	}
	fulls := make([]*multizone.FullNode, 2)
	for k := range fulls {
		fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
			Self: wire.NodeID(100 + k), JoinSeq: uint64(k), NC: nc, F: f,
			Striper: striper, Signer: suite.Signer(0),
			ZonePeers:     []wire.NodeID{wire.NodeID(101 - k)},
			AliveInterval: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		fulls[k] = fn
		down := simnet.Mbps100
		if slow {
			down /= 6
		}
		net.AddNodeRates(fn.ID(), &multizone.Delayed{Inner: fn, Delay: time.Duration(k) * 60 * time.Millisecond},
			simnet.Mbps100, down)
	}
	targets := []wire.NodeID{0, 1, 2, 3}
	for k := 0; k < 2; k++ {
		net.AddNode(wire.NodeID(5000+k), workload.NewClient(workload.ClientConfig{
			Self: wire.NodeID(5000 + k), Targets: targets, Policy: workload.RoundRobin,
			Rate: 2000, TxSize: types.DefaultTxSize, F: f, Epoch: simnet.Epoch,
			GenStart: simnet.Epoch.Add(300 * time.Millisecond), GenStop: simnet.Epoch.Add(duration),
			Collector: col,
		}))
	}
	net.Start()
	net.Run(duration)

	lat := col.Latency()
	run := overloadRun{confirmed: workloadSummary{lat.Count, lat.P50, lat.P99}, hash: trace.Sum()}
	for _, fn := range fulls {
		reqs, bundles, _, _ := fn.PullStats()
		run.pulls += reqs
		run.bundles += bundles
		if fn.LastHeight() == 0 {
			t.Fatalf("full node %d completed nothing", fn.ID())
		}
	}
	return run
}

// TestFullNodeOverloadDoesNotReachConsensus is the decoupling invariant
// Multi-Zone promises (§IV): what the full-node population does must not
// show in consensus. Saturating a zone's full nodes makes them pull
// hundreds of bundles from the consensus group; the confirmed latency the
// clients see has to stay within 5 % of the same seed's unthrottled run.
// (Asking whoever sent the block, as the parent commit did, puts 47 % of
// twice as many bundles on one consensus node: p50 +14 %, p99 +54…72 %.)
func TestFullNodeOverloadDoesNotReachConsensus(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		calm, loaded := runOverload(t, false, seed), runOverload(t, true, seed)
		if calm.pulls != 0 {
			t.Fatalf("seed %d: the unthrottled run pulled %d times; it is no baseline", seed, calm.pulls)
		}
		if loaded.bundles < 200 {
			t.Fatalf("seed %d: the throttled run pulled only %d bundles; it is not overloaded", seed, loaded.bundles)
		}
		if loaded.confirmed.count < calm.confirmed.count*99/100 {
			t.Errorf("seed %d: %d transactions confirmed under overload, %d without", seed, loaded.confirmed.count, calm.confirmed.count)
		}
		for _, m := range []struct {
			name         string
			calm, loaded time.Duration
		}{{"p50", calm.confirmed.p50, loaded.confirmed.p50}, {"p99", calm.confirmed.p99, loaded.confirmed.p99}} {
			if m.loaded > m.calm+m.calm/20 {
				t.Errorf("seed %d: confirmed %s %v with the full nodes overloaded, %v without: more than 5 %% apart",
					seed, m.name, m.loaded, m.calm)
			}
		}
		t.Logf("seed %d: confirmed p99 %v calm, %v with %d pulls for %d bundles", seed,
			calm.confirmed.p99, loaded.confirmed.p99, loaded.pulls, loaded.bundles)
	}
}

// TestOverloadedDeploymentReplays: the overloaded deployment — every retry
// timer, rotation and suppressed need of the fetch plane in play — is
// byte-identical across two runs of one seed.
func TestOverloadedDeploymentReplays(t *testing.T) {
	a, b := runOverload(t, true, 3), runOverload(t, true, 3)
	if a.hash != b.hash || a.pulls != b.pulls || a.confirmed != b.confirmed {
		t.Fatalf("same-seed overloaded runs diverged: %+v vs %+v", a, b)
	}
	if a.pulls == 0 {
		t.Fatal("the overloaded run never pulled")
	}
}
