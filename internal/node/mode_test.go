package node

import (
	"fmt"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/pbft"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// TestCommitModeFollowsEngine: Stream alone selects stream mode, and the
// PBFT window, the drain and the proposal-clocked seal follow from it and
// the engine — as node.New derived them when the window was an option
// every stream caller set to 16.
func TestCommitModeFollowsEngine(t *testing.T) {
	RegisterAllMessages()
	for _, c := range []struct {
		engine EngineKind
		stream bool
		window int // PBFT's; 0 for HotStuff
		drain  bool
		sealed uint64 // bundles sealed by two submissions before any proposal
	}{
		{EnginePBFT, false, 1, false, 0},
		{EnginePBFT, true, 16, false, 1},
		{EngineHotStuff, false, 0, false, 0},
		{EngineHotStuff, true, 0, true, 2},
	} {
		name := fmt.Sprintf("%v stream=%v", c.engine, c.stream)
		net := simnet.New(simnet.Config{
			Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
			Latency: simnet.LANLatency(), Seed: 1,
		})
		suite := crypto.NewSimSuite(4, 7)
		nodes := make([]*Node, 4)
		for i := range nodes {
			n, err := New(Config{
				Mode: ModePredis, Engine: c.engine, NC: 4, F: 1,
				Self: wire.NodeID(i), Signer: suite.Signer(i),
				BundleSize: 50, BundleInterval: 20 * time.Millisecond,
				Stream: c.stream,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = n
			net.AddNode(wire.NodeID(i), n)
		}
		net.Start()
		if e, ok := nodes[0].Engine().(*pbft.Engine); ok && e.Window() != c.window {
			t.Errorf("%s: PBFT window %d, want %d", name, e.Window(), c.window)
		}
		// A parent whose cut the committed head has not reached, and
		// nothing new to cut: only a draining proposer builds a block.
		parent := &core.PredisBlock{Height: 1, Cuts: make([]core.Cut, 4)}
		parent.Cuts[0].Height = 1
		if _, _, ok := nodes[1].Predis().BuildProposal(2, parent); ok != c.drain {
			t.Errorf("%s: drain block built %v, want %v", name, ok, c.drain)
		}
		// Block mode waits for the tick; stream mode seals on arrival,
		// but under a paced engine only once per proposal.
		p := nodes[2].Predis()
		p.SubmitTx(types.NewTransaction(500, 1, 512, 0))
		p.SubmitTx(types.NewTransaction(500, 2, 512, 0))
		if sealed, _, _ := p.Stats(); sealed != c.sealed {
			t.Errorf("%s: two submissions sealed %d bundles, want %d", name, sealed, c.sealed)
		}
	}
}
