package workload_test

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// crashRun drives four P-PBFT Predis nodes with four round-robin clients
// under the 2 s resubmission timer, optionally with consensus node 2 down
// for 1.5 s mid-load, and returns the clients and how often node 1 (never
// down) committed each (client, seq).
func crashRun(t *testing.T, crash bool) ([]*workload.Client, map[[2]uint64]int) {
	t.Helper()
	node.RegisterAllMessages()
	const nc, f = 4, 1
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: 5,
	})
	suite := crypto.NewSimSuite(nc, 11)
	commits := make(map[[2]uint64]int)
	targets := make([]wire.NodeID, nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
		cfg := node.Config{
			Mode: node.ModePredis, Engine: node.EnginePBFT,
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer: suite.Signer(i), BundleSize: 50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    time.Second,
			ReplyToClients: true,
		}
		if i == 1 {
			cfg.OnCommit = func(_ uint64, txs []*types.Transaction) {
				for _, tx := range txs {
					commits[[2]uint64{uint64(tx.Client), tx.Seq}]++
				}
			}
		}
		n, err := node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		net.AddNode(targets[i], n)
	}
	if crash {
		faults.Install(net, faults.Schedule{Seed: 1, Actions: []faults.Action{
			faults.CrashWindow{Node: 2, From: 2 * time.Second, To: 3500 * time.Millisecond},
		}})
	}
	clients := make([]*workload.Client, 4)
	for k := range clients {
		clients[k] = workload.NewClient(workload.ClientConfig{
			Self: wire.NodeID(1000 + k), Targets: targets, Policy: workload.RoundRobin,
			Rate: 250, TxSize: types.DefaultTxSize, F: f,
			Epoch:         simnet.Epoch,
			GenStart:      simnet.Epoch.Add(50 * time.Millisecond),
			GenStop:       simnet.Epoch.Add(5 * time.Second),
			ResubmitAfter: 2 * time.Second,
		})
		net.AddNode(clients[k].ID(), clients[k])
	}
	net.Start()
	net.Run(9 * time.Second)
	return clients, commits
}

// TestCrashResubmitsOnEvidence: a consensus node is down for 1.5 s under
// load, so the transactions sent to it meanwhile are lost. Once it is back
// and a later transaction sent to it commits, its clients resend them on
// that evidence. Every transaction commits exactly once, and the same run
// without the crash resends nothing.
func TestCrashResubmitsOnEvidence(t *testing.T) {
	for _, crash := range []bool{true, false} {
		clients, commits := crashRun(t, crash)
		var submitted, onEvidence, onTimer uint64
		for _, cl := range clients {
			e, tm := cl.Resubmits()
			onEvidence, onTimer = onEvidence+e, onTimer+tm
			submitted += cl.Submitted()
			if n := cl.PendingCount(); n != 0 {
				t.Errorf("crash %v: client %d has %d transactions unconfirmed", crash, cl.ID(), n)
			}
		}
		for key, n := range commits {
			if n != 1 {
				t.Errorf("crash %v: client %d seq %d committed %d times", crash, key[0], key[1], n)
			}
		}
		if uint64(len(commits)) != submitted {
			t.Errorf("crash %v: %d transactions committed, %d submitted", crash, len(commits), submitted)
		}
		switch {
		case crash && onEvidence == 0:
			t.Errorf("no resends on evidence after a crash (%d on the timer)", onTimer)
		case !crash && onEvidence+onTimer != 0:
			t.Errorf("fault-free run resent %d on evidence, %d on the timer", onEvidence, onTimer)
		}
		t.Logf("crash %v: %d submitted, resent %d on evidence and %d on the timer", crash, submitted, onEvidence, onTimer)
	}
}
