// Faults: four failure scenarios from the paper, end to end.
//
// Scenario 1 — forking attack (§III-E): a malicious producer signs two
// conflicting bundles at the same height. The first honest node to see
// both multicasts the evidence and every honest node bans the producer;
// later bundles from it are rejected and leaders stop cutting its chain.
//
// Scenario 2 — silent leader (§III-D): the view-0 leader neither produces
// bundles nor proposes. Followers' bundle timers expire, a view change
// elects the next leader, and the system resumes committing.
//
// Scenario 3 — relayer crash (§IV-C/IV-F): a zone's relayer fail-stops
// under a declarative fault schedule. Its lease lapses at the consensus
// distributors, which stop streaming to it; once its beacon expires, the
// placement rule hands its stripes to the next member of each stripe's
// candidate list, and when the crashed node restarts it applies the rule
// afresh and catches up the blocks it missed. The example prints the
// timeline, with each distributor's subscribers.
//
// Scenario 4 — corrupting relayer (§IV-B): the network forges every
// stripe a relayer sends during an attack window. Subscribers reject the
// stripes on Merkle-proof verification, refetch the damaged bundles from
// alternate holders, and quarantine the repeat offender behind a TTL
// blacklist; the zone keeps completing blocks throughout, and once the
// TTL lapses the (honest) node is re-admitted.
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

func main() {
	if err := forkingAttack(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := silentLeader(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := relayerCrash(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
	fmt.Println()
	if err := corruptingRelayer(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", err)
		os.Exit(1)
	}
}

// forkingAttack drives the core data structures directly: it forges an
// equivocation and shows detection, evidence verification, and banning.
func forkingAttack() error {
	fmt.Println("scenario 1: forking attack (conflicting bundles)")
	const nc, f = 4, 1
	suite := crypto.NewEd25519Suite(nc, 11)
	mp, err := core.NewMempool(core.Params{
		NC: nc, F: f, BundleSize: 10, Signer: suite.Signer(1),
	})
	if err != nil {
		return err
	}

	// The malicious producer (node 0) signs two different bundles that
	// both extend the genesis of its chain.
	mkTxs := func(base uint64) []*types.Transaction {
		out := make([]*types.Transaction, 3)
		for i := range out {
			out[i] = types.NewTransaction(99, base+uint64(i), 512, 0)
		}
		return out
	}
	tips := make(core.TipList, nc)
	tips[0] = 1
	a := core.PackBundle(suite.Signer(0), 0, nil, mkTxs(1), tips)
	b := core.PackBundle(suite.Signer(0), 0, nil, mkTxs(100), tips)

	if res, _, _, err := mp.AddBundle(a); err != nil || res != core.Added {
		return fmt.Errorf("first bundle: res=%v err=%v", res, err)
	}
	fmt.Printf("  honest node accepted bundle %s at height 1\n", a.Header.Hash().Short())

	res, evidence, _, err := mp.AddBundle(b)
	if err != nil || res != core.Conflicting {
		return fmt.Errorf("conflict not detected: res=%v err=%v", res, err)
	}
	fmt.Printf("  conflicting bundle %s detected → evidence built\n", b.Header.Hash().Short())
	if !evidence.Verify(suite.Signer(2)) {
		return fmt.Errorf("evidence failed verification at a third party")
	}
	fmt.Println("  any node can verify the evidence; producer 0 is banned")
	if !mp.Banned(0) {
		return fmt.Errorf("producer not banned")
	}
	next := core.PackBundle(suite.Signer(0), 0, &a.Header, mkTxs(200), tips)
	if _, _, _, err := mp.AddBundle(next); err == nil {
		return fmt.Errorf("banned producer's bundle accepted")
	}
	fmt.Println("  follow-up bundle from the banned producer rejected ✓")
	return nil
}

// silentLeader runs a live network whose first leader is silent.
func silentLeader() error {
	fmt.Println("scenario 2: silent leader → view change")
	const (
		nc       = 4
		f        = 1
		duration = 6 * time.Second
	)
	node.RegisterAllMessages()
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: 5,
	})
	suite := crypto.NewEd25519Suite(nc, 12)

	commits := make([]int, nc)
	nodes := make([]*node.Node, nc)
	for i := 0; i < nc; i++ {
		i := i
		n, err := node.New(node.Config{
			Mode:           node.ModePredis,
			Engine:         node.EnginePBFT,
			NC:             nc,
			F:              f,
			Self:           wire.NodeID(i),
			Signer:         suite.Signer(i),
			BundleSize:     25,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    time.Second,
			ReplyToClients: true,
			OnCommit: func(height uint64, txs []*types.Transaction) {
				commits[i] += len(txs)
			},
		})
		if err != nil {
			return err
		}
		nodes[i] = n
		net.AddNode(wire.NodeID(i), n)
	}
	net.AddNode(300, workload.NewClient(workload.ClientConfig{
		Self:     300,
		Targets:  []wire.NodeID{1, 2, 3}, // honest nodes only
		Policy:   workload.RoundRobin,
		Rate:     300,
		TxSize:   types.DefaultTxSize,
		F:        f,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch.Add(50 * time.Millisecond),
		GenStop:  simnet.Epoch.Add(duration),
	}))

	// The view-0 leader says nothing for the whole run.
	faults.Install(net, faults.Schedule{Actions: []faults.Action{
		faults.Silent{Node: 0, To: duration + time.Second}}})
	fmt.Println("  node 0 leads view 0 but is silent; followers must replace it…")
	net.Start()
	net.Run(duration + time.Second)

	v := nodes[1].Engine().View()
	fmt.Printf("  node 1 is now in view %d (0 would mean no view change)\n", v)
	if v == 0 {
		return fmt.Errorf("no view change happened")
	}
	for i := 1; i < nc; i++ {
		fmt.Printf("  node %d committed %d txs\n", i, commits[i])
		if commits[i] == 0 {
			return fmt.Errorf("node %d made no progress after the view change", i)
		}
	}
	fmt.Println("  liveness restored under the next leader ✓")
	return nil
}

// relayerCrash runs one Multi-Zone zone over a P-PBFT group, crashes the
// zone's first relayer through a scripted fault window, and narrates the
// recovery: heartbeat expiry, stripe hand-over to the next candidate,
// re-subscription after restart, and chain catch-up.
func relayerCrash() error {
	fmt.Println("scenario 3: relayer crash → hand-over → catch-up")
	crashAt, restartAt := 4*time.Second, 7*time.Second
	victim := zoneFull(0) // first joiner: claims stripes, relays
	z, err := buildZone(21, faults.CrashWindow{Node: victim, From: crashAt, To: restartAt})
	if err != nil {
		return err
	}
	net, hosts, fulls := z.net, z.hosts, z.fulls

	// Timeline probe: every second, report who relays, whom each consensus
	// node streams to, and where the victim's chain head is relative to the
	// zone. A finer probe records whether any distributor that streamed to
	// the victim before the crash dropped it during the outage.
	var streamed []int
	net.At(crashAt-time.Millisecond, func() {
		for i, h := range hosts {
			if slices.Contains(h.Dist.Subscribers(), victim) {
				streamed = append(streamed, i)
			}
		}
	})
	dropped := false
	for at := crashAt; at < restartAt; at += 10 * time.Millisecond {
		net.At(at, func() {
			for _, i := range streamed {
				dropped = dropped || !slices.Contains(hosts[i].Dist.Subscribers(), victim)
			}
		})
	}
	relayers := func() []wire.NodeID {
		var ids []wire.NodeID
		for _, fn := range fulls {
			if fn.IsRelayer() {
				ids = append(ids, fn.ID())
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for s := 1; s <= int(zoneRun/time.Second); s++ {
		at := time.Duration(s) * time.Second
		net.At(at, func() {
			var live uint64
			for _, fn := range fulls {
				if fn.ID() != victim && fn.LastHeight() > live {
					live = fn.LastHeight()
				}
			}
			v := fulls[0]
			state := "up"
			switch {
			case net.Crashed(victim):
				state = "CRASHED"
			case v.CatchingUp():
				state = "catching up"
			}
			streams := make([][]wire.NodeID, len(hosts))
			for i, h := range hosts {
				streams[i] = h.Dist.Subscribers()
			}
			fmt.Printf("  t=%2.0fs  relayers=%v  streams=%v  victim head=%3d (%s)  live head=%3d\n",
				at.Seconds(), relayers(), streams, v.LastHeight(), state, live)
		})
	}

	fmt.Printf("  victim %d is the zone's first relayer; crash window [%v, %v)\n",
		victim, crashAt, restartAt)
	net.Start()
	net.Run(zoneRun)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(z.inj.TraceString(), "    "))

	var live uint64
	for _, fn := range fulls {
		if fn.ID() != victim && fn.LastHeight() > live {
			live = fn.LastHeight()
		}
	}
	if len(streamed) == 0 || !dropped {
		return fmt.Errorf("consensus nodes %v streamed to victim %d and never dropped it during its outage", streamed, victim)
	}
	fmt.Printf("  consensus nodes %v dropped the crashed relayer within its outage\n", streamed)
	v := fulls[0]
	if v.LastHeight()+3 < live {
		return fmt.Errorf("victim stuck at height %d, live head %d", v.LastHeight(), live)
	}
	if v.CatchingUp() {
		return fmt.Errorf("catch-up still in flight at end of run")
	}
	fmt.Printf("  restarted relayer back at head %d (live %d), relayer=%v ✓\n",
		v.LastHeight(), live, v.IsRelayer())
	return nil
}

// corruptingRelayer shows the Byzantine data-plane hardening (§IV-B):
// reject on verification, refetch from alternates, quarantine the
// offender, keep completing blocks.
func corruptingRelayer() error {
	fmt.Println("scenario 4: corrupting relayer → reject → refetch → quarantine")
	attackFrom, attackTo := 4*time.Second, 7*time.Second
	evil := zoneFull(0) // first joiner: claims stripes, so its forgeries fan out widest
	z, err := buildZone(23, faults.CorruptStripe{Node: evil, From: attackFrom, To: attackTo})
	if err != nil {
		return err
	}
	net, fulls := z.net, z.fulls

	fmt.Printf("  node %d's outgoing stripes are forged during [%v, %v)\n",
		evil, attackFrom, attackTo)
	net.Start()
	net.Run(zoneRun)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(z.inj.TraceString(), "    "))

	var rejected, refetches, quarantines uint64
	for _, fn := range fulls {
		rj, rf, q, _ := fn.ByzStats()
		rejected += rj
		refetches += rf
		quarantines += q
	}
	if rejected == 0 || refetches == 0 || quarantines == 0 {
		return fmt.Errorf("attack went unpunished: rejected=%d refetches=%d quarantines=%d",
			rejected, refetches, quarantines)
	}
	var low, high uint64 = ^uint64(0), 0
	for _, fn := range fulls {
		h := fn.LastHeight()
		if h < low {
			low = h
		}
		if h > high {
			high = h
		}
	}
	fmt.Printf("  rejected=%d refetched=%d quarantined=%d; zone heads span [%d, %d] ✓\n",
		rejected, refetches, quarantines, low, high)
	return nil
}

// zoneRun is how long scenarios 3 and 4 run their zone.
const zoneRun = 12 * time.Second

// zoneFull is the ID of the k-th full node to join the zone.
func zoneFull(k int) wire.NodeID { return wire.NodeID(100 + k) }

// zone is the deployment scenarios 3 and 4 share: four P-PBFT consensus
// hosts, one zone of six full nodes joining 20 ms apart, one 300 tx/s
// client, and a fault schedule of one action.
type zone struct {
	net   *simnet.Network
	hosts []*multizone.ConsensusHost
	fulls []*multizone.FullNode
	inj   *faults.Injector
}

// buildZone builds the shared zone deployment; seed drives the network
// and the fault schedule.
func buildZone(seed int64, fault faults.Action) (*zone, error) {
	const (
		nc, f   = 4, 1
		perZone = 6
		rate    = 300.0
	)
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	z := &zone{net: simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: seed,
	})}
	suite := crypto.NewSimSuite(nc, 31)
	striper, err := multizone.NewStriper(nc, f)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nc; i++ {
		host, err := multizone.NewConsensusHost(multizone.HostConfig{
			NC: nc, F: f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         node.EnginePBFT,
			BundleSize:     25,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    time.Second,
			Striper:        striper,
			ReplyToClients: true,
		})
		if err != nil {
			return nil, err
		}
		z.hosts = append(z.hosts, host)
		z.net.AddNode(wire.NodeID(i), host)
	}
	for k := 0; k < perZone; k++ {
		peers := make([]wire.NodeID, 0, perZone-1)
		for p := 0; p < perZone; p++ {
			if p != k {
				peers = append(peers, zoneFull(p))
			}
		}
		fn, err := multizone.NewFullNode(multizone.FullNodeConfig{
			Self: zoneFull(k), Zone: 0, JoinSeq: uint64(k),
			NC: nc, F: f,
			Striper:        striper,
			Signer:         suite.Signer(0),
			ZonePeers:      peers,
			AliveInterval:  200 * time.Millisecond,
			DigestInterval: time.Second,
		})
		if err != nil {
			return nil, err
		}
		z.fulls = append(z.fulls, fn)
		z.net.AddNode(zoneFull(k), &multizone.Delayed{Inner: fn, Delay: time.Duration(k) * 20 * time.Millisecond})
	}

	z.inj = faults.Install(z.net, faults.Schedule{Seed: seed, Actions: []faults.Action{fault}})

	targets := make([]wire.NodeID, nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	z.net.AddNode(400, workload.NewClient(workload.ClientConfig{
		Self: 400, Targets: targets, Policy: workload.RoundRobin,
		Rate: rate, TxSize: types.DefaultTxSize, F: f,
		Epoch:    simnet.Epoch,
		GenStart: simnet.Epoch.Add(300 * time.Millisecond),
		GenStop:  simnet.Epoch.Add(zoneRun),
	}))
	return z, nil
}

// indent prefixes every line of s.
func indent(s, pre string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += pre + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += pre + s[start:] + "\n"
	}
	return out
}
