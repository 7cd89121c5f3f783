// Faults: four failure scenarios from the paper, end to end. Scenario 1
// drives the core data structures with Ed25519 keys; scenarios 2–4 are
// harness.Deploy deployments (sim keys) under a faults schedule.
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
	"strings"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/faults"
	"predis/internal/harness"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/types"
	"predis/internal/wire"
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
	const nc = 4
	commits := make([]int, nc)
	dep, err := harness.Deploy{
		System: harness.SysPPBFT, NC: nc, BundleSize: 25, ViewTimeout: time.Second,
		Offered: 300, Load: 6 * time.Second, Seed: 5,
		Host: func(cfg *node.Config) {
			self, record := cfg.Self, cfg.OnCommit
			cfg.OnCommit = func(height uint64, txs []*types.Transaction) {
				commits[self] += len(txs)
				if record != nil {
					record(height, txs)
				}
			}
		},
	}.Build()
	if err != nil {
		return err
	}

	// The view-0 leader says nothing for the whole run.
	faults.Install(dep.Net, faults.Schedule{Actions: []faults.Action{
		faults.Silent{Node: 0, To: dep.End + time.Second}}})
	fmt.Println("  node 0 leads view 0 but is silent; followers must replace it…")
	dep.Net.Start()
	dep.Net.Run(dep.End + time.Second)

	v := dep.Hosts[1].Engine().View()
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
	d := zone(21)
	victim := d.Fulls[0].ID // first joiner: claims stripes, relays
	dists := make([]*multizone.Distributor, d.NC)
	d.Host = func(cfg *node.Config) { dists[cfg.Self] = cfg.Dist.(*multizone.Distributor) }
	dep, inj, err := build(d, faults.CrashWindow{Node: victim, From: crashAt, To: restartAt})
	if err != nil {
		return err
	}
	net, fulls := dep.Net, dep.Fulls

	// Timeline probe: every second, report who relays, whom each consensus
	// node streams to, and where the victim's chain head is relative to the
	// zone. A finer probe records whether any distributor that streamed to
	// the victim before the crash dropped it during the outage.
	var streamed []int
	net.At(crashAt-time.Millisecond, func() {
		for i, dist := range dists {
			if slices.Contains(dist.Subscribers(), victim) {
				streamed = append(streamed, i)
			}
		}
	})
	dropped := false
	for at := crashAt; at < restartAt; at += 10 * time.Millisecond {
		net.At(at, func() {
			for _, i := range streamed {
				dropped = dropped || !slices.Contains(dists[i].Subscribers(), victim)
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
	for s := 1; s <= int(dep.End/time.Second); s++ {
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
			streams := make([][]wire.NodeID, len(dists))
			for i, dist := range dists {
				streams[i] = dist.Subscribers()
			}
			fmt.Printf("  t=%2.0fs  relayers=%v  streams=%v  victim head=%3d (%s)  live head=%3d\n",
				at.Seconds(), relayers(), streams, v.LastHeight(), state, live)
		})
	}

	fmt.Printf("  victim %d is the zone's first relayer; crash window [%v, %v)\n",
		victim, crashAt, restartAt)
	net.Start()
	net.Run(dep.End)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(inj.TraceString()))

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
	d := zone(23)
	evil := d.Fulls[0].ID // first joiner: claims stripes, so its forgeries fan out widest
	dep, inj, err := build(d, faults.CorruptStripe{Node: evil, From: attackFrom, To: attackTo})
	if err != nil {
		return err
	}

	fmt.Printf("  node %d's outgoing stripes are forged during [%v, %v)\n",
		evil, attackFrom, attackTo)
	dep.Net.Start()
	dep.Net.Run(dep.End)

	fmt.Println("  fault schedule trace:")
	fmt.Print(indent(inj.TraceString()))

	fulls := dep.Fulls
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

// zone is the deployment scenarios 3 and 4 share: four P-PBFT consensus
// nodes, one zone of six full nodes 100..105 joining 20 ms apart, and
// 300 tx/s of load for 12 s.
func zone(seed int64) harness.Deploy {
	return harness.Deploy{
		System: harness.SysPPBFT, NC: 4, Fulls: harness.ZoneMajor(1, 6),
		BundleSize: 25, ViewTimeout: time.Second, JoinSpacing: 20 * time.Millisecond,
		AliveInterval: 200 * time.Millisecond, DigestInterval: time.Second,
		Offered: 300, Load: 12 * time.Second, Seed: seed,
	}
}

// build builds d and installs a fault schedule of one action, seeded like
// the network.
func build(d harness.Deploy, fault faults.Action) (*harness.Deployment, *faults.Injector, error) {
	dep, err := d.Build()
	if err != nil {
		return nil, nil, err
	}
	return dep, faults.Install(dep.Net, faults.Schedule{Seed: d.Seed, Actions: []faults.Action{fault}}), nil
}

// indent prefixes every line of a fault trace.
func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n    ") + "\n"
}
