package multizone

import (
	"slices"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/faults"
	"predis/internal/ledger"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// zoneCluster is a full Multi-Zone deployment in the simulator: consensus
// hosts running P-PBFT, plus zones of full nodes joining incrementally.
type zoneCluster struct {
	net       *simnet.Network
	hosts     []*ConsensusHost
	fulls     []*FullNode
	striper   *Striper
	collector *workload.Collector
	completed map[wire.NodeID][]uint64 // block heights completed per full node
	commits   int
	// With zoneConfig.exec: every full node's executor results in
	// execution order, and its ledger.
	executed map[wire.NodeID][]exec.Result
	ledgers  map[wire.NodeID]*ledger.Ledger
}

type zoneConfig struct {
	nc, f       int
	zones       int
	perZone     int
	rate        float64
	duration    time.Duration
	maxSubs     int
	joinSpacing time.Duration
	// stream enables streaming commit on the consensus hosts
	// (per-transaction seals plus PBFT pipelining).
	stream bool
	// keepConfirmed overrides the full nodes' bundle retention (0 keeps
	// the default); small values force skip-syncs after an outage.
	keepConfirmed int
	// exec attaches an executor and an in-memory ledger to every full node.
	exec bool
	// throttle replaces the 100 Mbps downlink of the listed full nodes.
	throttle map[wire.NodeID]simnet.Bandwidth
}

func fullNodeID(zone, idx int) wire.NodeID {
	return wire.NodeID(100 + zone*100 + idx)
}

// lossEverywhere drops each message on every link with probability p for
// the whole run.
func lossEverywhere(p float64, cfg zoneConfig) faults.Action {
	return faults.LossWindow{From: wire.NoNode, To: wire.NoNode, Prob: p, End: cfg.duration}
}

func buildZoneCluster(t testing.TB, cfg zoneConfig) *zoneCluster {
	t.Helper()
	node.RegisterAllMessages()
	RegisterMessages()
	if cfg.joinSpacing <= 0 {
		cfg.joinSpacing = 60 * time.Millisecond
	}
	striper, err := NewStriper(cfg.nc, cfg.f)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{
		Uplink:   simnet.Mbps100,
		Downlink: simnet.Mbps100,
		Latency:  simnet.LANLatency(),
		Seed:     5,
	})
	warm := simnet.Epoch.Add(cfg.duration / 4)
	end := simnet.Epoch.Add(cfg.duration)
	zc := &zoneCluster{
		net:       net,
		striper:   striper,
		collector: workload.NewCollector(warm, end),
		completed: make(map[wire.NodeID][]uint64),
		executed:  make(map[wire.NodeID][]exec.Result),
		ledgers:   make(map[wire.NodeID]*ledger.Ledger),
	}
	suite := crypto.NewSimSuite(cfg.nc, 17)
	for i := 0; i < cfg.nc; i++ {
		observer := i == 0
		host, err := NewConsensusHost(HostConfig{
			NC: cfg.nc, F: cfg.f, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			Engine:         node.EnginePBFT,
			BundleSize:     50,
			BundleInterval: 20 * time.Millisecond,
			ViewTimeout:    2 * time.Second,
			Stream:         cfg.stream,
			Striper:        striper,
			OnCommit: func(height uint64, txs int) {
				if observer {
					zc.commits += txs
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		zc.hosts = append(zc.hosts, host)
		net.AddNode(wire.NodeID(i), host)
	}

	for z := 0; z < cfg.zones; z++ {
		var zonePeers []wire.NodeID
		for k := 0; k < cfg.perZone; k++ {
			zonePeers = append(zonePeers, fullNodeID(z, k))
		}
		for k := 0; k < cfg.perZone; k++ {
			self := fullNodeID(z, k)
			peers := make([]wire.NodeID, 0, cfg.perZone-1)
			for _, p := range zonePeers {
				if p != self {
					peers = append(peers, p)
				}
			}
			var backups []wire.NodeID
			if cfg.zones > 1 {
				backups = append(backups, fullNodeID((z+1)%cfg.zones, k%cfg.perZone))
			}
			fcfg := FullNodeConfig{
				Self:           self,
				Zone:           z,
				JoinSeq:        uint64(z*cfg.perZone + k),
				NC:             cfg.nc,
				F:              cfg.f,
				Striper:        striper,
				Signer:         suite.Signer(0),
				ZonePeers:      peers,
				BackupPeers:    backups,
				MaxSubscribers: cfg.maxSubs,
				AliveInterval:  200 * time.Millisecond,
				DigestInterval: time.Second,
				KeepConfirmed:  cfg.keepConfirmed,
				OnBlockComplete: func(blk *core.PredisBlock, txs int) {
					zc.completed[self] = append(zc.completed[self], blk.Height)
				},
			}
			if cfg.exec {
				zc.ledgers[self] = ledger.New()
				fcfg.Ledger = zc.ledgers[self]
				fcfg.Executor = exec.NewMachine(1000)
				fcfg.OnExecute = func(r exec.Result) {
					zc.executed[self] = append(zc.executed[self], r)
				}
			}
			fn, err := NewFullNode(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			zc.fulls = append(zc.fulls, fn)
			delay := time.Duration(z*cfg.perZone+k) * cfg.joinSpacing
			if down, slow := cfg.throttle[self]; slow {
				net.AddNodeRates(self, &Delayed{Inner: fn, Delay: delay}, simnet.Mbps100, down)
			} else {
				net.AddNode(self, &Delayed{Inner: fn, Delay: delay})
			}
		}
	}

	targets := make([]wire.NodeID, cfg.nc)
	for i := range targets {
		targets[i] = wire.NodeID(i)
	}
	for c := 0; c < 2; c++ {
		cl := workload.NewClient(workload.ClientConfig{
			Self:     wire.NodeID(5000 + c),
			Targets:  targets,
			Policy:   workload.RoundRobin,
			Rate:     cfg.rate,
			TxSize:   types.DefaultTxSize,
			F:        cfg.f,
			Epoch:    simnet.Epoch,
			GenStart: simnet.Epoch.Add(time.Duration(cfg.zones*cfg.perZone)*cfg.joinSpacing + 100*time.Millisecond),
			GenStop:  end.Add(-cfg.duration / 6),
		})
		net.AddNode(wire.NodeID(5000+c), cl)
	}
	return zc
}

func TestMultiZoneEndToEnd(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 2, perZone: 6,
		rate: 400, duration: 8 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(cfg.duration)

	// Every full node must have completed blocks.
	incomplete := 0
	var minBlocks, maxBlocks int
	first := true
	for _, fn := range zc.fulls {
		_, bundles, blocks := fn.Stats()
		if blocks == 0 {
			incomplete++
			continue
		}
		if bundles == 0 {
			t.Fatalf("node %d completed blocks without assembling bundles", fn.cfg.Self)
		}
		if first || int(blocks) < minBlocks {
			minBlocks = int(blocks)
		}
		if first || int(blocks) > maxBlocks {
			maxBlocks = int(blocks)
		}
		first = false
	}
	if incomplete > 0 {
		t.Fatalf("%d of %d full nodes completed no blocks", incomplete, len(zc.fulls))
	}
	if minBlocks == 0 {
		t.Fatal("some full node completed zero blocks")
	}
	t.Logf("full nodes completed %d..%d blocks", minBlocks, maxBlocks)

	// Block heights completed per node must be strictly increasing by 1
	// (blocks reconstruct in chain order).
	for id, heights := range zc.completed {
		for i, h := range heights {
			if h != uint64(i+1) {
				t.Fatalf("node %d completed heights %v (gap at %d)", id, heights[:i+1], i)
			}
		}
	}

	// Each zone must have developed relayers (the paper maintains n_zr =
	// n_c per zone; with churn-free joins we tolerate ±1).
	relayersPerZone := make(map[int]int)
	for _, fn := range zc.fulls {
		if fn.IsRelayer() {
			relayersPerZone[fn.cfg.Zone]++
		}
	}
	for z := 0; z < cfg.zones; z++ {
		if relayersPerZone[z] == 0 {
			t.Fatalf("zone %d has no relayers", z)
		}
	}
	t.Logf("relayers per zone: %v", relayersPerZone)

	// Consensus bandwidth check: each consensus node's subscriber count
	// must stay far below the full-node population (that is Multi-Zone's
	// whole point — Θ(zones·n_c), not Θ(N)).
	for i, h := range zc.hosts {
		subs := len(h.Dist.Subscribers())
		if subs > cfg.zones*cfg.nc+cfg.zones {
			t.Fatalf("consensus node %d has %d subscribers (> zones·nc budget)", i, subs)
		}
	}
}

func TestMultiZoneOrdinaryNodesUseRelayers(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 8,
		rate: 300, duration: 8 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(cfg.duration)

	relayers := 0
	ordinary := 0
	for _, fn := range zc.fulls {
		if fn.IsRelayer() {
			relayers++
		} else {
			ordinary++
			// Ordinary nodes must still have received everything.
			if _, _, blocks := fn.Stats(); blocks == 0 {
				t.Fatalf("ordinary node %d completed no blocks", fn.cfg.Self)
			}
		}
	}
	if ordinary == 0 {
		t.Log("all nodes are relayers (small zone); acceptable but weak")
	}
	t.Logf("relayers=%d ordinary=%d", relayers, ordinary)
}

func TestDistributorSubscribeProtocol(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	d := NewDistributor(2, striper)

	type recorded struct {
		from wire.NodeID
		m    wire.Message
	}
	var got []recorded
	rec := func(self wire.NodeID) *recHandler {
		return &recHandler{onRecv: func(from wire.NodeID, m wire.Message) {
			got = append(got, recorded{from, m})
		}}
	}
	distHost := &distHandler{d: d}
	net.AddNode(2, distHost)
	net.AddNode(50, rec(50))
	net.AddNode(51, rec(51))
	net.AddNode(52, rec(52))
	net.Start()

	// Node 50 subscribes for stripe 2 → accepted, FromConsensus.
	distHost.inject(50, &Subscribe{Stripes: []uint8{2}})
	// Node 51 asks for the wrong stripe → rejected.
	distHost.inject(51, &Subscribe{Stripes: []uint8{0}})
	// Node 51 then asks correctly → accepted, and so is node 52: a
	// consensus node accepts every relayer.
	distHost.inject(51, &Subscribe{Stripes: []uint8{2}})
	distHost.inject(52, &Subscribe{Stripes: []uint8{2}})
	net.Run(time.Second)

	accepts, rejects := 0, 0
	for _, r := range got {
		switch m := r.m.(type) {
		case *AcceptSubscribe:
			accepts++
			if !m.FromConsensus {
				t.Fatal("consensus accept must set FromConsensus")
			}
		case *RejectSubscribe:
			rejects++
		}
	}
	if accepts != 3 || rejects != 1 {
		t.Fatalf("accepts=%d rejects=%d, want 3/1", accepts, rejects)
	}
	if got := d.Subscribers(); !slices.Equal(got, []wire.NodeID{50, 51, 52}) {
		t.Fatalf("Subscribers = %v", got)
	}
	// Unsubscribe shrinks the set.
	distHost.inject(50, &Unsubscribe{Stripes: []uint8{2}})
	if got := d.Subscribers(); !slices.Equal(got, []wire.NodeID{51, 52}) {
		t.Fatalf("after unsubscribe Subscribers = %v", got)
	}
}

// recHandler records deliveries.
type recHandler struct {
	ctx    interface{ Now() time.Time }
	onRecv func(from wire.NodeID, m wire.Message)
}

func (r *recHandler) Start(ctx env.Context)                    {}
func (r *recHandler) Receive(from wire.NodeID, m wire.Message) { r.onRecv(from, m) }

// distHandler hosts a bare Distributor in the simulator.
type distHandler struct {
	d   *Distributor
	ctx env.Context
}

func (h *distHandler) Start(ctx env.Context) {
	h.ctx = ctx
	h.d.Start(ctx)
}
func (h *distHandler) Receive(from wire.NodeID, m wire.Message) { h.d.Receive(from, m) }
func (h *distHandler) inject(from wire.NodeID, m wire.Message)  { h.d.Receive(from, m) }

// TestRelayerCrashPromotesReplacement crashes a converged relayer; the
// periodic relayer-count check (§IV-E) must promote a replacement so the
// zone keeps completing blocks.
func TestRelayerCrashPromotesReplacement(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 7,
		rate: 300, duration: 12 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second) // converge + commit a while

	// Crash the first relayer we find.
	var victim *FullNode
	for _, fn := range zc.fulls {
		if fn.IsRelayer() {
			victim = fn
			break
		}
	}
	if victim == nil {
		t.Fatal("no relayer converged before the crash")
	}
	crashedStripes := victim.RelayedStripes()
	zc.net.Crash(victim.cfg.Self)
	t.Logf("crashed relayer %d (stripes %v)", victim.cfg.Self, crashedStripes)

	zc.net.Run(cfg.duration)

	// Someone else must now relay the victim's stripes.
	covered := make(map[uint8]bool)
	for _, fn := range zc.fulls {
		if fn.cfg.Self == victim.cfg.Self {
			continue
		}
		for _, s := range fn.RelayedStripes() {
			covered[s] = true
		}
	}
	for _, s := range crashedStripes {
		if !covered[s] {
			t.Fatalf("stripe %d orphaned after relayer crash", s)
		}
	}
	// Survivors keep completing blocks after the crash.
	for _, fn := range zc.fulls {
		if fn.cfg.Self == victim.cfg.Self {
			continue
		}
		heights := zc.completed[fn.cfg.Self]
		if len(heights) == 0 || heights[len(heights)-1] <= zc.completed[victim.cfg.Self][len(zc.completed[victim.cfg.Self])-1] {
			t.Fatalf("node %d made no progress after the relayer crash", fn.cfg.Self)
		}
	}
}

// TestRelayerLeaveHandsOver exercises the §IV-E leave protocol: a departing
// relayer notifies a subscriber, which resubscribes to the consensus nodes
// and takes over.
func TestRelayerLeaveHandsOver(t *testing.T) {
	cfg := zoneConfig{
		nc: 4, f: 1, zones: 1, perZone: 6,
		rate: 300, duration: 10 * time.Second,
	}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(4 * time.Second)

	var leaver *FullNode
	for _, fn := range zc.fulls {
		if fn.IsRelayer() {
			leaver = fn
			break
		}
	}
	if leaver == nil {
		t.Fatal("no relayer to leave")
	}
	stripes := leaver.RelayedStripes()
	leaver.Leave()
	zc.net.Crash(leaver.cfg.Self) // it is gone after announcing
	zc.net.Run(cfg.duration)

	covered := make(map[uint8]bool)
	for _, fn := range zc.fulls {
		if fn.cfg.Self == leaver.cfg.Self {
			continue
		}
		for _, s := range fn.RelayedStripes() {
			covered[s] = true
		}
	}
	for _, s := range stripes {
		if !covered[s] {
			t.Fatalf("stripe %d orphaned after leave", s)
		}
	}
}

// TestFullNodeLedgerIntegration attaches a ledger to one full node and
// verifies the recorded chain matches what the node completed.
func TestFullNodeLedgerIntegration(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: simnet.LANLatency(), Seed: 6,
	})
	suite := crypto.NewSimSuite(4, 61)
	for i := 0; i < 4; i++ {
		host, err := NewConsensusHost(HostConfig{
			NC: 4, F: 1, Self: wire.NodeID(i), Signer: suite.Signer(i),
			Engine: node.EnginePBFT, BundleSize: 25,
			BundleInterval: 20 * time.Millisecond, ViewTimeout: time.Second,
			Striper: striper,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.AddNode(wire.NodeID(i), host)
	}
	led := ledger.New()
	completed := 0
	fn, err := NewFullNode(FullNodeConfig{
		Self: 100, Zone: 0, JoinSeq: 0, NC: 4, F: 1,
		Striper: striper, Signer: suite.Signer(0),
		Ledger: led,
		OnBlockComplete: func(blk *core.PredisBlock, txs int) {
			completed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(100, fn)
	net.AddNode(900, workload.NewClient(workload.ClientConfig{
		Self: 900, Targets: []wire.NodeID{0, 1, 2, 3},
		Policy: workload.RoundRobin, Rate: 300,
		TxSize: types.DefaultTxSize, F: 1, Epoch: simnet.Epoch,
		GenStart: simnet.Epoch.Add(200 * time.Millisecond),
		GenStop:  simnet.Epoch.Add(3 * time.Second),
	}))
	net.Start()
	net.Run(5 * time.Second)

	if completed == 0 {
		t.Fatal("no blocks completed")
	}
	if led.Len() != completed {
		t.Fatalf("ledger holds %d blocks, node completed %d", led.Len(), completed)
	}
	if err := led.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	head, _ := led.Head()
	if head.Height != uint64(completed) {
		t.Fatalf("head height %d, want %d", head.Height, completed)
	}
	if led.TotalTxs() == 0 {
		t.Fatal("ledger recorded zero transactions")
	}
}

// TestTwoRelayerZoneCoversEveryStripe: in a zone of two full nodes both
// end up relayers, each asking the other for stripes while the other asks
// it. Accepting a peer's request for a stripe one is still waiting on that
// peer for closes a loop neither end ever receives the stripe on. Every
// stripe must reach the zone from consensus, no two nodes may feed each
// other the same stripe, and each node receives exactly n_c − f indices:
// the ones it relays, plus the fewest others.
func TestTwoRelayerZoneCoversEveryStripe(t *testing.T) {
	cfg := zoneConfig{nc: 4, f: 1, zones: 1, perZone: 2, rate: 1000, duration: 2 * time.Second}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(cfg.duration)
	covered := make(map[uint8]bool)
	for _, fn := range zc.fulls {
		for _, s := range fn.RelayedStripes() {
			covered[s] = true
		}
	}
	if len(covered) != cfg.nc {
		t.Fatalf("stripes taken from consensus in the zone: %v, want all %d", covered, cfg.nc)
	}
	a, b := zc.fulls[0], zc.fulls[1]
	for s := uint8(0); s < uint8(cfg.nc); s++ {
		if a.links[s].sender == b.ID() && b.links[s].sender == a.ID() {
			t.Fatalf("stripe %d: %d and %d are each other's sender", s, a.ID(), b.ID())
		}
	}
	for _, fn := range zc.fulls {
		pending := slices.ContainsFunc(fn.links, func(l link) bool { return l.pending != wire.NoNode })
		if len(senders(fn)) != cfg.nc-cfg.f || pending || len(fn.spares) != 0 {
			t.Errorf("node %d receives %v (pending %v, spares %v), want exactly %d indices",
				fn.ID(), senders(fn), pending, fn.spares, cfg.nc-cfg.f)
		}
		if _, bundles, blocks := fn.Stats(); bundles == 0 || blocks == 0 {
			t.Errorf("node %d assembled %d bundles and %d blocks", fn.ID(), bundles, blocks)
		}
	}
}
