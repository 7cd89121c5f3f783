package harness

import (
	"cmp"
	"fmt"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/topology"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// Deploy describes the paper's testbed (§V): NC consensus nodes on 100 Mbps
// links, on the emulated LAN or the 4-region WAN, zones of Multi-Zone full
// nodes joining one by one, and NC open-loop clients that start once the
// last full node has joined. Every experiment except Fig. 8's scripted
// sources is one Deploy value; Build turns it into a network. A value is a
// field here only because two experiments set it differently — what they
// all agree on (f = (NC-1)/3, clients 5000+k replied to by every node) is a
// constant of the builder, and what one experiment observes or plugs in
// (commit bucketing, executors, a ledger, subscriber caps) goes through the
// Host and Full callbacks.
type Deploy struct {
	// System is the data production strategy and engine; the clients
	// broadcast every transaction under the txpool baselines (PBFT,
	// HotStuff) and submit round-robin under the rest.
	System System
	NC     int
	WAN    bool
	// BundleSize bounds Predis bundles and Narwhal/Stratus batches,
	// BatchSize baseline proposals, and BundleInterval is the producers'
	// seal tick; zero means 50, 800 and 20 ms.
	BundleSize     int
	BatchSize      int
	BundleInterval time.Duration
	// Fulls places the full nodes, in join order (see ZoneMajor and
	// roundRobin); the wiring between them follows from it (zoneWiring).
	// With full nodes every consensus node runs a multizone.Distributor,
	// which only a Predis system feeds.
	Fulls []Slot
	// Stream runs the consensus group in streaming-commit mode, and
	// ViewTimeout is the engines' (zero: their 2 s default).
	Stream      bool
	ViewTimeout time.Duration
	// AliveInterval and DigestInterval are the full nodes' relayer
	// heartbeat and block-digest reconcile periods (0 = no digests).
	AliveInterval  time.Duration
	DigestInterval time.Duration
	// JoinSpacing separates consecutive full-node joins.
	JoinSpacing time.Duration
	// Offered is the total load in tx/s, shared evenly by the clients, and
	// Load how long they generate it.
	Offered float64
	Load    time.Duration
	Seed    int64
	// Ops, when non-nil, attaches a semantic operation to every
	// transaction (see workload.ClientConfig.Ops).
	Ops func(client wire.NodeID, seq uint64) types.Op
	// Replay, when non-nil, folds every delivery into its hash; Trace,
	// when non-nil, records lifecycle stages at consensus nodes,
	// distributors, full nodes and clients.
	Replay *ReplayTrace
	Trace  *obs.Tracer
	// Host and Full, when non-nil, see each node's finished configuration
	// before the node is built and may change it.
	Host func(*node.Config)
	Full func(*multizone.FullNodeConfig)
}

// Deployment is a built Deploy: the nodes are added, nothing has started.
type Deployment struct {
	Net   *simnet.Network
	Hosts []*node.Node
	Fulls []*multizone.FullNode
	// Col measures the last three quarters of the load; consensus node 0
	// reports its commits to it unless Deploy.Host replaced OnCommit.
	Col *workload.Collector
	// Clients are the open-loop clients, 5000+k.
	Clients []*workload.Client
	// LoadStart and End bound the load, as offsets from simnet.Epoch; End
	// is also how long to run.
	LoadStart, End time.Duration
}

// Slot is one full node's place in a deployment: its ID and its zone.
type Slot struct {
	ID   wire.NodeID
	Zone int
}

// ZoneMajor fills zone after zone: IDs 100+100z+k, zone 0 joins first.
func ZoneMajor(zones, perZone int) []Slot {
	slots := make([]Slot, 0, zones*perZone)
	for z := 0; z < zones; z++ {
		for k := 0; k < perZone; k++ {
			slots = append(slots, Slot{wire.NodeID(100 + 100*z + k), z})
		}
	}
	return slots
}

// roundRobin deals n full nodes, IDs 100+i, over the zones in turn (the
// Fig. 7 and Fig. 8 shape; zone sizes may differ by one).
func roundRobin(n, zones int) []Slot {
	slots := make([]Slot, n)
	for i := range slots {
		slots[i] = Slot{wire.NodeID(100 + i), i % zones}
	}
	return slots
}

// wiring is what the join order decides for one full node; its index in
// zoneWiring's result is its join sequence number.
type wiring struct {
	Slot
	Peers, Backups []wire.NodeID
	// Delay is when the node joins, after the network starts.
	Delay time.Duration
}

// zoneWiring derives every full node's neighbours and join time from the
// join order: its zone peers are the zone's other members, in join order,
// its one backup is member join % len of the next zone (none with a single
// zone), and it joins spacing after the node before it.
func zoneWiring(slots []Slot, spacing time.Duration) []wiring {
	var members [][]wire.NodeID
	for _, s := range slots {
		for len(members) <= s.Zone {
			members = append(members, nil)
		}
		members[s.Zone] = append(members[s.Zone], s.ID)
	}
	out := make([]wiring, len(slots))
	for join, s := range slots {
		w := wiring{Slot: s, Delay: time.Duration(join) * spacing}
		for _, id := range members[s.Zone] {
			if id != s.ID {
				w.Peers = append(w.Peers, id)
			}
		}
		if next := members[(s.Zone+1)%len(members)]; len(members) > 1 && len(next) > 0 {
			w.Backups = []wire.NodeID{next[join%len(next)]}
		}
		out[join] = w
	}
	return out
}

// newNet returns the testbed's empty network — 100 Mbps NICs, LAN or WAN
// latency — with every message type registered and replay attached.
func newNet(seed int64, wan bool, replay *ReplayTrace) *simnet.Network {
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	topology.RegisterMessages()
	latency := simnet.LANLatency()
	if wan {
		latency = simnet.WANLatency()
	}
	net := simnet.New(simnet.Config{
		Uplink: simnet.Mbps100, Downlink: simnet.Mbps100,
		Latency: latency, Seed: seed,
	})
	if replay != nil {
		replay.Attach(net)
	}
	return net
}

// f is the fault bound every experiment runs its group size at.
func (d Deploy) f() int { return consensus.FaultBound(d.NC) }

// signer is node i's sim key in the deployment's suite; an experiment that
// scripts a signing adversary derives the same keys from it.
func (d Deploy) signer(i int) crypto.Signer { return crypto.NewSimSigner(i, uint64(d.Seed)+7) }

// loadStart is when the clients start: 200 ms after the last join.
func (d Deploy) loadStart() time.Duration {
	return time.Duration(len(d.Fulls))*d.JoinSpacing + 200*time.Millisecond
}

// end is when the load stops and the run with it.
func (d Deploy) end() time.Duration { return d.loadStart() + d.Load }

// deployment is the empty deployment: its network and its timeline.
func (d Deploy) deployment() *Deployment {
	return &Deployment{Net: newNet(d.Seed, d.WAN, d.Replay), LoadStart: d.loadStart(), End: d.end()}
}

// NodeConfig is consensus node i's configuration: the system's mode and
// engine, f, sim keys, the deployment's settings and the bundle, batch and
// seal-tick defaults. group builds every consensus node from it, and
// cmd/predis-node runs one over TCP.
func (d Deploy) NodeConfig(i int) (node.Config, error) {
	mode, engine, err := modeEngine(d.System)
	if err != nil {
		return node.Config{}, err
	}
	return node.Config{
		Mode: mode, Engine: engine,
		NC: d.NC, F: d.f(), Self: wire.NodeID(i),
		Signer:         d.signer(i),
		BundleSize:     cmp.Or(d.BundleSize, 50),
		BatchSize:      cmp.Or(d.BatchSize, 800),
		BundleInterval: cmp.Or(d.BundleInterval, 20*time.Millisecond),
		ViewTimeout:    d.ViewTimeout,
		Stream:         d.Stream,
		ReplyToClients: true,
		Trace:          d.Trace,
	}, nil
}

// group builds consensus nodes 0..NC-1 into dep.Hosts with node.New — each
// NodeConfig, with a distributor over striper unless it is nil and node 0
// reporting its commits to dep.Col — after the Host callback has seen each
// config. The caller adds them to dep.Net.
func (d Deploy) group(dep *Deployment, striper *multizone.Striper) error {
	for i := 0; i < d.NC; i++ {
		cfg, err := d.NodeConfig(i)
		if err != nil {
			return err
		}
		if striper != nil {
			if cfg.Mode != node.ModePredis {
				return fmt.Errorf("harness: full nodes need a Predis system, not %s", d.System)
			}
			dist := multizone.NewDistributor(cfg.Self, striper)
			dist.SetTrace(d.Trace)
			cfg.Dist = dist
		}
		if i == 0 {
			cfg.OnCommit = func(_ uint64, txs []*types.Transaction) { dep.Col.RecordNodeCommit(dep.Net.Now(), len(txs)) }
		}
		if d.Host != nil {
			d.Host(&cfg)
		}
		n, err := node.New(cfg)
		if err != nil {
			return err
		}
		dep.Hosts = append(dep.Hosts, n)
	}
	return nil
}

// addZones adds the full nodes to net, wired and timed by zoneWiring.
func (d Deploy) addZones(net *simnet.Network, striper *multizone.Striper, signer crypto.Signer) ([]*multizone.FullNode, error) {
	fulls := make([]*multizone.FullNode, 0, len(d.Fulls))
	for join, w := range zoneWiring(d.Fulls, d.JoinSpacing) {
		cfg := multizone.FullNodeConfig{
			Self: w.ID, Zone: w.Zone, JoinSeq: uint64(join),
			NC: d.NC, F: d.f(),
			Striper:        striper,
			Signer:         signer,
			ZonePeers:      w.Peers,
			BackupPeers:    w.Backups,
			AliveInterval:  d.AliveInterval,
			DigestInterval: d.DigestInterval,
			Trace:          d.Trace,
		}
		if d.Full != nil {
			d.Full(&cfg)
		}
		fn, err := multizone.NewFullNode(cfg)
		if err != nil {
			return nil, err
		}
		fulls = append(fulls, fn)
		net.AddNode(w.ID, &multizone.Delayed{Inner: fn, Delay: w.Delay})
	}
	return fulls, nil
}

// addLoad adds n open-loop clients 5000+k to dep, which share Offered over
// the consensus nodes from LoadStart to End, and the collector they report
// to, which measures the last three quarters of the load.
func (d Deploy) addLoad(dep *Deployment, n int) {
	start, end := simnet.Epoch.Add(dep.LoadStart), simnet.Epoch.Add(dep.End)
	dep.Col = workload.NewCollector(start.Add(d.Load/4), end)
	cfg := workload.ClientConfig{
		Targets:   make([]wire.NodeID, d.NC),
		Policy:    workload.RoundRobin,
		Rate:      d.Offered / float64(n),
		TxSize:    types.DefaultTxSize,
		F:         d.f(),
		Epoch:     simnet.Epoch,
		GenStart:  start,
		GenStop:   end,
		Collector: dep.Col,
		Ops:       d.Ops,
		Trace:     d.Trace,
	}
	for i := range cfg.Targets {
		cfg.Targets[i] = wire.NodeID(i)
	}
	if mode, _, _ := modeEngine(d.System); mode == node.ModeBaseline {
		cfg.Policy = workload.Broadcast
	}
	dep.Clients = make([]*workload.Client, n)
	for k := range dep.Clients {
		cfg.Self = wire.NodeID(5000 + k)
		dep.Clients[k] = workload.NewClient(cfg)
		dep.Net.AddNode(cfg.Self, dep.Clients[k])
	}
}

// Build adds the consensus group, the zones and the NC clients to a fresh
// network. The caller installs what is its own (faults, samplers), then
// runs it (Run, or Net.Run to End).
func (d Deploy) Build() (*Deployment, error) {
	dep := d.deployment()
	var striper *multizone.Striper
	var err error
	if len(d.Fulls) > 0 {
		if striper, err = multizone.NewStriper(d.NC, d.f()); err != nil {
			return nil, err
		}
	}
	if err = d.group(dep, striper); err != nil {
		return nil, err
	}
	for i, n := range dep.Hosts {
		dep.Net.AddNode(wire.NodeID(i), n)
	}
	if dep.Fulls, err = d.addZones(dep.Net, striper, d.signer(0)); err != nil {
		return nil, err
	}
	d.addLoad(dep, d.NC)
	return dep, nil
}

// Run starts the network, runs it to End and measures the load.
func (dep *Deployment) Run() PointResult {
	dep.Net.Start()
	dep.Net.Run(dep.End)
	_, _, _, blocks := dep.Col.Counts()
	res := PointResult{
		Throughput:       dep.Col.Throughput(),
		ClientThroughput: dep.Col.ClientThroughput(),
		Latency:          dep.Col.Latency(),
		Blocks:           blocks,
	}
	for _, n := range dep.Hosts {
		_, changes := n.Engine().Stats()
		res.ViewOrTimeouts = max(res.ViewOrTimeouts, changes)
	}
	return res
}
