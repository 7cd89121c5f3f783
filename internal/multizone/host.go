package multizone

import (
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// ConsensusHost wraps a consensus node with a Multi-Zone distributor:
// consensus traffic routes to the node, zone-plane traffic to the
// distributor, and the node's bundle/block hooks feed the distributor.
type ConsensusHost struct {
	Node *node.Node
	Dist *Distributor
}

var _ env.Handler = (*ConsensusHost)(nil)

// HostConfig assembles a Multi-Zone consensus node.
type HostConfig struct {
	// NC, F, Self, Signer, Engine: as in node.Config.
	NC, F  int
	Self   wire.NodeID
	Signer crypto.Signer
	Engine node.EngineKind
	// BundleSize / BundleInterval: Predis producer parameters.
	BundleSize     int
	BundleInterval time.Duration
	ViewTimeout    time.Duration
	// Stream enables streaming commit (see node.Config). Full nodes are
	// served as in block mode: stripes as bundles are stored, each block
	// once it commits.
	Stream bool
	// Pipeline is unread: the PBFT window follows from Stream (see
	// node.Config.Stream). It is held only for cmd/predis-perf, which
	// still sets it, always to the window Stream selects.
	Pipeline int
	// Striper must match the full nodes'.
	Striper *Striper
	// ReplyToClients / OnCommit: measurement hooks as in node.Config.
	ReplyToClients bool
	OnCommit       func(height uint64, txs int)
	// Trace, when non-nil, records block/bundle lifecycle stages across
	// the node and the distributor. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics is unread: components keep their own counters and the
	// harness publishes them after a run. It is held only for
	// cmd/predis-perf, which still sets it.
	Metrics *obs.Registry
	// Executor / OnExecute: execution plane, as in node.Config (each host
	// owns its own exec.Machine).
	Executor  *exec.Machine
	OnExecute func(r exec.Result)
}

// NewConsensusHost builds the host. Multi-Zone always runs Predis (the
// paper's deployment: Predis on BFT-SMaRt with Multi-Zone distribution).
func NewConsensusHost(cfg HostConfig) (*ConsensusHost, error) {
	dist := NewDistributor(cfg.Self, cfg.Striper)
	dist.SetTrace(cfg.Trace)
	var n *node.Node
	// A node catching up after a restart stores the bundles it missed, which
	// the zones already hold; striping them would queue its fresh stripes
	// behind the stale ones. Until it is live its index is silent for its
	// peers' bundles, and full nodes cover it with a spare; its own bundles
	// are fresh, and only it stripes them at its index.
	onStored := func(b *core.Bundle) {
		if b.Header.Producer == cfg.Self || !n.Predis().CatchingUp() {
			dist.OnBundleStored(b)
		}
	}
	n, err := node.New(node.Config{
		Mode:           node.ModePredis,
		Engine:         cfg.Engine,
		NC:             cfg.NC,
		F:              cfg.F,
		Self:           cfg.Self,
		Signer:         cfg.Signer,
		BundleSize:     cfg.BundleSize,
		BundleInterval: cfg.BundleInterval,
		ViewTimeout:    cfg.ViewTimeout,
		Stream:         cfg.Stream,
		ReplyToClients: cfg.ReplyToClients,
		StripeRoot:     dist.StripeRoot,
		OnBundleStored: onStored,
		OnBlockCommit:  dist.OnBlockCommit,
		Trace:          cfg.Trace,
		Executor:       cfg.Executor,
		OnExecute:      cfg.OnExecute,
		OnCommit: func(height uint64, txs []*types.Transaction) {
			if cfg.OnCommit != nil {
				cfg.OnCommit(height, len(txs))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	return &ConsensusHost{Node: n, Dist: dist}, nil
}

// Start implements env.Handler.
func (h *ConsensusHost) Start(ctx env.Context) {
	h.Dist.Start(ctx)
	h.Node.Start(ctx)
}

var _ env.Restartable = (*ConsensusHost)(nil)

// OnRestart implements env.Restartable: the consensus node re-arms its
// timers and catches up; the distributor keeps its subscribers and renews
// their leases (relayers re-subscribe if they expired us).
func (h *ConsensusHost) OnRestart() {
	h.Dist.OnRestart()
	h.Node.OnRestart()
}

// Receive implements env.Handler.
func (h *ConsensusHost) Receive(from wire.NodeID, m wire.Message) {
	if m.Type()&0xff00 == wire.TypeRangeZone {
		h.Dist.Receive(from, m)
		return
	}
	h.Node.Receive(from, m)
}
