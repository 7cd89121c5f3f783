package multizone

import (
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// ConsensusHost is a Predis consensus node and its Multi-Zone distributor,
// which the node starts, restarts, feeds and routes the zone plane to. It
// is held only for cmd/predis-perf and tests (this package's, and the
// harness overload tests, which set per-node link rates): every other
// deployment is a harness.Deploy, whose node.Config carries the
// distributor itself.
type ConsensusHost struct {
	*node.Node
	Dist *Distributor
}

var _ env.Handler = (*ConsensusHost)(nil)
var _ env.Restartable = (*ConsensusHost)(nil)

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
		Dist:           dist,
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
