// Package node assembles consensus nodes: a BFT engine (PBFT or HotStuff),
// a data production application (the baseline transaction pool or Predis),
// and the message routing between them, behind a single env.Handler so the
// same node runs on the simulator or the TCP runtime.
package node

import (
	"fmt"
	"slices"
	"time"

	"predis/internal/consensus"
	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/exec"
	"predis/internal/hotstuff"
	"predis/internal/microblock"
	"predis/internal/obs"
	"predis/internal/pbft"
	"predis/internal/txpool"
	"predis/internal/types"
	"predis/internal/wire"
)

// Mode selects the data production strategy.
type Mode int

// Modes.
const (
	// ModeBaseline batches full transactions into proposals (vanilla
	// PBFT / HotStuff).
	ModeBaseline Mode = iota + 1
	// ModePredis pre-distributes bundles and proposes Predis blocks
	// (P-PBFT / P-HS).
	ModePredis
	// ModeNarwhal uses the Narwhal-style RBC shared mempool (Fig. 5
	// baseline).
	ModeNarwhal
	// ModeStratus uses the Stratus-style PAB shared mempool (Fig. 5
	// baseline).
	ModeStratus
)

// EngineKind selects the consensus protocol.
type EngineKind int

// Engine kinds.
const (
	EnginePBFT EngineKind = iota + 1
	EngineHotStuff
)

// String returns the protocol name including the Predis prefix convention
// used in the paper (P-PBFT, P-HS).
func (k EngineKind) String() string {
	switch k {
	case EnginePBFT:
		return "PBFT"
	case EngineHotStuff:
		return "HotStuff"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Config assembles one consensus node.
type Config struct {
	Mode   Mode
	Engine EngineKind
	// NC is the number of consensus nodes (IDs 0..NC-1); F the fault
	// bound.
	NC, F int
	// Self is this node's ID.
	Self wire.NodeID
	// Signer signs bundles, blocks, and votes.
	Signer crypto.Signer
	// BatchSize bounds baseline proposals (txs per block).
	BatchSize int
	// BundleSize bounds Predis bundles (txs per bundle).
	BundleSize int
	// BundleInterval is the Predis producer tick.
	BundleInterval time.Duration
	// ViewTimeout tunes the engine.
	ViewTimeout time.Duration
	// Fault selects Byzantine behaviour (Predis mode; Fig. 6).
	Fault core.FaultMode
	// Stream enables streaming commit mode (Predis mode): producers seal
	// bundles per transaction, leaders cut at their own tips, PBFT runs
	// streamWindow instances at once and seals on its proposals, and
	// HotStuff drains ordered cuts with empty blocks. Commit and execution
	// are block mode's. Off, every component behaves byte-for-byte as
	// block mode.
	Stream bool
	// ReplyToClients controls whether commits generate BlockReply
	// messages to transaction submitters (they consume bandwidth, as the
	// paper notes in §III-F).
	ReplyToClients bool
	// OnCommit observes every committed block's transactions (harness
	// measurement hook), with the commit time implied by ctx.Now.
	OnCommit func(height uint64, txs []*types.Transaction)
	// StripeRoot commits a stripe Merkle root into bundle headers before
	// signing (Multi-Zone; see core.Options.StripeRoot).
	StripeRoot func(txs []*types.Transaction) crypto.Hash
	// OnBundleStored observes every bundle entering the Predis mempool
	// (Multi-Zone ships stripes from here).
	OnBundleStored func(b *core.Bundle)
	// OnBlockCommit observes committed Predis blocks (Multi-Zone pushes
	// them to relayers from here). Predis mode only.
	OnBlockCommit func(blk *core.PredisBlock)
	// Trace, when non-nil, records lifecycle stages (submit arrival here;
	// bundle/consensus stages in the wrapped components). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// Executor, when non-nil, applies every committed block's semantic
	// operations to this node's account state machine before client
	// replies go out. Each node owns its own machine; determinism of the
	// committed sequence makes the resulting state roots agree.
	Executor *exec.Machine
	// ExecSerial forces the reference serial committer instead of the
	// two-phase parallel one (baseline for the contention experiment).
	ExecSerial bool
	// OnExecute observes each executed block's result (state root,
	// apply/abort counts, dependency-level shape).
	OnExecute func(r exec.Result)
}

// streamWindow is PBFT's in-flight instance window in stream mode; block
// mode runs the classic single slot. At 8 slots, slot exhaustion added
// ≈35 ms to the stream p99 above 2 000 tx/s.
const streamWindow = 16

// Node is a consensus node handler.
type Node struct {
	cfg    Config
	ctx    env.Context
	engine consensus.Engine
	predis *core.Predis
	pool   *txpool.App
	mb     *microblock.App
}

var _ env.Handler = (*Node)(nil)

// RegisterAllMessages registers every message type a node can handle;
// idempotent, call before building networks.
func RegisterAllMessages() {
	types.RegisterMessages()
	core.RegisterMessages()
	pbft.RegisterMessages()
	hotstuff.RegisterMessages()
	txpool.RegisterMessages()
	microblock.RegisterMessages()
}

// New assembles a node.
func New(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg}
	var app consensus.Application
	switch cfg.Mode {
	case ModeBaseline:
		pool, err := txpool.New(txpool.Options{
			BatchSize: cfg.BatchSize,
			OnCommit:  n.handleCommit,
		})
		if err != nil {
			return nil, err
		}
		n.pool = pool
		app = pool
	case ModePredis:
		peers := make([]wire.NodeID, cfg.NC)
		for i := range peers {
			peers[i] = wire.NodeID(i)
		}
		p, err := core.NewPredis(core.Options{
			Params: core.Params{
				NC: cfg.NC, F: cfg.F,
				BundleSize:     cfg.BundleSize,
				BundleInterval: cfg.BundleInterval,
				Signer:         cfg.Signer,
			},
			Self:           cfg.Self,
			Peers:          peers,
			Fault:          cfg.Fault,
			Stream:         cfg.Stream,
			StripeRoot:     cfg.StripeRoot,
			OnBundleStored: cfg.OnBundleStored,
			Trace:          cfg.Trace,
			OnCommit: func(ci core.CommitInfo) {
				if cfg.OnBlockCommit != nil {
					cfg.OnBlockCommit(ci.Block)
				}
				n.handleCommit(ci.Height, ci.Txs)
			},
		})
		if err != nil {
			return nil, err
		}
		n.predis = p
		app = p
	case ModeNarwhal, ModeStratus:
		scheme := microblock.SchemeNarwhal
		if cfg.Mode == ModeStratus {
			scheme = microblock.SchemeStratus
		}
		mb, err := microblock.New(microblock.Options{
			Scheme:     scheme,
			NC:         cfg.NC,
			F:          cfg.F,
			Self:       cfg.Self,
			Signer:     cfg.Signer,
			MBSize:     cfg.BundleSize,
			MBInterval: cfg.BundleInterval,
			OnCommit:   n.handleCommit,
		})
		if err != nil {
			return nil, err
		}
		n.mb = mb
		app = mb
	default:
		return nil, fmt.Errorf("node: unknown mode %d", cfg.Mode)
	}

	var (
		engine consensus.Engine
		err    error
	)
	switch cfg.Engine {
	case EnginePBFT:
		window := 1
		if cfg.Stream {
			window = streamWindow
		}
		engine, err = pbft.New(pbft.Config{
			N: cfg.NC, Self: cfg.Self, App: app, Signer: cfg.Signer,
			ViewTimeout: cfg.ViewTimeout,
			Pipeline:    window,
			Trace:       cfg.Trace,
		})
	case EngineHotStuff:
		engine, err = hotstuff.New(hotstuff.Config{
			N: cfg.NC, Self: cfg.Self, App: app, Signer: cfg.Signer,
			ViewTimeout: cfg.ViewTimeout,
			Trace:       cfg.Trace,
		})
	default:
		err = fmt.Errorf("node: unknown engine %d", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	n.engine = engine
	if n.predis != nil {
		n.predis.SetEngine(engine)
	}
	if n.mb != nil {
		n.mb.SetEngine(engine)
	}
	return n, nil
}

// Predis exposes the Predis component (nil in baseline mode).
func (n *Node) Predis() *core.Predis { return n.predis }

// Pool exposes the baseline pool (nil in Predis mode).
func (n *Node) Pool() *txpool.App { return n.pool }

// Engine exposes the consensus engine.
func (n *Node) Engine() consensus.Engine { return n.engine }

// Start implements env.Handler.
func (n *Node) Start(ctx env.Context) {
	n.ctx = ctx
	if n.predis != nil {
		n.predis.Start(ctx)
	}
	if n.mb != nil {
		n.mb.Start(ctx)
	}
	n.engine.Start(ctx)
}

var _ env.Restartable = (*Node)(nil)

// OnRestart implements env.Restartable: fan the restart out to the
// engine (timer re-arm + view resync) and the data plane (timer re-arm +
// committed-block catch-up). Components that are not restart-aware are
// skipped; they resume with whatever state they kept.
func (n *Node) OnRestart() {
	if r, ok := n.engine.(env.Restartable); ok {
		r.OnRestart()
	}
	if n.predis != nil {
		n.predis.OnRestart()
	}
}

// Receive implements env.Handler: route by message type range.
func (n *Node) Receive(from wire.NodeID, m wire.Message) {
	switch m.Type() & 0xff00 {
	case wire.TypeRangeCore:
		if n.predis != nil {
			n.predis.Receive(from, m)
		}
	case wire.TypeRangeNarwhal:
		if n.mb != nil {
			n.mb.Receive(from, m)
		}
	case wire.TypeRangePBFT, wire.TypeRangeHotStuff:
		n.engine.Receive(from, m)
	case wire.TypeRangeClient:
		if sub, ok := m.(*types.SubmitTx); ok {
			// submit: client anchor → transaction arrives at a consensus
			// node (first arrival wins; resubmissions are idempotent).
			n.cfg.Trace.SpanSinceMark(obs.StageSubmit,
				obs.TxKey(sub.Tx.Client, sub.Tx.Seq), n.cfg.Self, n.ctx.Now())
			n.Submit(sub.Tx)
		}
	default:
		n.ctx.Logf("node: unroutable message %s from %d", wire.TypeName(m.Type()), from)
	}
}

// Submit injects a transaction into the node's data production path.
func (n *Node) Submit(tx *types.Transaction) {
	switch {
	case n.predis != nil:
		n.predis.SubmitTx(tx)
	case n.mb != nil:
		n.mb.SubmitTx(tx)
	default:
		n.pool.Submit(tx)
		n.engine.Poke()
	}
}

// handleCommit executes a committed block on the node's state machine
// and fans it out to measurement hooks and client replies. Every mode and
// engine commits through it.
func (n *Node) handleCommit(height uint64, txs []*types.Transaction) {
	if n.cfg.Executor != nil {
		var r exec.Result
		if n.cfg.ExecSerial {
			r = n.cfg.Executor.ExecuteBlockSerial(height, txs)
		} else {
			r = n.cfg.Executor.ExecuteBlock(nil, height, txs)
		}
		if n.cfg.Trace != nil && n.ctx != nil {
			now := n.ctx.Now()
			n.cfg.Trace.Span(obs.StageExecuted, obs.BlockKey(height), n.cfg.Self, now, now)
		}
		if n.cfg.OnExecute != nil {
			n.cfg.OnExecute(r)
		}
	}
	if n.cfg.OnCommit != nil {
		n.cfg.OnCommit(height, txs)
	}
	if !n.cfg.ReplyToClients || n.ctx == nil {
		return
	}
	// One batched BlockReply per client (replies are real traffic; §III-F),
	// in client-ID order so map iteration never affects the wire: a counting
	// sort, next holding each client's count, then its offset in one slab.
	next := make(map[wire.NodeID]int, 8)
	clients := make([]wire.NodeID, 0, 8)
	for _, tx := range txs {
		if _, ok := next[tx.Client]; !ok {
			clients = append(clients, tx.Client)
		}
		next[tx.Client]++
	}
	slices.Sort(clients)
	off := 0
	for _, client := range clients {
		off, next[client] = off+next[client], off
	}
	seqs := make([]uint64, len(txs))
	for _, tx := range txs {
		seqs[next[tx.Client]] = tx.Seq
		next[tx.Client]++
	}
	off = 0
	for _, client := range clients {
		end := next[client]
		n.ctx.Send(client, &types.BlockReply{
			Height:  height,
			Replica: n.cfg.Self,
			Seqs:    seqs[off:end:end],
		})
		off = end
	}
}
