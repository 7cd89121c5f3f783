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
	// measurement hook), with the commit time implied by ctx.Now. txs stays
	// valid until the next commit, so a hook that keeps the list copies it.
	OnCommit func(height uint64, txs []*types.Transaction)
	// Dist, when non-nil, is this node's Multi-Zone distributor (Predis
	// mode only), which Predis feeds and the node starts, restarts and
	// routes the zone plane to.
	Dist dist
	// Trace, when non-nil, records lifecycle stages (submit arrival here;
	// bundle/consensus stages in the wrapped components). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// Executor, when non-nil, applies every committed block's semantic
	// operations to this node's account state machine before client
	// replies go out. Each node owns its own machine; determinism of the
	// committed sequence makes the resulting state roots agree.
	Executor *exec.Machine
	// OnExecute observes each executed block's result (state root,
	// apply/abort counts, dependency-level shape).
	OnExecute func(r exec.Result)
}

// streamWindow is PBFT's in-flight instance window in stream mode; block
// mode runs the classic single slot. At 8 slots, slot exhaustion added
// ≈35 ms to the stream p99 above 2 000 tx/s.
const streamWindow = 16

// app is a node's data production strategy: the consensus application,
// which also handles its own message range, re-arms its timers after a
// crash, takes client transactions, and pokes the engine it is wired to.
// The baseline pool, Predis and the Narwhal/Stratus shared mempool are the
// three; node.New picks one by Mode, and nothing else reads the Mode.
type app interface {
	consensus.Application
	env.Handler
	env.Restartable
	SubmitTx(tx *types.Transaction)
	SetEngine(e consensus.Engine)
}

// dist is a consensus node's full-node distribution: the core.Distribution
// seam plus its own message range and restart.
type dist interface {
	core.Distribution
	env.Handler
	env.Restartable
}

var (
	_ app = (*txpool.App)(nil)
	_ app = (*core.Predis)(nil)
	_ app = (*microblock.App)(nil)
)

// Node is a consensus node handler.
type Node struct {
	cfg    Config
	ctx    env.Context
	engine consensus.Engine
	app    app

	// handleCommit's reply grouping, cleared per block: each client's
	// count, then its offset; the clients in the block.
	replyNext    map[wire.NodeID]int
	replyClients []wire.NodeID
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
	n := &Node{cfg: cfg, replyNext: make(map[wire.NodeID]int)}
	var err error
	switch cfg.Mode {
	case ModeBaseline:
		n.app, err = txpool.New(txpool.Options{
			BatchSize: cfg.BatchSize,
			OnCommit:  n.handleCommit,
		})
	case ModePredis:
		n.app, err = core.NewPredis(core.Options{
			Params: core.Params{
				NC: cfg.NC, F: cfg.F,
				BundleSize:     cfg.BundleSize,
				BundleInterval: cfg.BundleInterval,
				Signer:         cfg.Signer,
			},
			Self:     cfg.Self,
			Stream:   cfg.Stream,
			Dist:     cfg.Dist,
			Trace:    cfg.Trace,
			OnCommit: n.handleCommit,
		})
	case ModeNarwhal, ModeStratus:
		scheme := microblock.SchemeNarwhal
		if cfg.Mode == ModeStratus {
			scheme = microblock.SchemeStratus
		}
		n.app, err = microblock.New(microblock.Options{
			Scheme:     scheme,
			NC:         cfg.NC,
			F:          cfg.F,
			Self:       cfg.Self,
			Signer:     cfg.Signer,
			MBSize:     cfg.BundleSize,
			MBInterval: cfg.BundleInterval,
			OnCommit:   n.handleCommit,
		})
	default:
		err = fmt.Errorf("node: unknown mode %d", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}

	switch cfg.Engine {
	case EnginePBFT:
		window := 1
		if cfg.Stream {
			window = streamWindow
		}
		n.engine, err = pbft.New(pbft.Config{
			N: cfg.NC, Self: cfg.Self, App: n.app, Signer: cfg.Signer,
			ViewTimeout: cfg.ViewTimeout,
			Pipeline:    window,
			Trace:       cfg.Trace,
		})
	case EngineHotStuff:
		n.engine, err = hotstuff.New(hotstuff.Config{
			N: cfg.NC, Self: cfg.Self, App: n.app, Signer: cfg.Signer,
			ViewTimeout: cfg.ViewTimeout,
			Trace:       cfg.Trace,
		})
	default:
		err = fmt.Errorf("node: unknown engine %d", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	n.app.SetEngine(n.engine)
	return n, nil
}

// Predis exposes the Predis component (nil in the other modes).
func (n *Node) Predis() *core.Predis {
	p, _ := n.app.(*core.Predis)
	return p
}

// Engine exposes the consensus engine.
func (n *Node) Engine() consensus.Engine { return n.engine }

// Start implements env.Handler: distributor, application, then engine.
func (n *Node) Start(ctx env.Context) {
	n.ctx = ctx
	if n.cfg.Dist != nil {
		n.cfg.Dist.Start(ctx)
	}
	n.app.Start(ctx)
	n.engine.Start(ctx)
}

var _ env.Restartable = (*Node)(nil)

// OnRestart implements env.Restartable: fan the restart out to the
// distributor (lease renewal), the engine (timer re-arm + view resync) and
// the application (timer re-arm, and under Predis the committed-block
// catch-up).
func (n *Node) OnRestart() {
	if n.cfg.Dist != nil {
		n.cfg.Dist.OnRestart()
	}
	n.engine.OnRestart()
	n.app.OnRestart()
}

// Receive implements env.Handler: route by message type range.
func (n *Node) Receive(from wire.NodeID, m wire.Message) {
	switch m.Type() & 0xff00 {
	case wire.TypeRangeCore, wire.TypeRangeNarwhal:
		n.app.Receive(from, m)
	case wire.TypeRangePBFT, wire.TypeRangeHotStuff:
		n.engine.Receive(from, m)
	case wire.TypeRangeClient:
		if sub, ok := m.(*types.SubmitTx); ok {
			// submit: client anchor → transaction arrives at a consensus
			// node (first arrival wins; resubmissions are idempotent).
			n.cfg.Trace.SpanSinceMark(obs.StageSubmit,
				obs.TxKey(sub.Tx.Client, sub.Tx.Seq), n.cfg.Self, n.ctx.Now())
			n.app.SubmitTx(sub.Tx)
		}
	case wire.TypeRangeZone:
		if n.cfg.Dist != nil {
			n.cfg.Dist.Receive(from, m)
			break
		}
		fallthrough
	default:
		n.ctx.Logf("node: unroutable message %s from %d", wire.TypeName(m.Type()), from)
	}
}

// handleCommit executes a committed block on the node's state machine
// and fans it out to measurement hooks and client replies. Every mode and
// engine commits through it.
func (n *Node) handleCommit(height uint64, txs []*types.Transaction) {
	if n.cfg.Executor != nil {
		r := n.cfg.Executor.ExecuteBlock(nil, height, txs)
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
	// The grouping lives on the node; the replies and the seqs they alias
	// are two slabs per block, since the replies sent reference them.
	next, clients := n.replyNext, n.replyClients[:0]
	clear(next)
	for _, tx := range txs {
		if _, ok := next[tx.Client]; !ok {
			clients = append(clients, tx.Client)
		}
		next[tx.Client]++
	}
	slices.Sort(clients)
	n.replyClients = clients
	off := 0
	for _, client := range clients {
		off, next[client] = off+next[client], off
	}
	seqs := make([]uint64, len(txs))
	for _, tx := range txs {
		seqs[next[tx.Client]] = tx.Seq
		next[tx.Client]++
	}
	replies := make([]types.BlockReply, len(clients))
	off = 0
	for i, client := range clients {
		end := next[client]
		replies[i] = types.BlockReply{Height: height, Replica: n.cfg.Self, Seqs: seqs[off:end:end]}
		n.ctx.Send(client, &replies[i])
		off = end
	}
}
