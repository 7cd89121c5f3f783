// Package txpool is the baseline data production strategy: a FIFO
// transaction pool whose proposals are plain batches carrying the full
// transactions. Vanilla PBFT and vanilla HotStuff in the evaluation use
// this application, so the leader's proposal grows linearly with the batch
// size — exactly the bottleneck Predis removes.
package txpool

import (
	"errors"
	"fmt"
	"sync"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/merkle"
	"predis/internal/types"
	"predis/internal/wire"
)

// TypeBatch tags the batch proposal payload.
const TypeBatch = wire.TypeRangeTxPool + 1

// Batch is a consensus payload carrying full transactions.
type Batch struct {
	Height uint64
	Txs    []*types.Transaction
}

var _ wire.Message = (*Batch)(nil)

// Type implements wire.Message.
func (b *Batch) Type() wire.Type { return TypeBatch }

// WireSize implements wire.Message.
func (b *Batch) WireSize() int { return wire.FrameOverhead + 8 + types.SizeTxs(b.Txs) }

// EncodeBody implements wire.Message.
func (b *Batch) EncodeBody(e *wire.Encoder) {
	e.U64(b.Height)
	types.EncodeTxs(e, b.Txs)
}

func decodeBatch(d *wire.Decoder) (wire.Message, error) {
	h := d.U64()
	txs, err := types.DecodeTxs(d)
	if err != nil {
		return nil, err
	}
	return &Batch{Height: h, Txs: txs}, d.Err()
}

// Digest returns the batch identity: height plus the Merkle root of the
// transaction hashes.
func (b *Batch) Digest() crypto.Hash {
	leaves := make([]crypto.Hash, len(b.Txs))
	for i, t := range b.Txs {
		h := t.Hash()
		leaves[i] = merkle.HashLeaf(h[:])
	}
	root := merkle.RootOfHashes(leaves)
	e := wire.NewEncoder(40)
	e.U64(b.Height)
	e.Bytes32(root)
	return crypto.HashBytes(e.Bytes())
}

var registerOnce sync.Once

// RegisterMessages registers the batch payload type; idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeBatch, "txpool.batch", decodeBatch)
	})
}

// Options configures the baseline application.
type Options struct {
	// BatchSize is the maximum transactions per proposal (the paper
	// sweeps 400 and 800 in Fig. 4).
	BatchSize int
	// OnCommit receives committed batches in order.
	OnCommit func(height uint64, txs []*types.Transaction)
}

// App is the baseline consensus.Application. It must run on the node's
// serialized executor.
//
// Clients broadcast commands to every replica (the BFT-SMaRt / HotStuff
// client model), so the pool dedupes: a transaction already pooled or
// already committed is dropped, and commits executed by other leaders
// purge the local queue lazily.
type App struct {
	opts   Options
	ctx    env.Context
	engine consensus.Engine
	queue  []*types.Transaction
	seen   map[crypto.Hash]struct{} // pooled or committed
	done   map[crypto.Hash]struct{} // committed

	lastHeight uint64
	committed  uint64
}

var _ consensus.Application = (*App)(nil)

// New builds the baseline app.
func New(opts Options) (*App, error) {
	if opts.BatchSize <= 0 {
		return nil, errors.New("txpool: BatchSize must be positive")
	}
	return &App{
		opts: opts,
		seen: make(map[crypto.Hash]struct{}),
		done: make(map[crypto.Hash]struct{}),
	}, nil
}

// SetEngine wires the consensus engine for pokes.
func (a *App) SetEngine(e consensus.Engine) { a.engine = e }

// Start implements env.Handler. The pool arms no timer; it keeps the
// context for logging.
func (a *App) Start(ctx env.Context) { a.ctx = ctx }

// OnRestart implements env.Restartable. The pool arms no timer, so a
// restart has nothing to re-arm.
func (a *App) OnRestart() {}

// Receive implements env.Handler. The pool takes transactions only
// through SubmitTx, so any message routed here is unexpected.
func (a *App) Receive(from wire.NodeID, m wire.Message) {
	a.ctx.Logf("txpool: unexpected %s from %d", wire.TypeName(m.Type()), from)
}

// SubmitTx enqueues a transaction unless it is already pooled or
// committed, and pokes the engine: a leader may now have a batch to
// propose.
func (a *App) SubmitTx(tx *types.Transaction) {
	h := tx.Hash()
	if _, ok := a.seen[h]; !ok {
		a.seen[h] = struct{}{}
		a.queue = append(a.queue, tx)
	}
	if a.engine != nil {
		a.engine.Poke()
	}
}

// QueueLen returns the number of pooled transactions.
func (a *App) QueueLen() int { return len(a.queue) }

// Committed returns the number of committed transactions.
func (a *App) Committed() uint64 { return a.committed }

// HasPendingWork implements consensus.Application.
func (a *App) HasPendingWork() bool {
	a.compact()
	return len(a.queue) > 0
}

// BuildProposal implements consensus.Application. Transactions are removed
// from the pool optimistically; if the proposal dies in a view change it is
// re-proposed from the prepared set carried by the view-change messages,
// so transactions are not lost in the common path.
func (a *App) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	a.compact()
	if len(a.queue) == 0 {
		return nil, crypto.ZeroHash, false
	}
	n := a.opts.BatchSize
	if n > len(a.queue) {
		n = len(a.queue)
	}
	batch := &Batch{Height: height, Txs: a.queue[:n:n]}
	a.queue = a.queue[n:]
	return batch, batch.Digest(), true
}

// compact removes transactions that committed via another leader's block.
func (a *App) compact() {
	kept := a.queue[:0]
	for _, tx := range a.queue {
		if _, ok := a.done[tx.Hash()]; !ok {
			kept = append(kept, tx)
		}
	}
	a.queue = kept
}

// ValidateProposal implements consensus.Application.
func (a *App) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	b, ok := payload.(*Batch)
	if !ok {
		return crypto.ZeroHash, fmt.Errorf("txpool: payload is %T", payload)
	}
	if b.Height != height {
		return crypto.ZeroHash, fmt.Errorf("txpool: batch height %d at consensus height %d", b.Height, height)
	}
	if len(b.Txs) == 0 {
		return crypto.ZeroHash, errors.New("txpool: empty batch")
	}
	return b.Digest(), nil
}

// OnCommit implements consensus.Application. Transactions that already
// committed in an earlier block (possible when a view change causes a
// re-proposal race) are filtered so downstream consumers never see a
// transaction twice.
func (a *App) OnCommit(height uint64, payload wire.Message) {
	b, ok := payload.(*Batch)
	if !ok {
		return
	}
	a.lastHeight = height
	fresh := b.Txs[:0:0]
	for _, tx := range b.Txs {
		h := tx.Hash()
		if _, dup := a.done[h]; dup {
			continue
		}
		a.done[h] = struct{}{}
		a.seen[h] = struct{}{}
		fresh = append(fresh, tx)
	}
	a.committed += uint64(len(fresh))
	if a.opts.OnCommit != nil {
		a.opts.OnCommit(height, fresh)
	}
}
