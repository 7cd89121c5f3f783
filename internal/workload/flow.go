package workload

import (
	"math"
	"time"

	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/types"
	"predis/internal/wire"
)

// FlowConfig parameterizes an aggregated client flow.
type FlowConfig struct {
	// Self is the flow's wire node ID: every transaction is submitted from
	// (and confirmed back to) this node.
	Self wire.NodeID
	// FirstClient and Clients define the logical client population the
	// flow aggregates: logical IDs FirstClient .. FirstClient+Clients-1.
	// Logical clients exist for addressing only (operation generation and
	// per-client sequence spaces); they own no simulator node, no timer,
	// and no NIC.
	FirstClient wire.NodeID
	Clients     int
	// Targets are the consensus nodes to submit to.
	Targets []wire.NodeID
	// Policy selects the target distribution (default RoundRobin).
	Policy TargetPolicy
	// Rate is the aggregate offered load of the whole flow in tx/s.
	Rate float64
	// TxSize is the transaction wire size (paper: 512 B).
	TxSize uint32
	// F is the fault bound; confirmation needs F+1 matching replies.
	F int
	// Epoch anchors Transaction.Submitted timestamps.
	Epoch time.Time
	// GenStart and GenStop bound transaction generation.
	GenStart, GenStop time.Time
	// Tick is the batching granularity (default 10ms): each tick submits
	// one Poisson draw's worth of transactions in a single event instead
	// of arming one timer per logical client.
	Tick time.Duration
	// Seed drives the flow's splitmix64 stream (Poisson arrivals and
	// logical-client addressing). Two flows with equal config and Seed
	// generate identical transaction sequences.
	Seed uint64
	// Collector receives measurements (may be nil).
	Collector *Collector
	// Trace, when non-nil, receives the submit-stage anchor per
	// transaction.
	Trace *obs.Tracer
	// Ops, when non-nil, attaches a semantic operation addressed by
	// (logical client, per-client seq); it must be a pure function of its
	// arguments so generation stays deterministic.
	Ops func(client wire.NodeID, seq uint64) types.Op
}

// Flow is an aggregated open-loop generator: one env.Handler (one node,
// one timer) standing in for thousands of logical clients. Arrivals are
// Poisson with the configured aggregate rate, drawn from a private
// splitmix64 stream; each transaction is attributed to a splitmix64-chosen
// logical client, so the (client, seq) labeling is deterministic and
// independent of how the population is sharded across flows.
//
// Per-logical-client generators cost one timer event per client per tick
// — 10⁵ clients at 10 ms ticks is 10⁷ events per simulated second before
// any transaction flows. A Flow costs one event per tick total, which is
// what makes 10⁴–10⁵-node populations simulable (ROADMAP 3a).
type Flow struct {
	cfg  FlowConfig
	ctx  env.Context
	rng  uint64 // splitmix64 state
	seq  uint64 // global wire sequence (tx identity is (Self, seq))
	next int    // round-robin cursor

	// clientSeqs holds the per-logical-client sequence counters indexed
	// by client offset; lazily grown nowhere — sized once at build.
	clientSeqs []uint64

	pending map[uint64]*pendingTx
	replies replySlab
}

var _ env.Handler = (*Flow)(nil)

// NewFlow builds an aggregated flow.
func NewFlow(cfg FlowConfig) *Flow {
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.Policy == 0 {
		cfg.Policy = RoundRobin
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	return &Flow{
		cfg:        cfg,
		rng:        cfg.Seed ^ (uint64(cfg.Self)+1)*0x9e3779b97f4a7c15,
		clientSeqs: make([]uint64, cfg.Clients),
		pending:    make(map[uint64]*pendingTx),
	}
}

// Submitted returns the number of transactions sent so far.
func (f *Flow) Submitted() uint64 { return f.seq }

// PendingCount returns in-flight (unconfirmed) transactions.
func (f *Flow) PendingCount() int { return len(f.pending) }

// ClientSeq returns how many transactions logical client
// FirstClient+offset has submitted.
func (f *Flow) ClientSeq(offset int) uint64 { return f.clientSeqs[offset] }

// Start implements env.Handler.
func (f *Flow) Start(ctx env.Context) {
	f.ctx = ctx
	delay := f.cfg.GenStart.Sub(ctx.Now())
	if delay < 0 {
		delay = 0
	}
	ctx.After(delay, f.tick)
}

// tick submits one Poisson draw's worth of transactions and re-arms while
// generation is open. Confirmations arrive through Receive and need no
// ticks, so the flow never keeps an idle network alive.
func (f *Flow) tick() {
	now := f.ctx.Now()
	if now.After(f.cfg.GenStop) {
		return
	}
	n := poisson(&f.rng, f.cfg.Rate*f.cfg.Tick.Seconds())
	for i := 0; i < n; i++ {
		f.submitOne(now)
	}
	f.ctx.After(f.cfg.Tick, f.tick)
}

func (f *Flow) submitOne(now time.Time) {
	// Attribute the transaction to a logical client; the wire identity
	// stays (Self, global seq) so replies route back to the flow's node.
	offset := int(nextRand(&f.rng) % uint64(f.cfg.Clients))
	f.clientSeqs[offset]++
	f.seq++
	tx := types.NewTransaction(f.cfg.Self, f.seq, f.cfg.TxSize, now.Sub(f.cfg.Epoch))
	if f.cfg.Ops != nil {
		tx.WithOp(f.cfg.Ops(f.cfg.FirstClient+wire.NodeID(offset), f.clientSeqs[offset]))
	}
	f.pending[f.seq] = &pendingTx{tx: tx, submitted: now, lastSent: now, replies: f.replies.take(f.cfg.F + 1)}
	f.cfg.Trace.Mark(obs.StageSubmit, obs.TxKey(f.cfg.Self, f.seq), now)
	switch f.cfg.Policy {
	case Broadcast:
		for _, target := range f.cfg.Targets {
			f.ctx.Send(target, &types.SubmitTx{Tx: tx, Target: target})
		}
	case RoundRobin:
		target := f.cfg.Targets[f.next%len(f.cfg.Targets)]
		f.next++
		f.ctx.Send(target, &types.SubmitTx{Tx: tx, Target: target})
	default: // FirstOnly
		f.ctx.Send(f.cfg.Targets[0], &types.SubmitTx{Tx: tx, Target: f.cfg.Targets[0]})
	}
	if f.cfg.Collector != nil {
		f.cfg.Collector.RecordSubmit(now)
	}
}

// Receive implements env.Handler: count replies toward the f+1 quorum,
// exactly the Client rule.
func (f *Flow) Receive(from wire.NodeID, m wire.Message) {
	switch reply := m.(type) {
	case *types.BlockReply:
		now := f.ctx.Now()
		for _, seq := range reply.Seqs {
			p, ok := f.pending[seq]
			if !ok || p.done {
				continue
			}
			p.addReply(reply.Replica)
			if len(p.replies) >= f.cfg.F+1 {
				p.done = true
				if f.cfg.Collector != nil {
					f.cfg.Collector.RecordConfirm(p.submitted, now)
				}
				delete(f.pending, seq)
			}
		}
	default:
		// Flows ignore everything that is not a reply.
	}
}

// nextRand advances the stream state by the golden-ratio increment and
// mixes it through the SplitMix64 finalizer (shared with zipf.go) — the
// standard SplitMix64 generator: one multiply-xor chain per draw, fully
// reproducible from a single word of state.
func nextRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return splitmix64(*state)
}

// unit maps one stream draw to a uniform in [0, 1).
func unit(state *uint64) float64 {
	return float64(nextRand(state)>>11) / (1 << 53)
}

// poisson draws from Poisson(lambda) using Knuth's product method on the
// splitmix64 stream, chunking large lambda so exp(-lambda) never
// underflows. Deterministic given the stream state.
func poisson(state *uint64, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	n := 0
	for lambda > 0 {
		chunk := lambda
		if chunk > 30 {
			chunk = 30
		}
		lambda -= chunk
		limit := math.Exp(-chunk)
		p := 1.0
		for {
			p *= unit(state)
			if p <= limit {
				break
			}
			n++
		}
	}
	return n
}
