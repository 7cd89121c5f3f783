// Package workload provides open-loop transaction generators (clients) and
// the measurement collector used by every throughput/latency experiment.
//
// A client is an env.Handler: it generates transactions at a configured
// rate, submits them to consensus nodes, and counts a transaction as
// confirmed once f+1 distinct replicas reply (the standard BFT client
// rule). Latency is submit → (f+1)-th reply, matching §V-A's definition:
// "the time elapsed from when a client sends a transaction to replicas to
// when the client receives a reply".
package workload

import (
	"time"

	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/stats"
	"predis/internal/types"
	"predis/internal/wire"
)

// Collector aggregates measurements across clients and nodes. All methods
// are called from the simulator's single goroutine, so no locking is
// needed.
type Collector struct {
	// WarmupEnd and MeasureEnd bound the measurement window.
	WarmupEnd, MeasureEnd time.Time

	latencies []time.Duration
	confirmed int
	submitted int

	// nodeCommitted counts transactions committed at the observer node
	// within the window (consensus-side throughput).
	nodeCommitted int
	blocks        int
}

// NewCollector builds a collector measuring inside [warmupEnd, measureEnd].
func NewCollector(warmupEnd, measureEnd time.Time) *Collector {
	return &Collector{WarmupEnd: warmupEnd, MeasureEnd: measureEnd}
}

func (c *Collector) inWindow(at time.Time) bool {
	return !at.Before(c.WarmupEnd) && at.Before(c.MeasureEnd)
}

// RecordSubmit notes a submitted transaction.
func (c *Collector) RecordSubmit(at time.Time) {
	if c.inWindow(at) {
		c.submitted++
	}
}

// RecordConfirm notes a client-confirmed transaction (f+1 replies).
func (c *Collector) RecordConfirm(submitted, done time.Time) {
	if c.inWindow(done) {
		c.confirmed++
		c.latencies = append(c.latencies, done.Sub(submitted))
	}
}

// RecordNodeCommit notes txs committed at the observer node.
func (c *Collector) RecordNodeCommit(at time.Time, txs int) {
	if c.inWindow(at) {
		c.nodeCommitted += txs
		c.blocks++
	}
}

// Window returns the measurement window length.
func (c *Collector) Window() time.Duration { return c.MeasureEnd.Sub(c.WarmupEnd) }

// Throughput returns consensus-side throughput in tx/s.
func (c *Collector) Throughput() float64 {
	return stats.Throughput(c.nodeCommitted, c.Window())
}

// ClientThroughput returns client-confirmed throughput in tx/s.
func (c *Collector) ClientThroughput() float64 {
	return stats.Throughput(c.confirmed, c.Window())
}

// Latency summarizes client-observed latencies.
func (c *Collector) Latency() stats.Summary { return stats.Summarize(c.latencies) }

// Counts returns (submitted, confirmed, node-committed, blocks) within the
// window.
func (c *Collector) Counts() (submitted, confirmed, committed, blocks int) {
	return c.submitted, c.confirmed, c.nodeCommitted, c.blocks
}

// TargetPolicy selects how a client spreads transactions over consensus
// nodes.
type TargetPolicy int

// Target policies.
const (
	// RoundRobin spreads transactions across all targets — the natural
	// policy for Predis, where every consensus node packs bundles.
	RoundRobin TargetPolicy = iota + 1
	// FirstOnly submits everything to the first target — the natural
	// policy for baseline leader-based protocols, where only the leader
	// packs blocks.
	FirstOnly
	// Broadcast submits every transaction to all targets, the behaviour
	// of BFT-SMaRt and HotStuff clients: with rotating leaders every
	// replica needs the command in its pool. Replicas dedupe at commit.
	Broadcast
)

// ClientConfig parameterizes a client.
type ClientConfig struct {
	// Self is the client's node ID (distinct from consensus IDs).
	Self wire.NodeID
	// Targets are the consensus nodes to submit to.
	Targets []wire.NodeID
	// Policy selects the target distribution.
	Policy TargetPolicy
	// Rate is the offered load in tx/s.
	Rate float64
	// TxSize is the transaction wire size (paper: 512 B).
	TxSize uint32
	// F is the fault bound; confirmation needs F+1 matching replies.
	F int
	// Epoch anchors Transaction.Submitted timestamps.
	Epoch time.Time
	// GenStart and GenStop bound transaction generation.
	GenStart, GenStop time.Time
	// Tick is the generation granularity (default 10ms).
	Tick time.Duration
	// ResubmitAfter, when positive, re-sends a still-unconfirmed
	// transaction to a different consensus node after the given age — the
	// paper's censorship-attack counter-measure (§III-E: a transaction is
	// packed after at most f+1 attempts). Zero disables resubmission.
	//
	// It also turns on resubmission on evidence (see resendPassed): once a
	// transaction sent only to one target confirms, every pending one sent
	// to that target before it without a single reply is re-sent at once,
	// not after the timer — it was dropped, as a FIFO link, a FIFO target
	// queue and in-order inclusion mean that it would otherwise have
	// committed no later. Predis keeps that order; a microblock leader
	// proposes certified microblocks in the order their certificates reach
	// it, which can invert a producer's order, so with that app an early
	// resend can commit a transaction twice (DESIGN.md, "Client
	// resubmission"). Broadcast submissions are exempt.
	ResubmitAfter time.Duration
	// Collector receives measurements (may be nil).
	Collector *Collector
	// Trace, when non-nil, receives the submit-stage anchor for every
	// transaction (closed by the receiving consensus node). Nil disables
	// tracing at zero cost.
	Trace *obs.Tracer
	// Ops, when non-nil, attaches a semantic operation to every generated
	// transaction (see types.Op and internal/exec); it must be a pure
	// function of its arguments so generation stays deterministic. Nil
	// keeps transactions opaque payloads.
	Ops func(client wire.NodeID, seq uint64) types.Op
}

// Client is an open-loop transaction generator.
type Client struct {
	cfg  ClientConfig
	ctx  env.Context
	seq  uint64
	next int // round-robin cursor
	frac float64
	// onTick is tick bound once, the ticker's callback.
	onTick func()

	pending map[uint64]*pendingTx
	replies replySlab
	// free holds the entries of confirmed transactions, reset for reuse,
	// so entries are allocated only up to the peak pending count.
	free []*pendingTx
	// sends numbers every send; onTimer and onEvidence count the
	// resubmissions by what queued them.
	sends               uint64
	onTimer, onEvidence uint64

	// Resubmission state (only populated when ResubmitAfter > 0). dueQ
	// holds every send in send order; deadlines are lastSent +
	// ResubmitAfter on a monotonic clock, so they fall due in that order
	// too. readyQ holds due transactions by seq, so a tick resubmits the
	// oldest first and each tick touches only due entries. A send record
	// goes stale in place once its transaction confirms or is sent again
	// (see current), and is discarded on pop.
	dueQ   ring
	readyQ []uint64
	// sentTo[t] is the order of sends to Targets[t] that no confirmation
	// has passed yet, and passed[t] the send number of the latest
	// confirmed first send to Targets[t] (see resendPassed). Both are nil
	// under Broadcast.
	sentTo []ring
	passed []uint64
}

// Why a pending transaction waits in readyQ.
const (
	notQueued uint8 = iota
	queuedOnTimer
	queuedOnEvidence
)

type pendingTx struct {
	tx        *types.Transaction
	submitted time.Time
	lastSent  time.Time
	sent      uint64 // send number of the last send
	target    int    // index into Targets of the last submission
	resubmits int
	replies   []wire.NodeID // distinct repliers so far, sized F+1 at submit
	queued    uint8         // notQueued, or why it waits in readyQ
	done      bool
}

// replySlab carves the F+1-slot reply sets of pending transactions out of
// shared blocks, so a transaction's quorum bookkeeping costs 1/replySlabSets
// of an allocation instead of one per slice doubling (four at F+1 = 6). A
// block is collected once every transaction cut from it has confirmed.
type replySlab struct{ free []wire.NodeID }

// replySlabSets is how many reply sets one slab block holds.
const replySlabSets = 256

// take returns an empty reply set with room for n repliers.
func (s *replySlab) take(n int) []wire.NodeID {
	if len(s.free) < n {
		s.free = make([]wire.NodeID, n*replySlabSets) //predis:allocok slab refill, amortized to 1/replySlabSets per submit
	}
	set := s.free[:0:n]
	s.free = s.free[n:]
	return set
}

// addReply records a distinct replier. The quorum is tiny (F+1), so a
// linear scan over a preallocated slice beats a per-transaction map both
// in allocation count and in lookup cost.
func (p *pendingTx) addReply(id wire.NodeID) {
	for _, r := range p.replies {
		if r == id {
			return
		}
	}
	p.replies = append(p.replies, id)
}

var _ env.Handler = (*Client)(nil)

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.Policy == 0 {
		cfg.Policy = RoundRobin
	}
	c := &Client{cfg: cfg, pending: make(map[uint64]*pendingTx)}
	if cfg.ResubmitAfter > 0 && cfg.Policy != Broadcast {
		c.sentTo = make([]ring, len(cfg.Targets))
		c.passed = make([]uint64, len(cfg.Targets))
	}
	return c
}

// ID returns the client's node ID.
func (c *Client) ID() wire.NodeID { return c.cfg.Self }

// Submitted returns the number of transactions sent so far.
func (c *Client) Submitted() uint64 { return c.seq }

// PendingCount returns in-flight (unconfirmed) transactions.
func (c *Client) PendingCount() int { return len(c.pending) }

// Resubmitted returns how many censorship-escape resubmissions happened.
func (c *Client) Resubmitted() uint64 { return c.onTimer + c.onEvidence }

// Resubmits splits Resubmitted by cause: resends of transactions that the
// evidence rule found dropped, and resends of transactions that outlived
// ResubmitAfter.
func (c *Client) Resubmits() (onEvidence, onTimer uint64) { return c.onEvidence, c.onTimer }

// Start implements env.Handler.
func (c *Client) Start(ctx env.Context) {
	c.ctx = ctx
	c.onTick = c.tick
	delay := c.cfg.GenStart.Sub(ctx.Now())
	if delay < 0 {
		delay = 0
	}
	ctx.After(delay, c.onTick)
}

// tick generates the current interval's transactions and re-arms. When
// resubmission is enabled, the ticker also outlives generation so stuck
// transactions keep escaping to other nodes.
func (c *Client) tick() {
	now := c.ctx.Now()
	generating := !now.After(c.cfg.GenStop)
	if generating {
		c.frac += c.cfg.Rate * c.cfg.Tick.Seconds()
		n := int(c.frac)
		c.frac -= float64(n)
		for i := 0; i < n; i++ {
			c.submitOne(now)
		}
	}
	if c.cfg.ResubmitAfter > 0 {
		c.resubmitOverdue(now)
	}
	if generating || (c.cfg.ResubmitAfter > 0 && len(c.pending) > 0) {
		c.ctx.After(c.cfg.Tick, c.onTick)
	}
}

// resubmitOverdue re-sends unconfirmed transactions to the next consensus
// node (§III-E): with at most f faulty nodes, f+1 attempts reach an honest
// packer. A few per tick bounds the extra load. Sends whose deadline has
// passed move from dueQ to readyQ, where resendPassed also queues the
// transactions it finds dropped, and the perTick resubmissions pop readyQ
// in ascending sequence order — never map order (predis-lint:
// determinism).
func (c *Client) resubmitOverdue(now time.Time) {
	const perTick = 8
	for c.dueQ.len() > 0 {
		r := c.dueQ.front()
		p := c.current(r)
		if p != nil && p.lastSent.Add(c.cfg.ResubmitAfter).After(now) {
			break
		}
		c.dueQ.pop()
		if p != nil && p.queued == notQueued {
			p.queued = queuedOnTimer
			seqPush(&c.readyQ, r.seq)
		}
	}
	count := 0
	for count < perTick && len(c.readyQ) > 0 {
		seq := seqPop(&c.readyQ)
		p, ok := c.pending[seq]
		if !ok || p.done {
			continue // confirmed while waiting in the ready queue
		}
		if p.queued == queuedOnEvidence {
			c.onEvidence++
		} else {
			c.onTimer++
		}
		p.queued = notQueued
		p.target = (p.target + 1) % len(c.cfg.Targets)
		p.lastSent = now
		p.resubmits++
		c.record(seq, p)
		target := c.cfg.Targets[p.target]
		c.ctx.Send(target, &types.SubmitTx{Tx: p.tx, Target: target})
		count++
	}
}

// record numbers p's latest send — to Targets[p.target] at p.lastSent —
// and files it in the resubmission queues.
func (c *Client) record(seq uint64, p *pendingTx) {
	c.sends++
	p.sent = c.sends
	if c.cfg.ResubmitAfter <= 0 {
		return
	}
	r := sendRec{seq: seq, n: p.sent}
	c.dueQ.push(r)
	if c.sentTo != nil {
		// Stale records leave the front first, so a target whose first
		// sends never confirm (down for good, or sent only resends) holds
		// no more than its sends of the last ResubmitAfter.
		q := &c.sentTo[p.target]
		for q.len() > 0 && c.current(q.front()) == nil {
			q.pop()
		}
		q.push(r)
	}
}

// current returns the pending transaction r is the latest send of, or nil
// once r is stale.
func (c *Client) current(r sendRec) *pendingTx {
	if p, ok := c.pending[r.seq]; ok && !p.done && p.sent == r.n {
		return p
	}
	return nil
}

// resendPassed applies the evidence rule after a reply has been processed
// in full: for each target, every send older than the latest confirmed
// first send to it leaves sentTo, and a transaction so passed that has no
// reply at all is queued for resubmission now. It was dropped, not merely
// late: the link to the target is FIFO, the target queues submissions in
// arrival order, a block cuts a producer's chain as a prefix, and each
// replica replies in height order — and only f replicas may skip a block,
// so one of the f+1 that confirmed the later send has replied for the
// earlier one, had it committed. A resubmitted transaction is no evidence:
// an earlier target may have packed it. Each send is popped once, so the
// rule costs O(1) per send amortized.
func (c *Client) resendPassed() {
	for t := range c.sentTo {
		q := &c.sentTo[t]
		for q.len() > 0 && q.front().n <= c.passed[t] {
			r := q.front()
			q.pop()
			if p := c.current(r); p != nil && len(p.replies) == 0 && p.queued == notQueued {
				p.queued = queuedOnEvidence
				seqPush(&c.readyQ, r.seq)
			}
		}
	}
}

// submission is a transaction allocated together with the message that
// first sends it, so a submit costs one allocation. The message is never
// reused: a queued copy can outlive its transaction's confirmation.
type submission struct {
	tx  types.Transaction
	msg types.SubmitTx
}

// submitOne generates, records and sends the next transaction, in one
// allocation apart from free-list misses and Broadcast's extra targets.
//
//predis:hotpath
func (c *Client) submitOne(now time.Time) {
	c.seq++
	s := &submission{tx: types.MakeTransaction(c.cfg.Self, c.seq, c.cfg.TxSize, now.Sub(c.cfg.Epoch))} //predis:allocok the transaction and its first SubmitTx, together
	tx := &s.tx
	if c.cfg.Ops != nil {
		tx.WithOp(c.cfg.Ops(c.cfg.Self, c.seq))
	}
	var p *pendingTx
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = &pendingTx{replies: c.replies.take(c.cfg.F + 1)} //predis:allocok free-list miss
	}
	p.tx, p.submitted, p.lastSent = tx, now, now
	c.pending[c.seq] = p
	if c.cfg.Policy == RoundRobin {
		p.target = c.next % len(c.cfg.Targets)
		c.next++
	}
	c.record(c.seq, p)
	// Anchor the submit stage; the first consensus node to receive the
	// transaction closes the span (earliest mark wins, so broadcast and
	// resubmission never distort it).
	c.cfg.Trace.Mark(obs.StageSubmit, obs.TxKey(c.cfg.Self, c.seq), now)
	targets := c.cfg.Targets[p.target : p.target+1] // RoundRobin and FirstOnly: one target
	if c.cfg.Policy == Broadcast {
		targets = c.cfg.Targets
	}
	s.msg = types.SubmitTx{Tx: tx, Target: targets[0]}
	c.ctx.Send(targets[0], &s.msg)
	for _, target := range targets[1:] {
		c.ctx.Send(target, &types.SubmitTx{Tx: tx, Target: target}) //predis:allocok one message per further Broadcast target
	}
	if c.cfg.Collector != nil {
		c.cfg.Collector.RecordSubmit(now)
	}
}

// Receive implements env.Handler: count replies toward the f+1 quorum.
func (c *Client) Receive(from wire.NodeID, m wire.Message) {
	reply, ok := m.(*types.BlockReply)
	if !ok {
		return
	}
	now := c.ctx.Now()
	evidence := false
	for _, seq := range reply.Seqs {
		p, ok := c.pending[seq]
		if !ok || p.done {
			continue
		}
		p.addReply(reply.Replica)
		if len(p.replies) >= c.cfg.F+1 {
			p.done = true
			if c.cfg.Collector != nil {
				c.cfg.Collector.RecordConfirm(p.submitted, now)
			}
			if c.passed != nil && p.resubmits == 0 {
				c.passed[p.target] = max(c.passed[p.target], p.sent)
				evidence = true
			}
			delete(c.pending, seq)
			*p = pendingTx{replies: p.replies[:0]}
			c.free = append(c.free, p)
		}
	}
	if evidence {
		c.resendPassed()
	}
}
