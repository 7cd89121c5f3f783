package workload

import (
	"math/rand"
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// capture records every message a node receives.
type capture struct {
	ctx env.Context
	got []wire.Message
}

func (c *capture) Start(ctx env.Context)                    { c.ctx = ctx }
func (c *capture) Receive(from wire.NodeID, m wire.Message) { c.got = append(c.got, m) }

func buildClientNet(t *testing.T, policy TargetPolicy, rate float64) (*simnet.Network, *Client, []*capture, *Collector) {
	t.Helper()
	types.RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond), Seed: 2})
	targets := []*capture{{}, {}, {}, {}}
	ids := make([]wire.NodeID, len(targets))
	for i, c := range targets {
		ids[i] = wire.NodeID(i)
		net.AddNode(wire.NodeID(i), c)
	}
	col := NewCollector(simnet.Epoch, simnet.Epoch.Add(5*time.Second))
	cl := NewClient(ClientConfig{
		Self:      100,
		Targets:   ids,
		Policy:    policy,
		Rate:      rate,
		TxSize:    512,
		F:         1,
		Epoch:     simnet.Epoch,
		GenStart:  simnet.Epoch,
		GenStop:   simnet.Epoch.Add(time.Second),
		Collector: col,
	})
	net.AddNode(100, cl)
	return net, cl, targets, col
}

func TestClientRoundRobinRate(t *testing.T) {
	net, cl, targets, _ := buildClientNet(t, RoundRobin, 400)
	net.Start()
	net.Run(2 * time.Second)
	total := 0
	for _, c := range targets {
		total += len(c.got)
	}
	// Open loop at 400 tx/s for 1s: ~400 messages spread evenly.
	if total < 350 || total > 450 {
		t.Fatalf("delivered %d txs, want ≈400", total)
	}
	for i, c := range targets {
		if len(c.got) < total/8 {
			t.Fatalf("target %d starved: %d of %d", i, len(c.got), total)
		}
	}
	if cl.Submitted() == 0 || cl.PendingCount() == 0 {
		t.Fatal("client bookkeeping empty")
	}
}

func TestClientBroadcast(t *testing.T) {
	net, _, targets, _ := buildClientNet(t, Broadcast, 100)
	net.Start()
	net.Run(2 * time.Second)
	// Every target receives every transaction.
	n := len(targets[0].got)
	if n < 80 {
		t.Fatalf("target 0 got %d", n)
	}
	for i, c := range targets {
		if len(c.got) != n {
			t.Fatalf("target %d got %d, target 0 got %d", i, len(c.got), n)
		}
	}
}

func TestClientFirstOnly(t *testing.T) {
	net, _, targets, _ := buildClientNet(t, FirstOnly, 100)
	net.Start()
	net.Run(2 * time.Second)
	if len(targets[0].got) == 0 {
		t.Fatal("first target got nothing")
	}
	for i := 1; i < len(targets); i++ {
		if len(targets[i].got) != 0 {
			t.Fatalf("target %d got traffic under FirstOnly", i)
		}
	}
}

func TestClientConfirmsAtQuorum(t *testing.T) {
	types.RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	col := NewCollector(simnet.Epoch, simnet.Epoch.Add(time.Minute))
	cl := NewClient(ClientConfig{
		Self: 100, Targets: []wire.NodeID{0}, Rate: 0, TxSize: 512, F: 1,
		Epoch: simnet.Epoch, GenStart: simnet.Epoch, GenStop: simnet.Epoch,
		Collector: col,
	})
	sink := &capture{}
	net.AddNode(0, sink)
	net.AddNode(100, cl)
	net.Start()
	// Submit one tx manually by driving the client's internals through a
	// simulated reply exchange: inject replies for a fabricated pending tx.
	cl.pending[7] = &pendingTx{submitted: net.Now()}
	cl.Receive(1, &types.BlockReply{Height: 1, Replica: 1, Seqs: []uint64{7}})
	if len(cl.pending) != 1 {
		t.Fatal("one reply must not confirm with f=1")
	}
	// Duplicate replica reply does not count twice.
	cl.Receive(1, &types.BlockReply{Height: 1, Replica: 1, Seqs: []uint64{7}})
	if len(cl.pending) != 1 {
		t.Fatal("duplicate reply confirmed the tx")
	}
	cl.Receive(2, &types.BlockReply{Height: 1, Replica: 2, Seqs: []uint64{7}})
	if len(cl.pending) != 0 {
		t.Fatal("f+1 distinct replies must confirm")
	}
	_, confirmed, _, _ := col.Counts()
	if confirmed != 1 {
		t.Fatalf("confirmed = %d", confirmed)
	}
}

// delivery is one submission as a target received it.
type delivery struct {
	target wire.NodeID
	seq    uint64
	at     time.Duration
}

// fifoTarget stands in for a consensus node: it logs every submission in
// delivery order and, unless down, queues it in arrival order, as a Predis
// producer does before sealing its queue into bundles. The targets double
// as the replicas that reply to the client (see reply).
type fifoTarget struct {
	id    wire.NodeID
	ctx   env.Context
	down  bool
	queue []uint64
	log   *[]delivery
}

func (f *fifoTarget) Start(ctx env.Context) { f.ctx = ctx }
func (f *fifoTarget) Receive(from wire.NodeID, m wire.Message) {
	sub, ok := m.(*types.SubmitTx)
	if !ok {
		return
	}
	*f.log = append(*f.log, delivery{f.id, sub.Tx.Seq, f.ctx.Now().Sub(simnet.Epoch)})
	if !f.down {
		f.queue = append(f.queue, sub.Tx.Seq)
	}
}

// cut removes and returns the first n transactions of the target's queue:
// its share of a block.
func (f *fifoTarget) cut(n int) []uint64 {
	seqs := f.queue[:n:n]
	f.queue = f.queue[n:]
	return seqs
}

// buildResubmitNet wires a client to four fifoTargets (IDs 0–3) and a
// shared delivery log. cfg supplies the policy, F and ResubmitAfter; the
// client generates nothing by itself, so a test submits with submitOne,
// or injects, and commits with cut and reply.
func buildResubmitNet(t *testing.T, cfg ClientConfig) (*simnet.Network, *Client, []*fifoTarget, *[]delivery) {
	t.Helper()
	types.RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond), Seed: 3})
	log := &[]delivery{}
	targets := make([]*fifoTarget, 4)
	cfg.Targets = make([]wire.NodeID, len(targets))
	for i := range targets {
		targets[i] = &fifoTarget{id: wire.NodeID(i), log: log}
		cfg.Targets[i] = wire.NodeID(i)
		net.AddNode(wire.NodeID(i), targets[i])
	}
	cfg.Self, cfg.TxSize = 100, 512
	cfg.Epoch, cfg.GenStart, cfg.GenStop = simnet.Epoch, simnet.Epoch, simnet.Epoch
	cl := NewClient(cfg)
	net.AddNode(100, cl)
	return net, cl, targets, log
}

// reply has each listed replica report a block of the client's seqs at
// height h, as node.handleCommit does.
func reply(targets []*fifoTarget, h uint64, seqs []uint64, replicas ...int) {
	for _, r := range replicas {
		targets[r].ctx.Send(100, &types.BlockReply{Height: h, Replica: wire.NodeID(r), Seqs: seqs})
	}
}

// inject places an unconfirmed transaction in the client's pending set,
// as if it had been submitted to Targets[target] at the epoch — including
// the send record submitOne would have filed.
func inject(cl *Client, seq uint64, target int, done bool) {
	p := &pendingTx{
		tx:        types.NewTransaction(100, seq, 512, 0),
		submitted: simnet.Epoch,
		lastSent:  simnet.Epoch,
		target:    target,
		done:      done,
	}
	cl.pending[seq] = p
	cl.record(seq, p)
}

// TestResubmitRotatesTargetsDeterministically pins §III-E's escape rule:
// every resubmission of a stuck transaction goes to the next consensus
// node in target order, so after at most f+1 attempts an honest packer
// sees it — and the rotation is a fixed, replayable sequence.
func TestResubmitRotatesTargetsDeterministically(t *testing.T) {
	net, cl, _, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 100 * time.Millisecond})
	net.Start()
	inject(cl, 1, 0, false) // last sent to target 0 at epoch
	net.Run(time.Second)

	if cl.Resubmitted() == 0 {
		t.Fatal("no resubmissions happened")
	}
	// The final resubmission may still be in flight when the run ends.
	if got, want := cl.Resubmitted(), uint64(len(*log)); got != want && got != want+1 {
		t.Fatalf("Resubmitted() = %d but %d deliveries", got, want)
	}
	// Rotation: 1, 2, 3, 0, 1, 2, ... (starting after the original
	// target 0), one step per ResubmitAfter interval.
	for i, e := range *log {
		if e.seq != 1 {
			t.Fatalf("delivery %d: seq %d, want 1", i, e.seq)
		}
		if want := wire.NodeID((i + 1) % 4); e.target != want {
			t.Fatalf("delivery %d went to target %d, want %d (rotation broken)",
				i, e.target, want)
		}
	}
	// ~9 resubmissions in 1s at 100ms cadence; exact count is pinned by
	// determinism, but assert the envelope so the test explains itself.
	if n := len(*log); n < 8 || n > 10 {
		t.Fatalf("resubmissions = %d, want ≈9", n)
	}
}

// TestResubmitPerTickCap asserts one tick resubmits at most 8 overdue
// transactions, oldest (lowest sequence) first, bounding the extra load
// a backlog can inject per interval.
func TestResubmitPerTickCap(t *testing.T) {
	net, cl, _, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: time.Millisecond})
	net.Start()
	for seq := uint64(1); seq <= 20; seq++ {
		inject(cl, seq, 0, false)
	}
	// One tick past the overdue threshold: ticks run at 0ms (nothing is
	// overdue yet) and 10ms (everything is); stop before the 20ms tick.
	net.Run(15 * time.Millisecond)

	if got := cl.Resubmitted(); got != 8 {
		t.Fatalf("Resubmitted() = %d after one tick, want 8 (perTick cap)", got)
	}
	seen := map[uint64]bool{}
	for _, e := range *log {
		seen[e.seq] = true
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if !seen[seq] {
			t.Fatalf("oldest-first violated: seq %d not resubmitted, got %v", seq, seen)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("resubmitted %d distinct txs, want the 8 oldest", len(seen))
	}
}

// TestResubmitSkipsConfirmed asserts a transaction that already reached
// its reply quorum is never resubmitted, no matter how old it is.
func TestResubmitSkipsConfirmed(t *testing.T) {
	net, cl, _, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 50 * time.Millisecond})
	net.Start()
	inject(cl, 1, 0, true)  // confirmed: must never move again
	inject(cl, 2, 0, false) // stuck: keeps escaping
	net.Run(500 * time.Millisecond)

	for i, e := range *log {
		if e.seq == 1 {
			t.Fatalf("delivery %d: confirmed tx 1 was resubmitted", i)
		}
	}
	if cl.Resubmitted() == 0 {
		t.Fatal("stuck tx 2 was never resubmitted")
	}
	// The final resubmission may still be in flight when the run ends.
	if got, want := cl.Resubmitted(), uint64(len(*log)); got != want && got != want+1 {
		t.Fatalf("Resubmitted() = %d but %d deliveries", got, want)
	}
}

func TestCollectorWindowing(t *testing.T) {
	warm := simnet.Epoch.Add(time.Second)
	end := simnet.Epoch.Add(3 * time.Second)
	col := NewCollector(warm, end)
	col.RecordNodeCommit(simnet.Epoch, 100)                        // before warmup: ignored
	col.RecordNodeCommit(warm, 10)                                 // boundary: counted
	col.RecordNodeCommit(warm.Add(time.Second), 20)                // inside
	col.RecordNodeCommit(end, 1000)                                // at end: ignored
	col.RecordConfirm(warm, warm.Add(1500*time.Millisecond))       // inside
	col.RecordConfirm(simnet.Epoch, simnet.Epoch.Add(time.Second)) // boundary (at warm): counted
	col.RecordSubmit(warm.Add(time.Millisecond))
	sub, confirmed, committed, blocks := col.Counts()
	if committed != 30 || blocks != 2 {
		t.Fatalf("committed=%d blocks=%d", committed, blocks)
	}
	if confirmed != 2 || sub != 1 {
		t.Fatalf("confirmed=%d submitted=%d", confirmed, sub)
	}
	if col.Window() != 2*time.Second {
		t.Fatalf("Window = %v", col.Window())
	}
	if got := col.Throughput(); got != 15 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := col.ClientThroughput(); got != 1 {
		t.Fatalf("ClientThroughput = %v", got)
	}
	if col.Latency().Count != 2 {
		t.Fatalf("latency samples = %d", col.Latency().Count)
	}
}

// TestReplySetSizedAtSubmit pins the quorum bookkeeping's allocation cost:
// a pending transaction's reply set is cut from the client's slab with room
// for F+1 repliers, so collecting the quorum never grows it and a
// transaction's share of the slab is 1/replySlabSets of an allocation
// (growing by append cost four at F+1 = 6).
func TestReplySetSizedAtSubmit(t *testing.T) {
	const f = 5
	var slab replySlab
	allocs := testing.AllocsPerRun(10*replySlabSets, func() {
		p := pendingTx{replies: slab.take(f + 1)}
		for id := wire.NodeID(0); id <= f; id++ {
			p.addReply(id)
			p.addReply(id) // a duplicate reply takes no slot
		}
		if len(p.replies) != f+1 || cap(p.replies) != f+1 {
			t.Fatalf("reply set len %d cap %d, want %d and %d", len(p.replies), cap(p.replies), f+1, f+1)
		}
	})
	if allocs != 0 {
		t.Fatalf("collecting a quorum allocates %v times per transaction, want 0 (one slab block per %d)", allocs, replySlabSets)
	}
	// Neighbouring sets do not share slots.
	a, b := slab.take(2), slab.take(2)
	a = append(a, 1, 2)
	b = append(b, 3)
	if a[0] != 1 || a[1] != 2 || b[0] != 3 || len(a) != 2 {
		t.Fatalf("reply sets overlap: %v %v", a, b)
	}
}

// sinkCtx is a context whose sends go nowhere, so a test counts the
// client's allocations alone.
type sinkCtx struct {
	now  time.Time
	sent []wire.Message // when non-nil, the sends in order (up to its capacity)
}

func (c *sinkCtx) ID() wire.NodeID { return 100 }
func (c *sinkCtx) Now() time.Time  { return c.now }
func (c *sinkCtx) Send(_ wire.NodeID, m wire.Message) {
	if len(c.sent) < cap(c.sent) {
		c.sent = append(c.sent, m)
	}
}
func (c *sinkCtx) After(time.Duration, func()) env.Timer { return nil }
func (c *sinkCtx) Rand() *rand.Rand                      { return nil }
func (c *sinkCtx) Logf(string, ...any)                   {}

// TestSubmitAllocatesOncePerTransaction pins the client's budget: once its
// free list is warm, a round-robin submit allocates the transaction and its
// SubmitTx together, once, and a resend allocates its message alone.
func TestSubmitAllocatesOncePerTransaction(t *testing.T) {
	ctx := &sinkCtx{now: simnet.Epoch}
	cl := NewClient(ClientConfig{
		Self: 100, Targets: []wire.NodeID{0, 1, 2, 3}, TxSize: 512, F: 1, Epoch: simnet.Epoch,
	})
	cl.ctx = ctx
	replies := []*types.BlockReply{{Replica: 0, Seqs: make([]uint64, 1)}, {Replica: 1, Seqs: make([]uint64, 1)}}
	submitAndConfirm := func() {
		cl.submitOne(ctx.now)
		for _, r := range replies {
			r.Seqs[0] = cl.seq
			cl.Receive(r.Replica, r)
		}
	}
	for i := 0; i < 64; i++ {
		submitAndConfirm()
	}
	if cl.PendingCount() != 0 || len(cl.free) != 1 {
		t.Fatalf("%d pending, %d free after the warm-up, want 0 and 1", cl.PendingCount(), len(cl.free))
	}
	if a := testing.AllocsPerRun(200, submitAndConfirm); a != 1 {
		t.Errorf("a warm round-robin submit allocates %.2f, want 1", a)
	}
	ctx.sent = make([]wire.Message, 0, 1)
	cl.submitOne(ctx.now)
	p := cl.pending[cl.seq]
	if m, ok := ctx.sent[0].(*types.SubmitTx); !ok || m.Tx != p.tx || m.Target != cl.cfg.Targets[p.target] {
		t.Fatalf("submit sent %+v, want the pending transaction for target %d", ctx.sent[0], p.target)
	}

	// Resends: 32 transactions never confirm, and every round all of them
	// fall due and go out again (the ready queue drains perTick a call).
	rs := NewClient(ClientConfig{
		Self: 100, Targets: []wire.NodeID{0, 1, 2, 3}, TxSize: 512, F: 1, Epoch: simnet.Epoch,
		ResubmitAfter: time.Second,
	})
	rctx := &sinkCtx{now: simnet.Epoch}
	rs.ctx = rctx
	const pending = 32
	for i := 0; i < pending; i++ {
		rs.submitOne(rctx.now)
	}
	round := func() {
		rctx.now = rctx.now.Add(2 * time.Second)
		for i := 0; i < pending/8; i++ {
			rs.resubmitOverdue(rctx.now)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	before := rs.Resubmitted()
	if a := testing.AllocsPerRun(20, round); a != pending {
		t.Errorf("a round of %d resends allocates %.2f, want %d", pending, a, pending)
	}
	if got := rs.Resubmitted() - before; got != 21*pending {
		t.Fatalf("%d resends in 21 rounds, want %d", got, 21*pending)
	}
}

// TestTickRearmAllocs: the generation ticker re-arms with a callback bound
// once, so a tick that generates nothing allocates nothing.
func TestTickRearmAllocs(t *testing.T) {
	ctx := &sinkCtx{now: simnet.Epoch}
	cl := NewClient(ClientConfig{
		Self: 100, Targets: []wire.NodeID{0, 1, 2, 3}, TxSize: 512, F: 1, Epoch: simnet.Epoch,
		GenStop: simnet.Epoch.Add(time.Hour),
	})
	cl.Start(ctx)
	if a := testing.AllocsPerRun(100, cl.tick); a != 0 {
		t.Errorf("an idle tick allocates %.1f, want 0", a)
	}
	if cl.Submitted() != 0 {
		t.Fatalf("an idle client submitted %d transactions", cl.Submitted())
	}
}
