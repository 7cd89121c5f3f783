package multizone

import (
	"bytes"
	"runtime"
	"sort"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/merkle"
	"predis/internal/node"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// relayRig is one full node (200) relaying every stripe to two
// subscribers, fed by hand with the stripes of a producer-0 bundle chain.
type relayRig struct {
	net     *simnet.Network
	fn      *FullNode
	striper *Striper
	suite   *crypto.SignerSuite
	bundles []*core.Bundle
	stripes [][]*StripeMsg // [bundle][index]
	now     time.Duration
}

// drain delivers everything in flight (1 ms links); the node's periodic
// timers keep the queue from ever going idle, so it runs a fixed step.
func (r *relayRig) drain() {
	r.now += 10 * time.Millisecond
	r.net.Run(r.now)
}

func newRelayRig(t testing.TB, bundles int) *relayRig {
	t.Helper()
	node.RegisterAllMessages()
	RegisterMessages()
	r := &relayRig{suite: crypto.NewSimSuite(4, 31)}
	r.striper, _ = NewStriper(4, 1)
	r.net = simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1, Striper: r.striper, Signer: r.suite.Signer(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.fn = fn
	r.net.AddNode(200, fn)
	sink := func(wire.NodeID, wire.Message) {}
	for _, id := range []wire.NodeID{0, 1, 2, 3, 300, 301} {
		r.net.AddNode(id, &recHandler{onRecv: sink})
	}
	r.net.Start()
	for s := uint8(0); s < 4; s++ {
		fn.setSubscriber(s, 300, true)
		fn.setSubscriber(s, 301, true)
	}
	r.addChain(t, 0, bundles)
	return r
}

// addChain appends a producer's chain of n one-transaction bundles, and
// their stripes, to the rig.
func (r *relayRig) addChain(t testing.TB, producer wire.NodeID, n int) {
	t.Helper()
	var parent *core.BundleHeader
	for h := 0; h < n; h++ {
		txs := mkTxs(1, uint64(producer)*1000+uint64(h))
		set, err := r.striper.Encode(txs)
		if err != nil {
			t.Fatal(err)
		}
		b := core.PackBundleStriped(r.suite.Signer(int(producer)), producer, parent, txs, make(core.TipList, 4), set.Root)
		parent = &b.Header
		msgs := make([]*StripeMsg, 4)
		for i := range msgs {
			msgs[i], _ = set.stripe(&b.Header, i)
		}
		r.bundles = append(r.bundles, b)
		r.stripes = append(r.stripes, msgs)
	}
}

// hashes lists the open partials in a reproducible order.
func (r *relayRig) hashes() []crypto.Hash {
	var out []crypto.Hash
	for h := range r.fn.partials {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// TestRelayPathAllocs pins the steady-state stripe relay path of a full
// node with subscribers: a reference parked as the first stripe of a bundle
// on a warm free list, a duplicate of it, the carrier that resolves and
// relays it, and a duplicate of an accepted stripe allocate nothing; the
// stripe that completes a bundle another node already reassembled pays
// only the mempool's amortized growth. The node holds exactly n_c − f
// indices, each from its consensus node, so every stripe also feeds the
// silence rule's bookkeeping. (Producer 0's carriers are stripes 0 and 2,
// its references 1 and 3.)
func TestRelayPathAllocs(t *testing.T) {
	const n = 128
	r := newRelayRig(t, n)
	fn := r.fn
	for s := uint8(0); s < 3; s++ {
		fn.links[s].sender = wire.NodeID(s)
	}
	fn.setSubscriber(3, 300, false)
	fn.setSubscriber(3, 301, false)
	// Warm-up lap: size the partials map, the event queue and the free
	// list, whose entries keep the senders slice parking gave them.
	for _, st := range r.stripes {
		fn.onStripe(1, st[1])
		fn.onStripe(0, st[0])
	}
	r.drain()
	dropPartials(fn, r.hashes()...)
	if len(fn.freePartials) != n {
		t.Fatalf("free list holds %d partials after the warm-up lap, want %d", len(fn.freePartials), n)
	}

	i := 0
	if a := testing.AllocsPerRun(n-1, func() {
		fn.onStripe(1, r.stripes[i][1])
		fn.onStripe(1, r.stripes[i][1])
		fn.onStripe(0, r.stripes[i][0])
		i++
	}); a != 0 {
		t.Errorf("a reference parked on a warm free list, its duplicate and the carrier resolving it allocate %.2f, want 0", a)
	}
	if len(fn.freePartials) != 0 || len(fn.partials) != n {
		t.Fatalf("free %d, partials %d after reopening every bundle", len(fn.freePartials), len(fn.partials))
	}
	if parked, resolved, _, _ := fn.ParkStats(); parked != 2*n || resolved != 2*n {
		t.Fatalf("parked %d, resolved %d, want %d each", parked, resolved, 2*n)
	}
	r.drain()
	if a := testing.AllocsPerRun(100, func() { fn.onStripe(0, r.stripes[7][0]) }); a != 0 {
		t.Errorf("duplicate stripe allocates %.2f, want 0", a)
	}
	r.drain()

	// Another node reassembled every bundle first: the memo rides on the
	// shared stripe sets.
	for h, st := range r.stripes {
		if _, err := r.striper.reassemble(&r.bundles[h].Header, st); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = r.striper.reassemble(&r.bundles[3].Header, r.stripes[3]) }); a != 0 {
		t.Errorf("Reassemble on a memo hit allocates %.2f, want 0", a)
	}
	i = 0
	// (The mempool's chain slice and maps grow by doubling; AllocsPerRun
	// reports the integral average, which that amortizes to 0.)
	if a := testing.AllocsPerRun(n-1, func() { fn.onStripe(2, r.stripes[i][2]); i++ }); a != 0 {
		t.Errorf("completing stripe on a memo hit allocates %.2f, want 0", a)
	}
	if _, got, _ := fn.Stats(); got != n {
		t.Fatalf("assembled %d bundles, want %d", got, n)
	}
	heard := 0
	for _, l := range fn.links {
		if !l.heard.at.IsZero() {
			heard++
		}
	}
	if heard != 3 || len(fn.spares) != 0 {
		t.Fatalf("%d indices heard, spares %v: want all three indices heard and no spare", heard, fn.spares)
	}

	// The first relay after a subscribe, and after an unsubscribe, walks the
	// edited subscriber list as it is: there is no view to rebuild. (A
	// duplicate first runs the silence check, if due, outside the count.)
	relay := func(step string, h int) {
		t.Helper()
		fn.onStripe(1, r.stripes[h][1])
		if a := mallocs(func() { fn.onStripe(3, r.stripes[h][3]) }); a != 0 {
			t.Errorf("the first relay after %s allocates %d, want 0", step, a)
		}
	}
	fn.Receive(300, &Subscribe{Stripes: []uint8{3}})
	fn.Receive(301, &Subscribe{Stripes: []uint8{3}})
	r.drain()
	relay("a subscribe", 0)
	fn.Receive(301, &Unsubscribe{Stripes: []uint8{3}})
	r.drain()
	relay("an unsubscribe", 1)
}

// dropPartials drops the partials of the given header hashes.
func dropPartials(fn *FullNode, hashes ...crypto.Hash) {
	for _, h := range hashes {
		fn.dropPartial(h, fn.partials[h])
	}
}

// mallocs counts the heap allocations one call of run makes.
func mallocs(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecycledPartialCarriesNothingOver: a partialBundle coming off the
// free list has no stripes, no done flag, no count and no coordinates from
// its previous life.
func TestRecycledPartialCarriesNothingOver(t *testing.T) {
	r := newRelayRig(t, 2)
	fn := r.fn
	for i := 0; i < 3; i++ {
		fn.onStripe(wire.NodeID(i), r.stripes[0][i])
	}
	h0 := r.bundles[0].Header.Hash()
	old := fn.partials[h0]
	if old == nil || !old.done {
		t.Fatal("bundle 0 did not assemble")
	}
	dropPartials(fn, h0)
	if len(fn.freePartials) != 1 || fn.freePartials[0] != old {
		t.Fatal("dropped partial did not reach the free list")
	}
	if old.done || old.known || old.have != 0 || old.parked != 0 || old.height != 0 || old.producer != 0 || old.first != 0 || len(old.stripes) != 4 {
		t.Fatalf("recycled partial not reset: %+v", old)
	}
	for i, st := range old.stripes {
		if st != nil {
			t.Fatalf("recycled partial still holds stripe %d", i)
		}
	}
	fn.onStripe(2, r.stripes[1][2])
	p := fn.partials[r.bundles[1].Header.Hash()]
	if p != old {
		t.Fatal("free partial was not reused")
	}
	if p.done || !p.known || p.have != 1 || p.parked != 0 || p.stripes[2] != r.stripes[1][2] || p.stripes[0] != nil ||
		p.producer != 0 || p.height != 2 || p.first != 2 {
		t.Fatalf("reused partial in a wrong state: %+v", p)
	}
	// The late fourth stripe of bundle 0 (its partial is gone, the bundle
	// is in the mempool) is forwarded, not re-opened.
	fn.onStripe(3, r.stripes[0][3])
	if _, again := fn.partials[h0]; again {
		t.Fatal("late stripe of a stored bundle re-opened a partial")
	}
}

// TestInflightTracksKnownPartials: the silence rule scans inflight instead
// of every partial, so inflight must hold exactly the known partials that
// are not done, each at its slot, as partials open, complete and are
// dropped in any order.
func TestInflightTracksKnownPartials(t *testing.T) {
	r := newRelayRig(t, 6)
	fn := r.fn
	check := func(step string, n int) {
		t.Helper()
		want := 0
		for _, p := range fn.partials {
			if p.known && !p.done {
				want++
				if p.slot >= len(fn.inflight) || fn.inflight[p.slot] != p {
					t.Fatalf("%s: partial (%d, %d) is not at its slot %d", step, p.producer, p.height, p.slot)
				}
			}
		}
		if len(fn.inflight) != want || want != n {
			t.Fatalf("%s: %d partials in flight, %d known and not done, want %d", step, len(fn.inflight), want, n)
		}
	}
	for b := range r.bundles {
		fn.onStripe(0, r.stripes[b][0]) // a carrier: each partial is known at once
	}
	check("six carriers", 6)
	for _, b := range []int{2, 0, 5} {
		fn.onStripe(1, r.stripes[b][1])
		fn.onStripe(2, r.stripes[b][2])
	}
	check("three bundles completed", 3)
	dropPartials(fn, r.bundles[3].Header.Hash(), r.bundles[0].Header.Hash(), r.bundles[1].Header.Hash())
	check("one done and two in-flight partials dropped", 1)
	fn.onStripe(0, r.stripes[3][0])
	check("a dropped bundle reopened", 2)
	dropPartials(fn, r.hashes()...)
	check("everything dropped", 0)
}

// burstSender sends its messages to one peer, in order, when it starts.
type burstSender struct {
	to   wire.NodeID
	msgs []wire.Message
}

func (s *burstSender) Start(ctx env.Context) {
	for _, m := range s.msgs {
		ctx.Send(s.to, m)
	}
}
func (s *burstSender) Receive(wire.NodeID, wire.Message) {}

// TestBlockOvertakesStripeBurst: a consensus node's uplink holds a
// burst of stripes for a relayer when a Predis block commits. The block is
// metadata and leaves on the consensus lane, so the relayer has it before
// the first stripe of the burst; the stripes follow in send order. (At
// the parent commit the block waited behind all sixteen.)
func TestBlockOvertakesStripeBurst(t *testing.T) {
	r := newRelayRig(t, 1)
	set, err := r.striper.Encode(mkTxs(50, 7))
	if err != nil {
		t.Fatal(err)
	}
	b := core.PackBundleStriped(r.suite.Signer(1), 1, nil, mkTxs(50, 7), make(core.TipList, 4), set.Root)
	blk := &core.PredisBlock{Height: 1, Leader: 1, Cuts: make([]core.Cut, 4)}
	blk.Sig = r.suite.Signer(1).Sign(blk.Hash())
	src := &burstSender{to: 2}
	for i := 0; i < 16; i++ {
		st, _ := set.stripe(&b.Header, i%4)
		src.msgs = append(src.msgs, st)
	}
	src.msgs = append(src.msgs, blk)

	net := simnet.New(simnet.Config{Uplink: simnet.Mbps100, Latency: simnet.UniformLatency(time.Millisecond)})
	var got []wire.Message
	net.AddNode(1, src)
	net.AddNode(2, &recHandler{onRecv: func(_ wire.NodeID, m wire.Message) { got = append(got, m) }})
	net.Start()
	net.Run(time.Second)
	if len(got) != len(src.msgs) {
		t.Fatalf("received %d of %d messages", len(got), len(src.msgs))
	}
	if got[0] != wire.Message(blk) {
		t.Fatalf("first delivery is %T, want the block queued behind %d stripes", got[0], len(src.msgs)-1)
	}
	for i, m := range got[1:] {
		if m != src.msgs[i] {
			t.Fatalf("delivery %d is not stripe %d of the burst", i+1, i)
		}
	}
}

// TestTamperedReferenceChargedOnceHeaderLands: a reference whose proof was
// replaced (faults' TamperProof) arrives before its header. It is parked —
// not relayed, not counted, not yet charged — and when the carrier lands it
// fails against the carrier's StripeRoot: its sender is charged one offense,
// its slot is freed for the honest copy, and no subscriber ever sees it.
func TestTamperedReferenceChargedOnceHeaderLands(t *testing.T) {
	r := newRelayRig(t, 1)
	fn := r.fn
	honest := r.stripes[0][1]
	bad := honest.TamperProof(99).(*StripeMsg)
	var relayed []wire.Message
	r.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
		if _, ok := m.(*StripeMsg); ok && from == fn.ID() {
			relayed = append(relayed, m)
		}
	}
	const liar = 3
	fn.onStripe(liar, bad)
	r.drain()
	if parked, _, _, _ := fn.ParkStats(); parked != 1 || fn.rejected != 0 || fn.offenses[liar] != 0 || len(relayed) != 0 {
		t.Fatalf("parked %d, rejected %d, offenses %d, relayed %d; want the reference parked and nothing else",
			parked, fn.rejected, fn.offenses[liar], len(relayed))
	}
	fn.onStripe(0, r.stripes[0][0]) // the carrier
	r.drain()
	p := fn.partials[r.bundles[0].Header.Hash()]
	if fn.rejected != 1 || fn.offenses[liar] != 1 || p == nil || p.stripes[1] != nil || p.have != 1 {
		t.Fatalf("after the carrier: rejected %d, offenses %d, partial %+v", fn.rejected, fn.offenses[liar], p)
	}
	for _, m := range relayed {
		if m == wire.Message(bad) {
			t.Fatal("the tampered reference was relayed")
		}
	}
	fn.onStripe(1, honest)
	if p.stripes[1] != honest || p.have != 2 {
		t.Fatalf("honest reference after the tampered one was charged: %+v", p)
	}
}

// TestOrphanReferenceFloodCapped: a peer floods references to headers that
// do not exist. Each opens a header-less partial until the producer's cap,
// then they are dropped, and carriers keep working. Orphans at heights the chain confirms leave with the sweep at
// the confirmed height, and the rest — claims above any real height — once
// they are older than staleAfter.
func TestOrphanReferenceFloodCapped(t *testing.T) {
	r := newRelayRig(t, 2)
	fn := r.fn
	for k := 0; k < 10*maxHeaderless; k++ {
		h := uint64(1 << 40)
		if k < maxHeaderless/2 {
			h = 1 + uint64(k%2) // heights the chain confirms below
		}
		fn.onStripe(300, &StripeMsg{
			Header: core.BundleHeader{Producer: 0, Height: h}, Ref: true,
			RefHash: crypto.HashBytes([]byte{byte(k), byte(k >> 8)}), Index: 1,
			Shard: make([]byte, 32), Proof: make([]crypto.Hash, 2),
		})
	}
	if got := len(fn.partials); got != maxHeaderless || fn.headerless[0] != maxHeaderless {
		t.Fatalf("%d partials, %d header-less after the flood; want %d, %d",
			got, fn.headerless[0], maxHeaderless, maxHeaderless)
	}
	for i := 0; i < 3; i++ {
		fn.onStripe(wire.NodeID(i), r.stripes[0][i])
	}
	if _, got, _ := fn.Stats(); got != 1 || fn.rejected != 0 {
		t.Fatalf("assembled %d bundles, rejected %d stripes beside the flood; want 1, 0", got, fn.rejected)
	}
	fn.mp.MarkConfirmed(0, 2)
	fn.sweepDataPlane()
	if fn.headerless[0] != maxHeaderless/2 {
		t.Fatalf("%d header-less partials after the confirmed-height sweep, want %d", fn.headerless[0], maxHeaderless/2)
	}
	r.now += fn.staleAfter() + fn.cfg.AliveInterval
	r.net.Run(r.now) // the alive timer sweeps
	if _, _, expired, _ := fn.ParkStats(); fn.headerless[0] != 0 || expired != maxHeaderless {
		t.Fatalf("%d header-less partials, %d expired stripes once the orphans went stale; want 0, %d",
			fn.headerless[0], expired, maxHeaderless)
	}
	for _, p := range fn.partials {
		if !p.known {
			t.Fatalf("a header-less partial survived: %+v", p)
		}
	}
}

// TestLateDuplicateBlockDropped: once the head has passed block h by more
// than 128 heights and the sweep has run, a valid copy of block h is
// neither forwarded down the subscription tree nor kept pending — it is at
// or below the head, so the node has it already.
func TestLateDuplicateBlockDropped(t *testing.T) {
	r := newRelayRig(t, 0)
	fn := r.fn
	forwarded := 0
	r.net.OnDeliver = func(_, to wire.NodeID, m wire.Message, _ time.Time) {
		if _, ok := m.(*core.PredisBlock); ok && to >= 300 {
			forwarded++
		}
	}
	var blocks []*core.PredisBlock
	var parent crypto.Hash
	const head = 130
	for h := uint64(1); h <= head; h++ { // empty blocks: each completes on arrival
		blk := &core.PredisBlock{Height: h, Parent: parent, Leader: 1, Cuts: make([]core.Cut, 4)}
		blk.Sig = r.suite.Signer(1).Sign(blk.Hash())
		blocks = append(blocks, blk)
		parent = blk.Hash()
		fn.Receive(1, blk)
	}
	r.drain()
	if fn.LastHeight() != head || forwarded != 2*head {
		t.Fatalf("head %d after %d blocks, %d forwards; want %d and %d", fn.LastHeight(), head, forwarded, head, 2*head)
	}
	fn.sweepDataPlane()
	forwarded = 0
	fn.Receive(1, blocks[0])
	r.drain()
	if forwarded != 0 || len(fn.pendBlocks) != 0 {
		t.Fatalf("a late copy of block 1 at head %d: forwarded %d times, %d blocks pending; want neither",
			fn.LastHeight(), forwarded, len(fn.pendBlocks))
	}
}

// TestBlockCompletionAllocs pins a full node's block plane without an
// executor: once warm, a Predis block that confirms a held bundle is
// verified, relayed, committed and counted without allocating — the
// mempool hands back its bundles in scratch and no transaction list is
// flattened — and every subscriber receives the very *core.PredisBlock this
// node received, not a re-wrapped copy.
func TestBlockCompletionAllocs(t *testing.T) {
	const n = 128
	r := newRelayRig(t, n)
	fn := r.fn
	for h := range r.bundles {
		for s := 0; s < 3; s++ {
			fn.onStripe(wire.NodeID(s), r.stripes[h][s])
		}
	}
	msgs := make([]*core.PredisBlock, n)
	var parent crypto.Hash
	for h := range msgs {
		hh := r.bundles[h].Header.Hash()
		blk := &core.PredisBlock{Height: uint64(h + 1), Parent: parent, Leader: 1, Cuts: make([]core.Cut, 4),
			TxRoot: merkle.RootOfHashes([]crypto.Hash{merkle.HashLeaf(hh[:])})}
		blk.Cuts[0] = core.Cut{Height: uint64(h + 1), Head: hh}
		blk.Sig = r.suite.Signer(1).Sign(blk.Hash())
		parent = blk.Hash()
		msgs[h] = blk
	}
	forwards, same := 0, 0
	r.net.OnDeliver = func(_, to wire.NodeID, m wire.Message, _ time.Time) {
		if blk, ok := m.(*core.PredisBlock); ok && to >= 300 {
			forwards++
			if blk == msgs[blk.Height-1] {
				same++
			}
		}
	}
	// Warm-up: the first half in one burst sizes the event queue's free
	// list for the second.
	for _, m := range msgs[:n/2] {
		fn.Receive(1, m)
	}
	r.drain()
	i := n / 2
	// PredisBlock.Hash encodes through the wire encoder pool, whose
	// sync.Pool drops entries at random under the race detector, so the
	// count holds only without it.
	if a := testing.AllocsPerRun(n/2-1, func() { fn.Receive(1, msgs[i]); i++ }); a != 0 && !raceEnabled {
		t.Errorf("completing a block without an executor allocates %.2f, want 0", a)
	}
	r.drain()
	if _, _, blocks := fn.Stats(); blocks != n || fn.LastHeight() != n {
		t.Fatalf("completed %d blocks, head %d; want %d", blocks, fn.LastHeight(), n)
	}
	if forwards != 2*n || same != forwards {
		t.Fatalf("%d blocks forwarded, %d of them the message received; want %d, all", forwards, same, 2*n)
	}
}
