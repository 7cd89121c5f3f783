package core

import (
	"errors"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

// testRig builds NC mempools with per-node signers so tests can simulate
// several nodes exchanging bundles without a network.
type testRig struct {
	t     *testing.T
	suite *crypto.SignerSuite
	pools []*Mempool
	// tails tracks the latest header per producer for chained packing.
	tails []*BundleHeader
	seq   uint64
}

func newRig(t *testing.T, nc, f, bundleSize int) *testRig {
	t.Helper()
	suite := crypto.NewSimSuite(nc, 42)
	pools := make([]*Mempool, nc)
	for i := range pools {
		mp, err := NewMempool(Params{
			NC: nc, F: f, BundleSize: bundleSize, Signer: suite.Signer(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = mp
	}
	return &testRig{t: t, suite: suite, pools: pools, tails: make([]*BundleHeader, nc)}
}

// txs makes n fresh transactions.
func (r *testRig) txs(n int) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		r.seq++
		out[i] = types.NewTransaction(999, r.seq, 512, time.Duration(r.seq))
	}
	return out
}

// pack creates the next bundle for a producer using the producer's own
// mempool tips.
func (r *testRig) pack(producer int, n int) *Bundle {
	tips := r.pools[producer].Tips()
	tips[producer]++
	b := PackBundle(r.suite.Signer(producer), wire.NodeID(producer), r.tails[producer], r.txs(n), tips)
	r.tails[producer] = &b.Header
	return b
}

// give adds a bundle to a node's mempool expecting success.
func (r *testRig) give(node int, b *Bundle) {
	r.t.Helper()
	res, _, _, err := r.pools[node].AddBundle(b)
	if err != nil {
		r.t.Fatalf("node %d AddBundle: %v", node, err)
	}
	if res != Added && res != Duplicate {
		r.t.Fatalf("node %d AddBundle result %d", node, res)
	}
}

// giveAll adds a bundle to every node's mempool, including the producer's.
func (r *testRig) giveAll(b *Bundle) {
	for i := range r.pools {
		r.give(i, b)
	}
}

func TestParamsValidate(t *testing.T) {
	signer := crypto.NewSimSigner(0, 1)
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"valid", Params{NC: 4, F: 1, BundleSize: 50, Signer: signer}, true},
		{"zero nc", Params{NC: 0, F: 0, BundleSize: 50, Signer: signer}, false},
		{"f too big", Params{NC: 4, F: 2, BundleSize: 50, Signer: signer}, false},
		{"no bundle size", Params{NC: 4, F: 1, Signer: signer}, false},
		{"no signer", Params{NC: 4, F: 1, BundleSize: 50}, false},
		{"f zero allowed", Params{NC: 1, F: 0, BundleSize: 1, Signer: signer}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, ok=%v", err, tc.ok)
			}
		})
	}
}

func TestAddBundleBasicChain(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	for h := 1; h <= 5; h++ {
		b := r.pack(0, 3)
		r.giveAll(b)
	}
	for i, mp := range r.pools {
		tips := mp.Tips()
		if tips[0] != 5 {
			t.Fatalf("node %d tips[0] = %d, want 5", i, tips[0])
		}
		if mp.TipHeader(0).Height != 5 {
			t.Fatalf("node %d tip header height wrong", i)
		}
		if !mp.HasUnconfirmedPayload() {
			t.Fatalf("node %d should report unconfirmed payload", i)
		}
	}
}

func TestAddBundleDuplicate(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 2)
	r.give(1, b)
	res, _, _, err := r.pools[1].AddBundle(b)
	if err != nil || res != Duplicate {
		t.Fatalf("duplicate add: res=%d err=%v", res, err)
	}
}

func TestAddBundleBadSignature(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 2)
	b.Header.Sig = append([]byte(nil), b.Header.Sig...)
	b.Header.Sig[0] ^= 1
	if _, _, _, err := r.pools[1].AddBundle(b); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestAddBundleBodyMismatch(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 3)
	tampered := &Bundle{Header: b.Header, Txs: b.Txs[:2]}
	if _, _, _, err := r.pools[1].AddBundle(tampered); !errors.Is(err, ErrBadBody) {
		t.Fatalf("err = %v, want ErrBadBody", err)
	}

	// A decoded bundle is checked in full: flip one byte of the second
	// transaction's Seq on the wire, so count and byte total still match
	// and only the root can catch it.
	e := wire.NewEncoder(b.EncodedSize())
	b.EncodeTo(e)
	frame := e.Bytes()
	frame[b.Header.EncodedSize()+4+b.Txs[0].EncodedSize()+4+7] ^= 1
	decoded, err := DecodeBundle(wire.NewDecoder(frame))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Txs[1].Seq == b.Txs[1].Seq || len(decoded.Txs) != len(b.Txs) ||
		types.TotalBytes(decoded.Txs) != types.TotalBytes(b.Txs) {
		t.Fatal("flipped byte did not land in the second transaction's Seq")
	}
	if _, _, _, err := r.pools[1].AddBundle(decoded); !errors.Is(err, ErrBadBody) {
		t.Fatalf("root-only mismatch: err = %v, want ErrBadBody", err)
	}
}

func TestAddBundleWrongProducerOrTips(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 1)
	b2 := *b
	b2.Header.Producer = 9
	if _, _, _, err := r.pools[1].AddBundle(&b2); !errors.Is(err, ErrUnknownProducer) {
		t.Fatalf("err = %v, want ErrUnknownProducer", err)
	}
	// Wrong tip list length.
	tips := make(TipList, 3)
	bad := PackBundle(r.suite.Signer(0), 0, nil, r.txs(1), tips)
	if _, _, _, err := r.pools[1].AddBundle(bad); !errors.Is(err, ErrBadTipsLen) {
		t.Fatalf("err = %v, want ErrBadTipsLen", err)
	}
}

func TestAddBundleOutOfOrderBuffersAndCascades(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b1 := r.pack(0, 1)
	b2 := r.pack(0, 1)
	b3 := r.pack(0, 1)
	// Deliver out of order: 3 then 2 then 1.
	res, _, miss, err := r.pools[1].AddBundle(b3)
	if err != nil || res != Buffered {
		t.Fatalf("b3: res=%d err=%v", res, err)
	}
	if miss == nil || miss.From != 1 || miss.To != 2 {
		t.Fatalf("b3 missing range = %+v", miss)
	}
	res, _, _, err = r.pools[1].AddBundle(b2)
	if err != nil || res != Buffered {
		t.Fatalf("b2: res=%d err=%v", res, err)
	}
	res, _, _, err = r.pools[1].AddBundle(b1)
	if err != nil || res != Added {
		t.Fatalf("b1: res=%d err=%v", res, err)
	}
	if tips := r.pools[1].Tips(); tips[0] != 3 {
		t.Fatalf("cascade failed: tips[0] = %d, want 3", tips[0])
	}
	if r.pools[1].BufferedCount(0) != 0 {
		t.Fatal("buffered bundles remain after cascade")
	}
}

// TestMissingRangeEndsBelowBufferedRun: the gap reported for a bundle
// buffered above the tip ends below the lowest height already buffered, so
// a run that grows one bundle at a time keeps naming the same hole and a
// fetch never asks for bundles the node holds.
func TestMissingRangeEndsBelowBufferedRun(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	bs := make([]*Bundle, 10) // bs[h] is height h
	for h := 1; h < len(bs); h++ {
		bs[h] = r.pack(0, 1)
	}
	mp := r.pools[1]
	r.give(1, bs[1])
	for _, step := range []struct{ h, from, to uint64 }{
		{4, 2, 3}, // hole 2–3
		{5, 2, 3}, // the run above grows: the hole does not
		{6, 2, 3},
		{3, 2, 2}, // a bundle inside the hole shrinks it
		{9, 2, 2}, // a second hole opens above the run; the first is named
	} {
		res, _, miss, err := mp.AddBundle(bs[step.h])
		if err != nil || res != Buffered {
			t.Fatalf("height %d: res=%d err=%v", step.h, res, err)
		}
		if miss == nil || miss.From != step.from || miss.To != step.to {
			t.Fatalf("height %d: missing range %+v, want %d–%d", step.h, miss, step.from, step.to)
		}
		if low := mp.LowestBuffered(0); miss.To >= low {
			t.Fatalf("height %d: range ends at %d, at or above buffered height %d", step.h, miss.To, low)
		}
	}
	r.give(1, bs[2]) // fills the first hole: the run links through 6
	if tip := mp.Tip(0); tip != 6 {
		t.Fatalf("tip after filling the hole = %d, want 6", tip)
	}
	_, _, miss, _ := mp.AddBundle(bs[8])
	if miss == nil || miss.From != 7 || miss.To != 7 {
		t.Fatalf("second hole: missing range %+v, want 7–7", miss)
	}
}

func TestAddBundleTipMonotonicity(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b1 := r.pack(0, 1)
	r.give(1, b1)
	// Child with regressed tips must be rejected.
	tips := b1.Header.Tips.Clone()
	tips[2] = 0 // regress (parent had 0 already -> make parent have 1 first)
	// Build a parent with tips[2]=1 to make regression possible: simpler to
	// hand-craft a child with lower tips than parent.
	child := PackBundle(r.suite.Signer(0), 0, &b1.Header, r.txs(1), b1.Header.Tips)
	// Forge regressed tips by repacking with smaller list.
	reg := b1.Header.Tips.Clone()
	if reg[0] == 0 {
		t.Fatal("setup: parent tips[0] must be > 0")
	}
	reg[0] = 0
	childBad := PackBundle(r.suite.Signer(0), 0, &b1.Header, r.txs(1), reg)
	if _, _, _, err := r.pools[1].AddBundle(childBad); !errors.Is(err, ErrBadTips) {
		t.Fatalf("err = %v, want ErrBadTips", err)
	}
	// The well-formed child still links.
	res, _, _, err := r.pools[1].AddBundle(child)
	if err != nil || res != Added {
		t.Fatalf("good child: res=%d err=%v", res, err)
	}
}

func TestConflictDetectionAndBan(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b1 := r.pack(0, 1)
	r.give(1, b1)
	// Equivocation: second bundle at the same height with same parent.
	conflict := PackBundle(r.suite.Signer(0), 0, nil, r.txs(2), b1.Header.Tips)
	if conflict.Header.Hash() == b1.Header.Hash() {
		t.Fatal("setup: conflicting bundles must differ")
	}
	res, ev, _, err := r.pools[1].AddBundle(conflict)
	if err != nil || res != Conflicting {
		t.Fatalf("res=%d err=%v", res, err)
	}
	if ev == nil || !ev.Verify(r.suite.Signer(1)) {
		t.Fatal("evidence missing or unverifiable")
	}
	if !r.pools[1].Banned(0) {
		t.Fatal("producer not banned after conflict")
	}
	if r.pools[1].Evidence(0) == nil {
		t.Fatal("evidence not stored")
	}
	// Further bundles from the banned producer are rejected.
	b2 := r.pack(0, 1)
	if _, _, _, err := r.pools[1].AddBundle(b2); !errors.Is(err, ErrBannedProducer) {
		t.Fatalf("err = %v, want ErrBannedProducer", err)
	}
	// Unban restores acceptance.
	r.pools[1].Unban(0)
	if r.pools[1].Banned(0) {
		t.Fatal("still banned after Unban")
	}
}

func TestConflictEvidenceVerifyRejectsForgeries(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b1 := r.pack(0, 1)
	other := PackBundle(r.suite.Signer(0), 0, nil, r.txs(2), b1.Header.Tips)
	ev := &ConflictEvidence{A: b1.Header, B: other.Header}
	if !ev.Verify(r.suite.Signer(2)) {
		t.Fatal("genuine evidence rejected")
	}
	same := &ConflictEvidence{A: b1.Header, B: b1.Header}
	if same.Verify(r.suite.Signer(2)) {
		t.Fatal("identical headers accepted as conflict")
	}
	crossProducer := &ConflictEvidence{A: b1.Header, B: r.pack(1, 1).Header}
	if crossProducer.Verify(r.suite.Signer(2)) {
		t.Fatal("different producers accepted as conflict")
	}
	badSig := *other
	badSig.Header.Sig = append([]byte(nil), badSig.Header.Sig...)
	badSig.Header.Sig[3] ^= 1
	forged := &ConflictEvidence{A: b1.Header, B: badSig.Header}
	if forged.Verify(r.suite.Signer(2)) {
		t.Fatal("forged signature accepted")
	}
}

// TestSkipToLinksTheParkedRun: a chain skipped past its hole restarts at
// the skip height, counted confirmed, and the run parked right above links
// at once, each bundle through the link hook; parked bundles at or below
// the skip height go, and a skip to or below the tip changes nothing.
func TestSkipToLinksTheParkedRun(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	bs := make([]*Bundle, 10) // bs[h] is height h
	for h := 1; h < len(bs); h++ {
		bs[h] = r.pack(0, 1)
	}
	mp := r.pools[1]
	var linked []uint64
	mp.SetOnLink(func(b *Bundle) { linked = append(linked, b.Header.Height) })
	r.give(1, bs[1])
	for _, h := range []int{4, 7, 8} {
		if res, _, _, err := mp.AddBundle(bs[h]); err != nil || res != Buffered {
			t.Fatalf("height %d: res=%d err=%v", h, res, err)
		}
	}
	mp.SkipTo(0, 1) // at the tip: nothing to skip
	if mp.Tip(0) != 1 || mp.ConfirmedHeight(0) != 0 || mp.BufferedCount(0) != 3 {
		t.Fatalf("skip to the tip moved the chain: tip %d, confirmed %d, %d parked",
			mp.Tip(0), mp.ConfirmedHeight(0), mp.BufferedCount(0))
	}
	linked = nil
	mp.SkipTo(0, 6)
	if mp.Tip(0) != 8 || mp.ConfirmedHeight(0) != 6 || mp.Bases()[0] != 6 || mp.BufferedCount(0) != 0 {
		t.Fatalf("after skipping to 6: tip %d, confirmed %d, base %d, %d parked; want 8, 6, 6, 0",
			mp.Tip(0), mp.ConfirmedHeight(0), mp.Bases()[0], mp.BufferedCount(0))
	}
	if len(linked) != 2 || linked[0] != 7 || linked[1] != 8 {
		t.Fatalf("linked %v on the skip, want [7 8]", linked)
	}
	if mp.Hole(0) != nil || mp.Bundle(0, 7) != bs[7] {
		t.Fatal("the parked run did not become the chain")
	}
	r.give(1, bs[9])
	if mp.Tip(0) != 9 {
		t.Fatalf("tip %d after the next bundle, want 9", mp.Tip(0))
	}
}

func TestMarkConfirmedPruning(t *testing.T) {
	suite := crypto.NewSimSuite(4, 1)
	mp, err := NewMempool(Params{NC: 4, F: 1, BundleSize: 10, Signer: suite.Signer(0), KeepConfirmed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var tail *BundleHeader
	for h := 1; h <= 10; h++ {
		tips := mp.Tips()
		tips[0]++
		b := PackBundle(suite.Signer(0), 0, tail, nil, tips)
		tail = &b.Header
		if _, _, _, err := mp.AddBundle(b); err != nil {
			t.Fatal(err)
		}
	}
	mp.MarkConfirmed(0, 8)
	if mp.ConfirmedHeight(0) != 8 {
		t.Fatalf("confirmed = %d", mp.ConfirmedHeight(0))
	}
	// KeepConfirmed=2: heights ≤ 6 pruned.
	if mp.Bundle(0, 6) != nil {
		t.Fatal("height 6 should be pruned")
	}
	if mp.Bundle(0, 7) == nil || mp.Bundle(0, 10) == nil {
		t.Fatal("heights 7..10 should remain")
	}
	if mp.Tips()[0] != 10 {
		t.Fatalf("tip = %d after pruning", mp.Tips()[0])
	}
	// Old bundles re-delivered after pruning count as duplicates.
	old := mp.Bundle(0, 7)
	res, _, _, err := mp.AddBundle(old)
	if err != nil || res != Duplicate {
		t.Fatalf("re-add pruned-era bundle: res=%d err=%v", res, err)
	}
}

func TestRangeQueries(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	for h := 1; h <= 5; h++ {
		r.give(1, r.pack(0, 1))
	}
	if got := r.pools[1].Range(0, 0, 5); len(got) != 5 {
		t.Fatalf("Range(0,0,5) = %d bundles", len(got))
	}
	if got := r.pools[1].Range(0, 2, 4); len(got) != 2 || got[0].Header.Height != 3 {
		t.Fatalf("Range(0,2,4) wrong: %d bundles", len(got))
	}
	if got := r.pools[1].Range(0, 2, 9); got != nil {
		t.Fatal("Range beyond tip must be nil")
	}
	if got := r.pools[1].Range(0, 4, 2); got != nil {
		t.Fatal("inverted Range must be nil")
	}
}

func TestHeaderHashExcludesSignature(t *testing.T) {
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 1)
	h1 := b.Header.Hash()
	b.Header.Sig = []byte("different")
	if b.Header.Hash() != h1 {
		t.Fatal("signature must not affect the header hash")
	}
	// A value copy re-derives its hash (the memo is guarded by the
	// header's address), so a sibling differing only in Height hashes
	// fresh.
	h2 := b.Header
	h2.Height++
	if h2.Hash() == h1 {
		t.Fatal("height must affect the header hash")
	}
}

func TestMessageCodecs(t *testing.T) {
	RegisterMessages()
	r := newRig(t, 4, 1, 50)
	b := r.pack(0, 3)

	bm := &BundleMsg{Bundle: b}
	got, err := wire.Roundtrip(bm)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*BundleMsg).Bundle.Header.Hash() != b.Header.Hash() {
		t.Fatal("BundleMsg roundtrip changed the header")
	}
	if len(wire.Marshal(bm)) != bm.WireSize() {
		t.Fatal("BundleMsg WireSize mismatch")
	}

	req := &BundleRequest{Producer: 2, From: 3, To: 9}
	if got, err := wire.Roundtrip(req); err != nil || *got.(*BundleRequest) != *req {
		t.Fatalf("BundleRequest roundtrip: %v", err)
	}

	resp := &BundleResponse{Bundles: []*Bundle{b, r.pack(0, 2)}}
	got2, err := wire.Roundtrip(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.(*BundleResponse).Bundles) != 2 {
		t.Fatal("BundleResponse lost bundles")
	}
	if len(wire.Marshal(resp)) != resp.WireSize() {
		t.Fatal("BundleResponse WireSize mismatch")
	}

	other := PackBundle(r.suite.Signer(1), 1, nil, r.txs(1), make(TipList, 4))
	ev := &ConflictEvidence{A: b.Header, B: other.Header}
	got3, err := wire.Roundtrip(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got3.(*ConflictEvidence).A.Hash() != b.Header.Hash() {
		t.Fatal("ConflictEvidence roundtrip changed header A")
	}
	if len(wire.Marshal(ev)) != ev.WireSize() {
		t.Fatal("ConflictEvidence WireSize mismatch")
	}
}
