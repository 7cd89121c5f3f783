package multizone

import (
	"errors"
	"math/bits"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

func mkTxs(n int, base uint64) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = types.NewTransaction(7, base+uint64(i), 512, time.Duration(i))
	}
	return out
}

func TestNewStriperValidation(t *testing.T) {
	if _, err := NewStriper(0, 0); err == nil {
		t.Fatal("nc=0 accepted")
	}
	if _, err := NewStriper(4, 4); err == nil {
		t.Fatal("f=nc accepted")
	}
	s, err := NewStriper(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NC() != 8 || s.MinStripes() != 6 {
		t.Fatalf("NC=%d MinStripes=%d", s.NC(), s.MinStripes())
	}
}

func TestStripeRoundtripAllLossPatterns(t *testing.T) {
	s, err := NewStriper(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite := crypto.NewSimSuite(4, 77)
	txs := mkTxs(50, 0)
	set, err := s.Encode(txs)
	if err != nil {
		t.Fatal(err)
	}
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)

	all := make([]*StripeMsg, 4)
	for i := 0; i < 4; i++ {
		m, err := set.stripe(&b.Header, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyStripe(b.Header.StripeRoot, m); err != nil {
			t.Fatalf("stripe %d failed verification: %v", i, err)
		}
		all[i] = m
	}
	// Every single-loss pattern reconstructs (n_c−f = 3 of 4).
	for drop := 0; drop < 4; drop++ {
		stripes := make([]*StripeMsg, 4)
		copy(stripes, all)
		stripes[drop] = nil
		got, err := s.reassemble(&b.Header, stripes)
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		if got.Header.Hash() != b.Header.Hash() {
			t.Fatalf("drop %d: header changed", drop)
		}
		if len(got.Txs) != 50 || got.Txs[13].Hash() != txs[13].Hash() {
			t.Fatalf("drop %d: body corrupted", drop)
		}
	}
	// Two losses cannot reconstruct.
	stripes := make([]*StripeMsg, 4)
	copy(stripes, all)
	stripes[0], stripes[1] = nil, nil
	if _, err := s.reassemble(&b.Header, stripes); err == nil {
		t.Fatal("reconstructed from too few stripes")
	}
}

func TestVerifyStripeRejectsTampering(t *testing.T) {
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 78)
	txs := mkTxs(10, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	m, _ := set.stripe(&b.Header, 2)

	tampered := *m
	tampered.Shard = append([]byte(nil), m.Shard...)
	tampered.Shard[0] ^= 1
	root := b.Header.StripeRoot
	if err := s.VerifyStripe(root, &tampered); err == nil {
		t.Fatal("tampered shard accepted")
	}
	wrongIdx := *m
	wrongIdx.Index = 3
	if err := s.VerifyStripe(root, &wrongIdx); err == nil {
		t.Fatal("stripe with wrong index accepted")
	}
	oob := *m
	oob.Index = 9
	if err := s.VerifyStripe(root, &oob); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	other, _ := s.Encode(mkTxs(10, 500))
	if err := s.VerifyStripe(other.Root, m); err == nil {
		t.Fatal("stripe accepted against another bundle's root")
	}
	if err := s.VerifyStripe(root, m); err != nil {
		t.Fatalf("honest stripe rejected: %v", err)
	}

	// The trust boundary of verification by construction: the set's own
	// slot m has passed above, unhashed, and nothing else may. A value
	// copy carries m's set pointer but is not the slot, and the slot
	// against another root is checked in full.
	flipped := *m
	flipped.Shard = append([]byte(nil), m.Shard...)
	flipped.Shard[len(flipped.Shard)/2] ^= 0x80
	reindexed := *m
	reindexed.Index = 1
	for _, c := range []struct {
		name string
		root crypto.Hash
		m    *StripeMsg
	}{
		{"value copy with a shard byte flipped", root, &flipped},
		{"value copy under another index", root, &reindexed},
		{"own slot against another bundle's root", other.Root, m},
		{"TamperShard copy", root, m.TamperShard(7).(*StripeMsg)},
		{"TamperProof copy", root, m.TamperProof(7).(*StripeMsg)},
	} {
		if err := s.VerifyStripe(c.root, c.m); !errors.Is(err, ErrStripeProof) {
			t.Errorf("%s: err = %v, want ErrStripeProof", c.name, err)
		}
	}
}

// TestStripeMsgCodec round-trips both stripe kinds of one bundle: producer
// 1's own stripe and stripe 3, across the ring, carry the signed header,
// stripes 0 and 2 only its hash, and each comes back with what it carried
// and a WireSize that is the frame's length.
func TestStripeMsgCodec(t *testing.T) {
	RegisterMessages()
	core.RegisterMessages()
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 79)
	txs := mkTxs(20, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(1), 1, nil, txs, make(core.TipList, 4), set.Root)
	for i, wantRef := range []bool{true, false, true, false} {
		m, _ := set.stripe(&b.Header, i)
		if m.Ref != wantRef {
			t.Fatalf("stripe %d: Ref = %v, want %v", i, m.Ref, wantRef)
		}
		got, err := wire.Roundtrip(m)
		if err != nil {
			t.Fatalf("stripe %d: %v", i, err)
		}
		gm := got.(*StripeMsg)
		if gm.Ref != m.Ref || gm.BundleHash() != b.Header.Hash() || gm.Index != m.Index ||
			gm.PayloadLen != m.PayloadLen || gm.Header.Producer != 1 || gm.Header.Height != b.Header.Height {
			t.Fatalf("stripe %d changed in the round trip: %+v", i, gm)
		}
		if !wantRef && !suite.Signer(0).Verify(1, gm.Header.Hash(), gm.Header.Sig) {
			t.Fatalf("carrier %d lost its header signature", i)
		}
		if err := s.VerifyStripe(b.Header.StripeRoot, gm); err != nil {
			t.Fatalf("stripe %d invalid after roundtrip: %v", i, err)
		}
		if n := len(wire.Marshal(m)); n != m.WireSize() {
			t.Fatalf("stripe %d: WireSize %d, frame %d", i, m.WireSize(), n)
		}
	}
	carrier, _ := set.stripe(&b.Header, 1)
	ref, _ := set.stripe(&b.Header, 0)
	if saved := carrier.WireSize() - ref.WireSize(); saved != b.Header.EncodedSize()-refSize {
		t.Fatalf("a reference saves %d B, want the header's %d less the %d B reference",
			saved, b.Header.EncodedSize(), refSize)
	}
}

// TestHeaderCarriersCoverEveryQuorum: for every n_c ≤ 16, every f < n_c
// and every producer, each set of n_c−f stripe indices — every set a
// bundle reassembles from — holds at least one header carrier, and there
// are exactly f+1 carriers, the producer's own index among them.
func TestHeaderCarriersCoverEveryQuorum(t *testing.T) {
	for nc := 1; nc <= 16; nc++ {
		for f := 0; f < nc; f++ {
			for k := 0; k < nc; k++ {
				var carriers uint32
				for i := 0; i < nc; i++ {
					if headerCarrier(i, wire.NodeID(k), nc, f) {
						carriers |= 1 << i
					}
				}
				if bits.OnesCount32(carriers) != f+1 || carriers&(1<<k) == 0 {
					t.Fatalf("nc=%d f=%d producer %d: carriers %b", nc, f, k, carriers)
				}
				for set := uint32(0); set < 1<<nc; set++ {
					if bits.OnesCount32(set) == nc-f && set&carriers == 0 {
						t.Fatalf("nc=%d f=%d producer %d: stripes %b hold no carrier", nc, f, k, set)
					}
				}
			}
		}
	}
}

func TestZoneMessageCodecs(t *testing.T) {
	RegisterMessages()
	core.RegisterMessages()
	suite := crypto.NewSimSuite(4, 80)
	blk := &core.PredisBlock{
		Height: 3, Leader: 1,
		Cuts: []core.Cut{{Height: 5, Head: crypto.HashBytes([]byte("h"))}, {}, {}, {}},
	}
	blk.Sig = suite.Signer(1).Sign(blk.Hash())

	msgs := []wire.Message{
		&Subscribe{Stripes: []uint8{0, 2}},
		&AcceptSubscribe{Stripes: []uint8{1}, FromConsensus: true},
		&RejectSubscribe{Stripes: []uint8{3}, Children: []wire.NodeID{9, 10}},
		&Unsubscribe{Stripes: []uint8{0}},
		&RelayerAlive{Relayer: 42, Zone: 3},
		&Leave{},
		&Heartbeat{},
		&BlockDigest{Height: 9, Tips: []uint64{1, 2, 3, 4}},
	}
	for _, m := range msgs {
		got, err := wire.Roundtrip(m)
		if err != nil {
			t.Fatalf("%s roundtrip: %v", wire.TypeName(m.Type()), err)
		}
		if len(wire.Marshal(m)) != m.WireSize() {
			t.Fatalf("%s WireSize mismatch: declared %d, marshaled %d",
				wire.TypeName(m.Type()), m.WireSize(), len(wire.Marshal(m)))
		}
		_ = got
	}

	// The relayer tree carries the committed block itself, which must
	// arrive intact.
	got, _ := wire.Roundtrip(blk)
	gb := got.(*core.PredisBlock)
	if gb.Hash() != blk.Hash() {
		t.Fatal("the roundtrip changed the block hash")
	}
	if !suite.Signer(0).Verify(1, gb.Hash(), gb.Sig) {
		t.Fatal("block signature lost")
	}
}

func TestQuickStripeReassembly(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	suite := crypto.NewSimSuite(8, 81)
	f := func(txCountRaw, dropRaw uint8, seed uint64) bool {
		s, err := NewStriper(8, 2)
		if err != nil {
			return false
		}
		txs := mkTxs(1+int(txCountRaw)%60, seed)
		set, err := s.Encode(txs)
		if err != nil {
			return false
		}
		b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 8), set.Root)
		stripes := make([]*StripeMsg, 8)
		for i := 0; i < 8; i++ {
			stripes[i], _ = set.stripe(&b.Header, i)
		}
		// Drop up to f=2 stripes.
		stripes[int(dropRaw)%8] = nil
		stripes[int(dropRaw/8)%8] = nil
		got, err := s.reassemble(&b.Header, stripes)
		if err != nil {
			return false
		}
		return got.Header.TxRoot == b.Header.TxRoot && len(got.Txs) == len(txs)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReassembleForeignShardIsErrStripeBundle: with exactly n_c−f stripes,
// one of them carrying another bundle's shard under this header, the
// erasure decode succeeds but the body does not match the header — the
// result must be ErrStripeBundle and no stripe set may be left holding an
// assembled memo that later callers would trust. The carrier's header is
// stamped from the packed bundle's, as a distributor's is: it keeps the
// hash and signature memos, but the packed body's memo must not travel
// into the decoded bundle.
func TestReassembleForeignShardIsErrStripeBundle(t *testing.T) {
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 82)
	txs := mkTxs(10, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	other, _ := s.Encode(mkTxs(10, 500))
	stripes := make([]*StripeMsg, 4)
	stripes[0], _ = set.stripe(&b.Header, 0) // a carrier
	stripes[1], _ = set.stripe(&b.Header, 1)
	stripes[2], _ = other.stripe(&b.Header, 2) // this header, the other bundle's shard and proof
	got, err := s.reassemble(&stripes[0].Header, stripes)
	if !errors.Is(err, ErrStripeBundle) || got != nil {
		t.Fatalf("Reassemble = (%v, %v), want ErrStripeBundle", got, err)
	}
	if set.assembled != nil || other.assembled != nil {
		t.Fatal("failed reassembly left an assembled memo on a stripe set")
	}
	// The honest fourth stripe makes a valid subset available again.
	stripes[2], _ = set.stripe(&b.Header, 2)
	if _, err := s.reassemble(&b.Header, stripes); err != nil {
		t.Fatalf("honest stripes after the failed attempt: %v", err)
	}
}

// TestReassembleMemoHitReturnsSameBundle: once any node has reassembled a
// bundle, every later reassembly from a set sharing one of its stripes
// returns the identical *core.Bundle — including from a different subset.
func TestReassembleMemoHitReturnsSameBundle(t *testing.T) {
	s, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 83)
	txs := mkTxs(10, 0)
	set, _ := s.Encode(txs)
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	all := make([]*StripeMsg, 4)
	for i := range all {
		all[i], _ = set.stripe(&b.Header, i)
	}
	first, err := s.reassemble(&b.Header, []*StripeMsg{all[0], all[1], all[2], nil})
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.reassemble(&b.Header, []*StripeMsg{all[0], all[1], all[2], nil})
	if err != nil || again != first {
		t.Fatalf("second reassembly = (%p, %v), want the memoized %p", again, err, first)
	}
	subset, err := s.reassemble(&b.Header, []*StripeMsg{nil, all[1], all[2], all[3]})
	if err != nil || subset != first {
		t.Fatalf("reassembly from another subset = (%p, %v), want the memoized %p", subset, err, first)
	}
	// Too few stripes is still an error, memo or not.
	if _, err := s.reassemble(&b.Header, []*StripeMsg{all[0], all[1], nil, nil}); !errors.Is(err, ErrStripeCount) {
		t.Fatalf("two stripes with a memo = %v, want ErrStripeCount", err)
	}
}

// TestStripeSetAllocs pins the per-bundle budget of a stripe set: Encode
// allocates the shard slab, the digest slab, the message slab and the set
// at n_c = 4 and at n_c = 16, and Stripe allocates nothing — a repeated
// index with the same header returns the same message. A second header
// over the same body gets a message of its own.
func TestStripeSetAllocs(t *testing.T) {
	suite := crypto.NewSimSuite(16, 84)
	txs := mkTxs(4, 0)
	for _, g := range []struct{ nc, f int }{{4, 1}, {16, 5}} {
		s, _ := NewStriper(g.nc, g.f)
		set, _ := s.Encode(txs)
		b := core.PackBundleStriped(suite.Signer(1), 1, nil, txs, make(core.TipList, g.nc), set.Root)
		first := make([]*StripeMsg, g.nc)
		for i := range first {
			first[i], _ = set.stripe(&b.Header, i)
			if again, _ := set.stripe(&b.Header, i); again != first[i] {
				t.Fatalf("nc=%d stripe %d: a repeated call returned another message", g.nc, i)
			}
			if err := s.VerifyStripe(set.Root, first[i]); err != nil {
				t.Fatalf("nc=%d stripe %d: %v", g.nc, i, err)
			}
		}
		other := core.PackBundleStriped(suite.Signer(2), 2, nil, txs, make(core.TipList, g.nc), set.Root)
		if m, _ := set.stripe(&other.Header, 0); m == first[0] || m.BundleHash() != other.Header.Hash() {
			t.Fatalf("nc=%d: another header's stripe reused the slot", g.nc)
		}
		if first[0].BundleHash() != b.Header.Hash() {
			t.Fatalf("nc=%d: another header's stripe restamped the slot", g.nc)
		}
		if raceEnabled {
			continue
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = s.Encode(txs) }); a > 4 {
			t.Errorf("nc=%d: Encode allocates %.1f, want ≤ 4", g.nc, a)
		}
		i := 0
		if a := testing.AllocsPerRun(50, func() { _, _ = set.stripe(&b.Header, i%g.nc); i++ }); a != 0 {
			t.Errorf("nc=%d: Stripe allocates %.1f, want 0", g.nc, a)
		}
	}
}

// TestDecodeBorrowsBody pins that reassembly decodes into a pooled body:
// what a decode allocates (the transactions and the bundle) stays below
// the size of the body itself, at both group sizes.
func TestDecodeBorrowsBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	suite := crypto.NewSimSuite(4, 80)
	txs := mkTxs(50, 0)
	for _, g := range []struct{ nc, f int }{{4, 1}, {16, 5}} {
		s, _ := NewStriper(g.nc, g.f)
		set, _ := s.Encode(txs)
		b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, g.nc), set.Root)
		// The first f stripes, data stripes all, are missing, so every
		// decode rebuilds f data shards.
		pristine := make([]StripeMsg, g.nc)
		for i := g.f; i < g.nc; i++ {
			m, _ := set.stripe(&b.Header, i)
			pristine[i] = *m
		}
		stripes := make([]*StripeMsg, g.nc)
		var last *core.Bundle
		reassemble := func() {
			for i := g.f; i < g.nc; i++ {
				cp := pristine[i] // copies, not the set's slots: each call decodes
				stripes[i] = &cp
			}
			got, err := s.reassemble(&b.Header, stripes)
			if err != nil {
				t.Fatal(err)
			}
			if got == last {
				t.Fatalf("nc=%d: copies of the slots were answered from the set's memo, not decoded", g.nc)
			}
			last = got
		}
		reassemble() // the pool's first buffer
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			reassemble()
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
		if perDecode >= uint64(set.PayloadLen) {
			t.Errorf("nc=%d: a decode allocates %d B, not below the %d-B body", g.nc, perDecode, set.PayloadLen)
		}
	}
}
