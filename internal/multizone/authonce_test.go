package multizone

import (
	"bytes"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/wire"
)

// countingSigner counts signature checks per digest, across every node
// that shares its map.
type countingSigner struct {
	crypto.Signer
	verifies map[crypto.Hash]int
}

func (s *countingSigner) Verify(idx int, h crypto.Hash, sig []byte) bool {
	s.verifies[h]++
	return s.Signer.Verify(idx, h, sig)
}

// TestSignaturesAndRootsCheckedOncePerProcess runs a two-zone cluster
// whose every node counts its signature checks into one table: each
// committed block's leader signature is checked at most once in the
// process and each committed bundle's header signature at most once, and
// the mempools of consensus and full nodes together compute one root per
// block, not one per validating node.
func TestSignaturesAndRootsCheckedOncePerProcess(t *testing.T) {
	verifies := make(map[crypto.Hash]int)
	cfg := zoneConfig{nc: 4, f: 1, zones: 2, perZone: 4, rate: 300, duration: 3 * time.Second, exec: true,
		signer: func(s crypto.Signer) crypto.Signer { return &countingSigner{Signer: s, verifies: verifies} }}
	zc := buildZoneCluster(t, cfg)
	zc.net.Start()
	zc.net.Run(cfg.duration)

	led := zc.ledgers[zc.fulls[0].ID()]
	if led.Len() < 20 {
		t.Fatalf("full node completed %d blocks, want ≥ 20", led.Len())
	}
	for h := uint64(1); h <= uint64(led.Len()); h++ {
		e, err := led.Get(h)
		if err != nil {
			t.Fatal(err)
		}
		if v := verifies[e.Hash]; v > 1 {
			t.Fatalf("block %d: leader signature checked %d times", h, v)
		}
	}
	bundles := 0
	for _, b := range committedBundles(zc.hosts[0]) {
		bundles++
		if v := verifies[b.Header.Hash()]; v > 1 {
			t.Fatalf("bundle %d/%d: header signature checked %d times", b.Header.Producer, b.Header.Height, v)
		}
	}
	if bundles < 20 {
		t.Fatalf("%d committed bundles held, want ≥ 20", bundles)
	}
	var roots uint64
	for _, h := range zc.hosts {
		roots += h.Node.Predis().Mempool().BlockRoots()
	}
	for _, fn := range zc.fulls {
		roots += fn.Mempool().BlockRoots()
	}
	// Every built block was computed by its leader; the few in flight at
	// the horizon never completed.
	if blocks := uint64(led.Len()); roots < blocks || roots > blocks+uint64(cfg.nc) {
		t.Fatalf("%d block roots computed for %d blocks, want one each", roots, blocks)
	}
}

// TestSlotHeaderCheckedOncePerBundle: a carrier slot stamped from its
// producer's packed bundle keeps the header's signature memo, so no
// carrier slot of the set is checked. Each input below gets the full check
// and is rejected when bad: a value copy of the slot with its header
// signature replaced, one with its header's Height changed, a second
// header's copy from StripeSet.Stripe, a fresh set's slot stamped with a
// value copy of the header with its Height changed, a decoded frame with a
// flipped signature byte, and a TamperShard copy (its proof fails first,
// and it carries no memo). An honest decoded frame and an honest value
// copy are checked and accepted.
func TestSlotHeaderCheckedOncePerBundle(t *testing.T) {
	r := newRelayRig(t, 1)
	fn := r.fn
	verifies := make(map[crypto.Hash]int)
	fn.cfg.Signer = &countingSigner{Signer: fn.cfg.Signer, verifies: verifies}
	b := r.bundles[0]
	hash := b.Header.Hash()
	slot := r.stripes[0][0] // producer 0's carriers are stripes 0 and 2
	forged := r.suite.Signer(1).Sign(hash)

	// feed delivers m to a node that has not seen the bundle yet and
	// reports whether the node accepted it.
	feed := func(m *StripeMsg) bool {
		if fn.partials[hash] != nil {
			dropPartials(fn, hash)
		}
		rejected := fn.rejected
		fn.onStripe(0, m)
		return fn.rejected == rejected && fn.partials[hash] != nil
	}
	if !feed(slot) || verifies[hash] != 0 {
		t.Fatalf("first carrier: accepted with %d header checks, want 0", verifies[hash])
	}
	if !feed(r.stripes[0][2]) || !feed(slot) || verifies[hash] != 0 {
		t.Fatalf("the set's carrier slots again: %d header checks in all, want still 0", verifies[hash])
	}

	copied := *slot
	copied.Header.Sig = forged
	lifted := *slot
	lifted.Header.Height = 99
	second, err := r.stripes[0][0].set.stripe(&core.BundleHeader{
		Producer: b.Header.Producer, Height: b.Header.Height, Parent: b.Header.Parent,
		TxRoot: b.Header.TxRoot, StripeRoot: b.Header.StripeRoot, TxCount: b.Header.TxCount,
		TxBytes: b.Header.TxBytes, Tips: b.Header.Tips, Sig: forged,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.isSlot() {
		t.Fatal("a second header's stripe took the slot")
	}
	liftedHdr := b.Header
	liftedHdr.Height = 99
	fresh, err := r.striper.Encode(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	third, err := fresh.stripe(&liftedHdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.Marshal(slot)
	frame[bytes.Index(frame, b.Header.Sig)] ^= 1
	dec, _, err := wire.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *StripeMsg
	}{
		{"value copy with its Sig replaced", &copied},
		{"value copy with its header's Height 99", &lifted},
		{"second header's copy from Stripe", second},
		{"a fresh set's slot for a header value copy with Height 99", third},
		{"decoded frame with a flipped Sig byte", dec.(*StripeMsg)},
	} {
		key := c.m.Header.Hash()
		before := verifies[key]
		if feed(c.m) {
			t.Errorf("%s: accepted", c.name)
		}
		if verifies[key] != before+1 {
			t.Errorf("%s: the header signature was not checked", c.name)
		}
	}
	tampered := slot.TamperShard(5).(*StripeMsg)
	if feed(tampered) {
		t.Fatal("TamperShard copy accepted")
	}
	honest, _, _ := wire.Unmarshal(wire.Marshal(slot))
	plain := *slot
	for _, m := range []*StripeMsg{honest.(*StripeMsg), &plain} {
		before := verifies[hash]
		if !feed(m) || verifies[hash] != before+1 {
			t.Fatalf("honest decoded frame and value copy: want each checked once and accepted")
		}
	}
}
