package types

import (
	"encoding/binary"
	"testing"
	"time"

	"predis/internal/wire"
)

func opRoundtrip(t *testing.T, tx *Transaction) *Transaction {
	t.Helper()
	e := wire.NewEncoder(int(tx.Size))
	tx.EncodeTo(e)
	if e.Len() != int(tx.Size) {
		t.Fatalf("encoded %d bytes, Size %d", e.Len(), tx.Size)
	}
	got, err := DecodeTx(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != tx.Hash() {
		t.Fatal("hash changed across roundtrip")
	}
	return got
}

func TestTransferOpRoundtrip(t *testing.T) {
	tx := NewTransaction(3, 9, 512, time.Second).
		WithOp(Op{Kind: OpTransfer, From: 17, To: 4, Amount: 25})
	got := opRoundtrip(t, tx)
	if got.Op.Kind != OpTransfer || got.Op.From != 17 || got.Op.To != 4 || got.Op.Amount != 25 {
		t.Fatalf("transfer op mismatch: %+v", got.Op)
	}
}

func TestRMWOpRoundtrip(t *testing.T) {
	op := Op{
		Kind:   OpRMW,
		Reads:  []uint64{1, 2, 3},
		Writes: []uint64{7, 8},
		Delta:  40,
	}
	tx := NewTransaction(1, 1, 512, 0).WithOp(op)
	got := opRoundtrip(t, tx)
	g := got.Op
	if g.Kind != OpRMW || len(g.Reads) != 3 || len(g.Writes) != 2 ||
		g.Reads[2] != 3 || g.Writes[1] != 8 || g.Delta != 40 {
		t.Fatalf("rmw op mismatch: %+v", g)
	}
}

func TestWithOpGrowsUndersizedTransaction(t *testing.T) {
	tx := NewTransaction(1, 1, MinTxSize, 0).
		WithOp(Op{Kind: OpTransfer, From: 1, To: 2, Amount: 3})
	if int(tx.Size) != txFixedLen+24 {
		t.Fatalf("Size = %d, want %d", tx.Size, txFixedLen+24)
	}
	opRoundtrip(t, tx)
}

func TestOpChangesHashIdentity(t *testing.T) {
	plain := NewTransaction(1, 2, 512, time.Second)
	moved := NewTransaction(1, 2, 512, time.Second).
		WithOp(Op{Kind: OpTransfer, From: 1, To: 2, Amount: 3})
	if plain.Hash() == moved.Hash() {
		t.Fatal("op must be part of the transaction identity")
	}
	other := NewTransaction(1, 2, 512, time.Second).
		WithOp(Op{Kind: OpTransfer, From: 1, To: 2, Amount: 4})
	if moved.Hash() == other.Hash() {
		t.Fatal("different amounts must hash differently")
	}
}

func TestDecodeTxRejectsOversizedKeySets(t *testing.T) {
	e := wire.NewEncoder(64)
	e.Node(1)
	e.U64(1)
	e.U32(512)
	e.U64(0)
	e.U8(uint8(OpRMW))
	e.U8(MaxOpKeys + 1) // reads
	e.U8(0)             // writes
	if _, err := DecodeTx(wire.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("oversized rmw read set must be rejected")
	}
}

func TestDecodeTxRejectsPayloadOverflowingSize(t *testing.T) {
	// A transfer payload (24 bytes) cannot fit a Size of txFixedLen.
	tx := NewTransaction(1, 1, 512, 0).
		WithOp(Op{Kind: OpTransfer, From: 1, To: 2, Amount: 3})
	e := wire.NewEncoder(int(tx.Size))
	tx.EncodeTo(e)
	raw := append([]byte(nil), e.Bytes()...)
	// Patch the declared Size field (offset 12) down to the bare header.
	raw[12], raw[13], raw[14], raw[15] = 0, 0, 0, byte(txFixedLen)
	if _, err := DecodeTx(wire.NewDecoder(raw)); err == nil {
		t.Fatal("op payload overflowing declared size must be rejected")
	}
}

func TestDecodeTxRejectsNonzeroPadding(t *testing.T) {
	tx := NewTransaction(1, 1, 512, 0)
	e := wire.NewEncoder(int(tx.Size))
	tx.EncodeTo(e)
	raw := append([]byte(nil), e.Bytes()...)
	raw[len(raw)-1] = 0xa5
	if _, err := DecodeTx(wire.NewDecoder(raw)); err == nil {
		t.Fatal("nonzero padding must be rejected as non-canonical")
	}
}

func TestOpReadWriteSets(t *testing.T) {
	transfer := Op{Kind: OpTransfer, From: 5, To: 6, Amount: 1}
	if r := transfer.ReadKeys(nil); len(r) != 2 || r[0] != 5 || r[1] != 6 {
		t.Fatalf("transfer reads = %v", r)
	}
	if w := transfer.WriteKeys(nil); len(w) != 2 {
		t.Fatalf("transfer writes = %v", w)
	}
	self := Op{Kind: OpTransfer, From: 5, To: 5, Amount: 1}
	if w := self.WriteKeys(nil); len(w) != 1 {
		t.Fatalf("self-transfer writes = %v", w)
	}
	rmw := Op{Kind: OpRMW, Reads: []uint64{1}, Writes: []uint64{2}, Delta: 1}
	if r := rmw.ReadKeys(nil); len(r) != 2 {
		t.Fatalf("rmw reads = %v (writes are implicitly read)", r)
	}
	if w := rmw.WriteKeys(nil); len(w) != 1 || w[0] != 2 {
		t.Fatalf("rmw writes = %v", w)
	}
	var opaque Op
	if !opaque.IsNoop() || len(opaque.ReadKeys(nil)) != 0 || len(opaque.WriteKeys(nil)) != 0 {
		t.Fatal("opaque op must declare empty sets")
	}
}

// TestEncodeToZeroAlloc pins the shared-zero-padding fix: encoding a
// full-size transaction into a pre-grown encoder must not allocate (the
// old code built a fresh ~500-byte zero slice per encode).
func TestEncodeToZeroAlloc(t *testing.T) {
	txs := []*Transaction{
		NewTransaction(1, 1, DefaultTxSize, time.Second),
		NewTransaction(2, 2, DefaultTxSize, time.Second).
			WithOp(Op{Kind: OpTransfer, From: 9, To: 3, Amount: 5}),
		NewTransaction(3, 3, 4096, time.Second).
			WithOp(Op{Kind: OpRMW, Reads: []uint64{1, 2}, Writes: []uint64{3}, Delta: 1}),
	}
	for _, tx := range txs {
		tx := tx
		e := wire.NewEncoder(int(tx.Size))
		tx.EncodeTo(e) // pre-grow the buffer
		if n := testing.AllocsPerRun(200, func() {
			e.Reset()
			tx.EncodeTo(e)
		}); n != 0 {
			t.Fatalf("EncodeTo allocates %.1f times per run (size %d)", n, tx.Size)
		}
	}
}

// FuzzDecodeTx throws arbitrary bytes at the transaction decoders: they
// must never panic, a successfully decoded transaction must re-encode to
// exactly the consumed bytes (canonical encoding, op payload and zero
// padding included), and so must a successfully decoded list through
// EncodeTxs.
func FuzzDecodeTx(f *testing.F) {
	seed := func(tx *Transaction) {
		e := wire.NewEncoder(int(tx.Size))
		tx.EncodeTo(e)
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	seed(NewTransaction(1, 1, DefaultTxSize, time.Second))
	seed(NewTransaction(2, 7, 64, 0).
		WithOp(Op{Kind: OpTransfer, From: 11, To: 3, Amount: 400}))
	seed(NewTransaction(3, 9, DefaultTxSize, time.Millisecond).
		WithOp(Op{Kind: OpRMW, Reads: []uint64{5, 6}, Writes: []uint64{7, 8}, Delta: 2}))
	seed(NewTransaction(4, 1, MinTxSize, 0))
	f.Add([]byte{0xff})
	// Lists: one mixing transfer and RMW ops, and one whose count claims
	// more transactions than the buffer holds.
	mixed := []*Transaction{
		NewTransaction(5, 1, 64, 0).WithOp(Op{Kind: OpTransfer, From: 1, To: 2, Amount: 3}),
		NewTransaction(5, 2, 128, 0).WithOp(Op{Kind: OpRMW, Reads: []uint64{4}, Writes: []uint64{5, 6}, Delta: 7}),
		NewTransaction(5, 3, MinTxSize, 0),
	}
	e := wire.NewEncoder(SizeTxs(mixed))
	EncodeTxs(e, mixed)
	f.Add(append([]byte(nil), e.Bytes()...))
	lying := append([]byte(nil), e.Bytes()...)
	binary.BigEndian.PutUint32(lying, uint32(len(mixed)+1))
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		if tx, err := DecodeTx(wire.NewDecoder(data)); err == nil {
			e := wire.NewEncoder(int(tx.Size))
			tx.EncodeTo(e)
			canonical(t, "tx", data, e.Bytes())
		}
		if txs, err := DecodeTxs(wire.NewDecoder(data)); err == nil {
			e := wire.NewEncoder(SizeTxs(txs))
			EncodeTxs(e, txs)
			canonical(t, "list", data, e.Bytes())
		}
	})
}

// canonical fails unless data begins with the re-encoding enc of what was
// decoded from it.
func canonical(t *testing.T, what string, data, enc []byte) {
	t.Helper()
	if len(data) < len(enc) {
		t.Fatalf("decoded a %d-byte %s from %d bytes", len(enc), what, len(data))
	}
	for i, b := range enc {
		if data[i] != b {
			t.Fatalf("%s re-encode differs at byte %d: %#02x vs %#02x", what, i, b, data[i])
		}
	}
}
