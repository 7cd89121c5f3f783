package types

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"predis/internal/wire"
)

func TestTransactionHashIdentity(t *testing.T) {
	a := NewTransaction(1, 2, 512, time.Second)
	b := NewTransaction(1, 2, 512, time.Second)
	if a.Hash() != b.Hash() {
		t.Fatal("identical transactions must hash equal")
	}
	c := NewTransaction(1, 3, 512, time.Second)
	if a.Hash() == c.Hash() {
		t.Fatal("different seq must hash differently")
	}
	d := NewTransaction(2, 2, 512, time.Second)
	if a.Hash() == d.Hash() {
		t.Fatal("different client must hash differently")
	}
	// A value copy of a hashed transaction re-derives its identity.
	e := *a
	e.Seq = 3
	if e.Hash() != c.Hash() {
		t.Fatal("a value copy with another seq kept the original's hash")
	}
}

func TestTransactionMinSize(t *testing.T) {
	tx := NewTransaction(1, 1, 1, 0)
	if tx.Size != MinTxSize {
		t.Fatalf("Size = %d, want raised to %d", tx.Size, MinTxSize)
	}
}

func TestTransactionEncodedSizeExact(t *testing.T) {
	for _, size := range []uint32{MinTxSize, 100, 512, 4096} {
		tx := NewTransaction(3, 7, size, 5*time.Millisecond)
		e := wire.NewEncoder(int(size))
		tx.EncodeTo(e)
		if e.Len() != int(tx.Size) {
			t.Fatalf("size %d: encoded %d bytes", size, e.Len())
		}
		d := wire.NewDecoder(e.Bytes())
		got, err := DecodeTx(d)
		if err != nil {
			t.Fatal(err)
		}
		if got.Client != tx.Client || got.Seq != tx.Seq || got.Size != tx.Size || got.Submitted != tx.Submitted {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, tx)
		}
		if got.Hash() != tx.Hash() {
			t.Fatal("hash changed across roundtrip")
		}
	}
}

func TestTxListRoundtrip(t *testing.T) {
	txs := make([]*Transaction, 50)
	for i := range txs {
		txs[i] = NewTransaction(wire.NodeID(i%4), uint64(i), 512, time.Duration(i))
	}
	e := wire.NewEncoder(SizeTxs(txs))
	EncodeTxs(e, txs)
	if e.Len() != SizeTxs(txs) {
		t.Fatalf("SizeTxs = %d, encoded %d", SizeTxs(txs), e.Len())
	}
	got, err := DecodeTxs(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txs) {
		t.Fatalf("decoded %d txs", len(got))
	}
	for i := range got {
		if got[i].Hash() != txs[i].Hash() {
			t.Fatalf("tx %d hash mismatch", i)
		}
	}
	if TotalBytes(txs) != 50*512 {
		t.Fatalf("TotalBytes = %d", TotalBytes(txs))
	}
	if len(TxHashes(txs)) != 50 {
		t.Fatal("TxHashes length")
	}
}

func TestDecodeTxsLyingCount(t *testing.T) {
	e := wire.NewEncoder(8)
	e.U32(1 << 30) // absurd count
	if _, err := DecodeTxs(wire.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("lying count must fail")
	}
}

// TestDecodeTxsAllocsPerList pins the list decoder's budget: opaque
// transactions cost the pointer slice and one slab per decodeSlab of
// them, so the same two allocations for 1, 50 or 64, and each decoded
// transaction is a distinct pointer with its source's identity.
func TestDecodeTxsAllocsPerList(t *testing.T) {
	for _, n := range []int{1, 50, decodeSlab, 2*decodeSlab + 3} {
		txs := make([]*Transaction, n)
		for i := range txs {
			txs[i] = NewTransaction(wire.NodeID(i%4), uint64(i), DefaultTxSize, time.Duration(i))
		}
		e := wire.NewEncoder(SizeTxs(txs))
		EncodeTxs(e, txs)
		body := e.Bytes()
		got, err := DecodeTxs(wire.NewDecoder(body))
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: decoded %d, %v", n, len(got), err)
		}
		seen := make(map[*Transaction]bool, n)
		for i, tx := range got {
			if seen[tx] {
				t.Fatalf("n=%d: transaction %d shares a pointer with an earlier one", n, i)
			}
			seen[tx] = true
			if tx.Hash() != txs[i].Hash() {
				t.Fatalf("n=%d: transaction %d hash differs from its source", n, i)
			}
		}
		want := 1 + (n+decodeSlab-1)/decodeSlab
		if a := testing.AllocsPerRun(50, func() {
			if _, err := DecodeTxs(wire.NewDecoder(body)); err != nil {
				t.Fatal(err)
			}
		}); a != float64(want) {
			t.Errorf("DecodeTxs(%d txs) allocates %.1f, want %d", n, a, want)
		}
	}
}

// TestDecodeTxsLyingCountCostsOneSlab: a zero body that claims as many
// transactions as it could hold fails on the first one, having allocated
// the pointer slice and one slab, not a slab for the claimed count.
func TestDecodeTxsLyingCountCostsOneSlab(t *testing.T) {
	body := make([]byte, 1<<20)
	n := (len(body) - 4) / MinTxSize
	binary.BigEndian.PutUint32(body, uint32(n))
	var err error
	got := allocBytes(func() { _, err = DecodeTxs(wire.NewDecoder(body)) })
	if err == nil {
		t.Fatal("a zero body decoded as transactions")
	}
	if limit := uint64(8*n) + uint64(decodeSlab*unsafe.Sizeof(Transaction{})) + 4096; got > limit {
		t.Fatalf("lying count allocated %d bytes, want at most %d", got, limit)
	}
}

// allocBytes returns the heap bytes one call of run allocates.
func allocBytes(run func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeTxRejectsTinySize(t *testing.T) {
	e := wire.NewEncoder(32)
	e.Node(1)
	e.U64(1)
	e.U32(2) // below MinTxSize
	e.U64(0)
	if _, err := DecodeTx(wire.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("undersized transaction must be rejected")
	}
}

func TestClientMessagesRoundtrip(t *testing.T) {
	RegisterMessages()
	sub := &SubmitTx{Tx: NewTransaction(9, 4, 512, time.Second), Target: 2}
	got, err := wire.Roundtrip(sub)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(*SubmitTx)
	if gs.Target != 2 || gs.Tx.Hash() != sub.Tx.Hash() {
		t.Fatal("SubmitTx roundtrip mismatch")
	}
	if len(wire.Marshal(sub)) != sub.WireSize() {
		t.Fatal("SubmitTx WireSize mismatch")
	}

	rep := &BlockReply{Height: 7, Replica: 1, Seqs: []uint64{1, 5, 9}}
	got2, err := wire.Roundtrip(rep)
	if err != nil {
		t.Fatal(err)
	}
	gr := got2.(*BlockReply)
	if gr.Height != 7 || gr.Replica != 1 || len(gr.Seqs) != 3 || gr.Seqs[2] != 9 {
		t.Fatalf("BlockReply roundtrip mismatch: %+v", gr)
	}
	if len(wire.Marshal(rep)) != rep.WireSize() {
		t.Fatal("BlockReply WireSize mismatch")
	}
}

func TestQuickTxRoundtrip(t *testing.T) {
	f := func(client uint32, seq uint64, size uint32, sub int64) bool {
		size = MinTxSize + size%8192
		tx := &Transaction{Client: wire.NodeID(client), Seq: seq, Size: size, Submitted: sub}
		e := wire.NewEncoder(int(size))
		tx.EncodeTo(e)
		got, err := DecodeTx(wire.NewDecoder(e.Bytes()))
		if err != nil {
			return false
		}
		return got.Hash() == tx.Hash() && e.Len() == int(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
