package txpool

import (
	"testing"
	"time"

	"predis/internal/types"
	"predis/internal/wire"
)

func mkTx(seq uint64) *types.Transaction {
	return types.NewTransaction(5, seq, 512, time.Duration(seq))
}

func mustApp(t *testing.T, batch int) *App {
	t.Helper()
	a, err := New(Options{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsZeroBatch(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("BatchSize=0 accepted")
	}
}

func TestSubmitDedupes(t *testing.T) {
	a := mustApp(t, 10)
	tx := mkTx(1)
	a.SubmitTx(tx)
	a.SubmitTx(tx)
	a.SubmitTx(mkTx(2))
	if a.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2 (duplicate dropped)", a.QueueLen())
	}
}

func TestBuildProposalBatches(t *testing.T) {
	a := mustApp(t, 3)
	for i := uint64(1); i <= 5; i++ {
		a.SubmitTx(mkTx(i))
	}
	payload, digest, ok := a.BuildProposal(1, nil)
	if !ok {
		t.Fatal("no proposal from non-empty pool")
	}
	batch := payload.(*Batch)
	if len(batch.Txs) != 3 {
		t.Fatalf("batch has %d txs, want 3", len(batch.Txs))
	}
	if digest != batch.Digest() {
		t.Fatal("digest mismatch")
	}
	if a.QueueLen() != 2 {
		t.Fatalf("pool kept %d txs, want 2", a.QueueLen())
	}
	if _, _, ok := a.BuildProposal(2, nil); !ok {
		t.Fatal("second proposal should drain the rest")
	}
	if _, _, ok := a.BuildProposal(3, nil); ok {
		t.Fatal("empty pool produced a proposal")
	}
}

func TestValidateProposal(t *testing.T) {
	a := mustApp(t, 4)
	batch := &Batch{Height: 2, Txs: []*types.Transaction{mkTx(1)}}
	if _, err := a.ValidateProposal(2, batch, nil); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if _, err := a.ValidateProposal(3, batch, nil); err == nil {
		t.Fatal("height mismatch accepted")
	}
	if _, err := a.ValidateProposal(2, &Batch{Height: 2}, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := a.ValidateProposal(2, mkSubmit(), nil); err == nil {
		t.Fatal("wrong payload type accepted")
	}
}

func mkSubmit() wire.Message { return &types.SubmitTx{Tx: mkTx(9)} }

func TestOnCommitDedupesAcrossBlocks(t *testing.T) {
	var delivered []int
	a, err := New(Options{BatchSize: 4, OnCommit: func(h uint64, txs []*types.Transaction) {
		delivered = append(delivered, len(txs))
	}})
	if err != nil {
		t.Fatal(err)
	}
	tx1, tx2 := mkTx(1), mkTx(2)
	a.OnCommit(1, &Batch{Height: 1, Txs: []*types.Transaction{tx1, tx2}})
	// A view-change race re-commits tx2 alongside a fresh tx3.
	a.OnCommit(2, &Batch{Height: 2, Txs: []*types.Transaction{tx2, mkTx(3)}})
	if a.Committed() != 3 {
		t.Fatalf("Committed = %d, want 3 (tx2 counted once)", a.Committed())
	}
	if len(delivered) != 2 || delivered[0] != 2 || delivered[1] != 1 {
		t.Fatalf("delivered = %v", delivered)
	}
}

func TestCommittedTxsPurgedFromPool(t *testing.T) {
	a := mustApp(t, 10)
	tx := mkTx(1)
	a.SubmitTx(tx)
	// Another leader committed it first.
	a.OnCommit(1, &Batch{Height: 1, Txs: []*types.Transaction{tx}})
	if a.HasPendingWork() {
		t.Fatal("committed tx still reported as pending work")
	}
	if _, _, ok := a.BuildProposal(2, nil); ok {
		t.Fatal("committed tx re-proposed")
	}
}

func TestBatchCodec(t *testing.T) {
	RegisterMessages()
	types.RegisterMessages()
	b := &Batch{Height: 9, Txs: []*types.Transaction{mkTx(1), mkTx(2)}}
	got, err := wire.Roundtrip(b)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*Batch)
	if gb.Digest() != b.Digest() {
		t.Fatal("digest changed across roundtrip")
	}
	if len(wire.Marshal(b)) != b.WireSize() {
		t.Fatal("Batch WireSize mismatch")
	}
}

func TestBatchDigestSensitivity(t *testing.T) {
	b1 := &Batch{Height: 1, Txs: []*types.Transaction{mkTx(1), mkTx(2)}}
	b2 := &Batch{Height: 2, Txs: b1.Txs}
	if b1.Digest() == b2.Digest() {
		t.Fatal("height must affect digest")
	}
	b3 := &Batch{Height: 1, Txs: []*types.Transaction{mkTx(2), mkTx(1)}}
	if b1.Digest() == b3.Digest() {
		t.Fatal("tx order must affect digest")
	}
}
