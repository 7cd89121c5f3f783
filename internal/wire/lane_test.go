package wire_test

import (
	"testing"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/hotstuff"
	"predis/internal/multizone"
	"predis/internal/pbft"
	"predis/internal/txpool"
	"predis/internal/types"
	"predis/internal/wire"
)

// predisBlock is a Predis proposal payload for nc producers: metadata only.
func predisBlock(nc int) *core.PredisBlock {
	return &core.PredisBlock{Height: 9, Cuts: make([]core.Cut, nc), Sig: make([]byte, crypto.SignatureSize)}
}

// hsProposal is a P-HS proposal at nc replicas carrying a full list QC.
func hsProposal(nc int, payload wire.Message) *hotstuff.Proposal {
	quorum := nc - (nc-1)/3
	qc := &hotstuff.QC{View: 8, Signers: make([]wire.NodeID, quorum), Sigs: make([][]byte, quorum)}
	for i := range qc.Sigs {
		qc.Sigs[i] = make([]byte, crypto.SignatureSize)
	}
	return &hotstuff.Proposal{Block: &hotstuff.Block{
		Height: 9, View: 9, Justify: qc, Payload: payload, Sig: make([]byte, crypto.SignatureSize),
	}}
}

// batch is a baseline proposal payload: 800 full 512 B transactions.
func batch() *txpool.Batch {
	b := &txpool.Batch{Height: 9}
	for i := 0; i < 800; i++ {
		b.Txs = append(b.Txs, types.NewTransaction(5000, uint64(i), 512, 0))
	}
	return b
}

// TestLaneFrame pins the lane rule: Predis proposals, every vote and the
// Predis block on its way to full nodes ride the consensus lane; a proposal
// that carries its batch, a block too large to be metadata, and every other
// data-plane, zone and client frame, is bulk.
func TestLaneFrame(t *testing.T) {
	sig := make([]byte, crypto.SignatureSize)
	lane := map[string]wire.Message{
		"P-HS proposal nc=16":   hsProposal(16, predisBlock(16)),
		"P-HS proposal nc=32":   hsProposal(32, predisBlock(32)),
		"P-PBFT pre-prepare":    &pbft.PrePrepare{Payload: predisBlock(16), Sig: sig},
		"PBFT prepare":          &pbft.Prepare{Sig: sig},
		"PBFT commit":           &pbft.Commit{Sig: sig},
		"HotStuff vote":         &hotstuff.Vote{Sig: sig},
		"HotStuff new-view":     &hotstuff.NewViewMsg{HighQC: hsProposal(16, predisBlock(16)).Block.Justify, Sig: sig},
		"PBFT status request":   &pbft.StatusRequest{},
		"HotStuff genesis vote": &hotstuff.Vote{},
		"Predis block nc=16":    predisBlock(16),
		"Predis block nc=80":    predisBlock(80),
	}
	for name, m := range lane {
		if !wire.LaneFrame(m, m.WireSize()) {
			t.Errorf("%s (%d B): bulk, want the consensus lane", name, m.WireSize())
		}
	}
	if a, b := hsProposal(16, predisBlock(16)).WireSize(), hsProposal(32, predisBlock(32)).WireSize(); a != 1760 || b != 3192 {
		t.Errorf("P-HS proposal is %d B at nc=16 and %d B at nc=32; the lane bound's derivation says 1 760 and 3 192", a, b)
	}

	bulk := map[string]wire.Message{
		"PBFT pre-prepare with a batch":        &pbft.PrePrepare{Payload: batch(), Sig: sig},
		"HotStuff proposal with a batch":       hsProposal(4, batch()),
		"bundle request":                       &core.BundleRequest{},
		"Predis block of a 100-producer group": predisBlock(100),
		"stripe":                               &multizone.StripeMsg{Shard: make([]byte, 1024)},
		"catch-up block response":              &core.CatchupResponse{Blocks: []*core.PredisBlock{predisBlock(16)}},
		"zone heartbeat":                       &multizone.Heartbeat{},
		"client submit":                        &types.SubmitTx{Tx: types.NewTransaction(5000, 1, 512, 0)},
		"client reply":                         &types.BlockReply{},
		"transaction batch outside a block":    batch(),
	}
	for name, m := range bulk {
		if wire.LaneFrame(m, m.WireSize()) {
			t.Errorf("%s (%d B): consensus lane, want bulk", name, m.WireSize())
		}
	}
	if got := (&pbft.PrePrepare{Payload: batch(), Sig: sig}).WireSize(); got < 400_000 {
		t.Errorf("batch-carrying pre-prepare is %d B, want the 400 kB the lane bound is argued against", got)
	}
	// A core, zone or client type tag alone puts nothing on the lane: only
	// the Metadata marker does.
	for _, r := range []wire.Type{wire.TypeRangeCore, wire.TypeRangeZone, wire.TypeRangeClient, wire.TypeRangeTxPool, wire.TypeRangeNarwhal, wire.TypeRangeGossip} {
		for low := wire.Type(0); low < 0x100; low++ {
			if wire.LaneFrame(typeOnly(r+low), 64) {
				t.Errorf("type %#04x: consensus lane, want bulk", uint16(r+low))
			}
		}
	}
}

// typeOnly is a message that is nothing but its type tag.
type typeOnly wire.Type

func (m typeOnly) Type() wire.Type          { return wire.Type(m) }
func (m typeOnly) WireSize() int            { return wire.FrameOverhead }
func (m typeOnly) EncodeBody(*wire.Encoder) {}
