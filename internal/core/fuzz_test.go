package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

// coreTypes is every message type core registers.
var coreTypes = []wire.Type{
	TypeBundle, TypeBundleRequest, TypeBundleResponse, TypeConflictEvidence,
	TypePredisBlock, TypeCatchupRequest, TypeCatchupResponse,
}

// FuzzCoreMessages decodes arbitrary bytes as the body of every message core
// registers. A peer controls every byte of a frame, so for each type:
//
//   - decoding never panics, whatever the input;
//   - a decoded message re-marshals to the exact frame (the codec is
//     positional with length-prefixed slices, so encoding is canonical);
//   - its WireSize equals the frame length.
func FuzzCoreMessages(f *testing.F) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 5)
	b := PackBundle(suite.Signer(1), 1, nil, []*types.Transaction{types.NewTransaction(9, 1, 64, 0)}, TipList{0, 1, 0, 0})
	other := PackBundle(suite.Signer(1), 1, nil, nil, TipList{0, 1, 0, 0})
	blk := &PredisBlock{Height: 3, Leader: 2, Cuts: []Cut{{}, {Height: 1, Head: b.Header.Hash()}, {}, {}}}
	blk.Sig = suite.Signer(2).Sign(blk.Hash())
	for _, m := range []wire.Message{
		&BundleMsg{Bundle: b},
		&BundleRequest{Producer: 1, From: 1, To: 4},
		&BundleResponse{Bundles: []*Bundle{b}},
		&ConflictEvidence{A: b.Header, B: other.Header},
		blk,
		&CatchupRequest{Height: 2},
		&CatchupResponse{Head: 3, Blocks: []*PredisBlock{blk}},
		&CatchupResponse{Head: 3, Anchor: blk, Blocks: []*PredisBlock{blk}},
	} {
		f.Add(wire.Marshal(m)[wire.FrameOverhead:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > wire.MaxBodyLen {
			return
		}
		for _, ty := range coreTypes {
			frame := binary.BigEndian.AppendUint16(nil, uint16(ty))
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
			frame = append(frame, body...)
			m, n, err := wire.Unmarshal(frame)
			if err != nil {
				continue
			}
			if n != len(frame) || m.WireSize() != n {
				t.Fatalf("%s: consumed %d, WireSize %d, frame length %d", wire.TypeName(ty), n, m.WireSize(), len(frame))
			}
			if again := wire.Marshal(m); !bytes.Equal(again, frame) {
				t.Fatalf("%s: re-marshal differs:\n got % x\nwant % x", wire.TypeName(ty), again, frame)
			}
		}
	})
}
