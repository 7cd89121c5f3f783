package multizone

import (
	"bytes"
	"encoding/binary"
	"testing"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/wire"
)

// zoneTypes is every message type multizone registers.
var zoneTypes = []wire.Type{
	TypeStripe, TypeSubscribe, TypeAcceptSubscribe, TypeRejectSubscribe,
	TypeUnsubscribe, TypeRelayerAlive, TypeLeave, TypeHeartbeat,
	TypeBlockDigest,
}

// FuzzZoneMessages decodes arbitrary bytes as the body of every message
// multizone registers. Full nodes take these from peers that may be
// Byzantine, so for each type:
//
//   - decoding never panics, whatever the input;
//   - a decoded message re-marshals to the exact frame (the codec is
//     positional with length-prefixed slices, so encoding is canonical);
//   - its WireSize equals the frame length.
func FuzzZoneMessages(f *testing.F) {
	RegisterMessages()
	core.RegisterMessages()
	suite := crypto.NewSimSuite(4, 80)
	striper, err := NewStriper(4, 1)
	if err != nil {
		f.Fatal(err)
	}
	txs := mkTxs(2, 0)
	set, err := striper.Encode(txs)
	if err != nil {
		f.Fatal(err)
	}
	b := core.PackBundleStriped(suite.Signer(0), 0, nil, txs, make(core.TipList, 4), set.Root)
	carrier, _ := set.stripe(&b.Header, 0)
	reference, _ := set.stripe(&b.Header, 1)
	for _, m := range []wire.Message{
		carrier,
		reference,
		&Subscribe{Stripes: []uint8{0, 2}},
		&AcceptSubscribe{Stripes: []uint8{1}, FromConsensus: true},
		&RejectSubscribe{Stripes: []uint8{3}, Children: []wire.NodeID{9, 10}},
		&Unsubscribe{Stripes: []uint8{0}},
		&RelayerAlive{Relayer: 42, Zone: 3},
		&Leave{},
		&Heartbeat{},
		&BlockDigest{Height: 9, Tips: []uint64{1, 2, 3, 4}},
	} {
		f.Add(wire.Marshal(m)[wire.FrameOverhead:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > wire.MaxBodyLen {
			return
		}
		for _, ty := range zoneTypes {
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
