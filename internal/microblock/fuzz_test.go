package microblock

import (
	"bytes"
	"encoding/binary"
	"testing"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// microblockTypes is every message type microblock registers.
var microblockTypes = []wire.Type{TypeMicroblock, TypeAck, TypeCertMsg, TypeIDList}

// FuzzMicroblockMessages decodes arbitrary bytes as the body of every
// message microblock registers. A peer controls every byte of a frame, so
// for each type:
//
//   - decoding never panics, whatever the input;
//   - a decoded message re-marshals to the exact frame (the codec is
//     positional with length-prefixed slices, so encoding is canonical);
//   - its WireSize equals the frame length.
func FuzzMicroblockMessages(f *testing.F) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 5)
	b1 := batch(suite, 1, nil, 1, 0)
	cert := certFor(suite, b1, 3)
	for _, m := range []wire.Message{
		&Microblock{Bundle: b1},
		&Microblock{Bundle: batch(suite, 1, b1, 2, 5), PrevCert: cert},
		&Ack{Digest: cert.Digest, Replica: 2, Sig: suite.Signer(2).Sign(ackDigest(cert.Digest, cert.Producer, cert.Height))},
		&CertMsg{Cert: cert},
		&IDList{Height: 3, IDs: []crypto.Hash{cert.Digest}},
	} {
		f.Add(wire.Marshal(m)[wire.FrameOverhead:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > wire.MaxBodyLen {
			return
		}
		for _, ty := range microblockTypes {
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
