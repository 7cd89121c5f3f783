package types

import (
	"fmt"

	"predis/internal/wire"
)

// OpKind selects a transaction's semantic operation. The paper's
// evaluation uses opaque fixed-size payloads; the execution plane
// (internal/exec) gives transactions account semantics so committed
// blocks can be applied to a state machine.
type OpKind uint8

// Operation kinds.
const (
	// OpOpaque is a payload-only transaction with no state effect (the
	// paper's synthetic 512-byte transaction). The executor skips it.
	OpOpaque OpKind = iota
	// OpTransfer moves Amount from account From to account To. It
	// aborts deterministically — with no writes — when From's balance
	// is short.
	OpTransfer
	// OpRMW reads the Reads accounts and adds Delta to each of the
	// Writes accounts (a read-modify-write: every written account is
	// implicitly read).
	OpRMW
	// opKindEnd bounds the valid kinds for decoding.
	opKindEnd
)

// MaxOpKeys bounds each of an OpRMW's declared key sets; larger sets
// are rejected on decode so adversarial frames cannot inflate conflict
// analysis.
const MaxOpKeys = 8

// maxOpPayload is the largest encoded op payload: an OpRMW with full
// read and write sets (count bytes + keys + delta).
const maxOpPayload = 2 + 8*2*MaxOpKeys + 8

// Op is a transaction's semantic operation with its declared read and
// write sets. The zero value is OpOpaque.
type Op struct {
	Kind OpKind
	// From, To, Amount parameterize OpTransfer.
	From, To uint64
	Amount   uint64
	// Reads, Writes, Delta parameterize OpRMW.
	Reads  []uint64
	Writes []uint64
	Delta  uint64
}

// payloadLen returns the encoded payload size after the kind byte.
func (o *Op) payloadLen() int {
	switch o.Kind {
	case OpTransfer:
		return 24
	case OpRMW:
		return 2 + 8*(len(o.Reads)+len(o.Writes)) + 8
	default:
		return 0
	}
}

// appendPayload appends the op payload (everything after the kind byte)
// to b. It is the single encoding definition: EncodeTo and Hash
// both feed from it, so wire identity and hash identity cannot drift.
func (o *Op) appendPayload(b []byte) []byte {
	switch o.Kind {
	case OpTransfer:
		b = appendU64(b, o.From)
		b = appendU64(b, o.To)
		b = appendU64(b, o.Amount)
	case OpRMW:
		b = append(b, uint8(len(o.Reads)), uint8(len(o.Writes)))
		for _, k := range o.Reads {
			b = appendU64(b, k)
		}
		for _, k := range o.Writes {
			b = appendU64(b, k)
		}
		b = appendU64(b, o.Delta)
	}
	return b
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// decodeOpPayload reads the payload for a kind already decoded.
func decodeOpPayload(kind OpKind, d *wire.Decoder) (Op, error) {
	op := Op{Kind: kind}
	switch kind {
	case OpOpaque:
	case OpTransfer:
		op.From = d.U64()
		op.To = d.U64()
		op.Amount = d.U64()
	case OpRMW:
		nr, nw := int(d.U8()), int(d.U8())
		if err := d.Err(); err != nil {
			return Op{}, err
		}
		if nr > MaxOpKeys || nw > MaxOpKeys {
			return Op{}, fmt.Errorf("types: rmw key sets %d/%d exceed %d", nr, nw, MaxOpKeys)
		}
		if nr > 0 {
			op.Reads = make([]uint64, nr)
			for i := range op.Reads {
				op.Reads[i] = d.U64()
			}
		}
		if nw > 0 {
			op.Writes = make([]uint64, nw)
			for i := range op.Writes {
				op.Writes[i] = d.U64()
			}
		}
		op.Delta = d.U64()
	default:
		return Op{}, fmt.Errorf("types: unknown op kind %d", kind)
	}
	return op, d.Err()
}

// IsNoop reports whether the op has no state effect.
func (o *Op) IsNoop() bool { return o.Kind == OpOpaque }

// ReadKeys appends the declared read set to buf (which may be a reused
// scratch slice). Written accounts are implicitly read: a transfer reads
// both balances and an RMW reads its write set before adding Delta.
func (o *Op) ReadKeys(buf []uint64) []uint64 {
	switch o.Kind {
	case OpTransfer:
		return append(buf, o.From, o.To)
	case OpRMW:
		buf = append(buf, o.Reads...)
		return append(buf, o.Writes...)
	}
	return buf
}

// WriteKeys appends the declared write set to buf.
func (o *Op) WriteKeys(buf []uint64) []uint64 {
	switch o.Kind {
	case OpTransfer:
		if o.From == o.To {
			return append(buf, o.From)
		}
		return append(buf, o.From, o.To)
	case OpRMW:
		return append(buf, o.Writes...)
	}
	return buf
}
