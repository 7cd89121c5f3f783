package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder appends fixed-width big-endian primitives to a byte buffer. It is
// deliberately minimal: every field has a fixed width so WireSize can be
// computed without encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given capacity hint.
func NewEncoder(capacity int) *Encoder {
	if capacity < 0 {
		capacity = 0
	}
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the buffer for reuse, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Node appends a NodeID.
func (e *Encoder) Node(v NodeID) { e.U32(uint32(v)) }

// Raw appends bytes with no length prefix; the decoder must know the width.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bytes32 appends a fixed 32-byte value.
func (e *Encoder) Bytes32(b [32]byte) { e.buf = append(e.buf, b[:]...) }

// VarBytes appends a uint32 length prefix followed by the bytes.
func (e *Encoder) VarBytes(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64Slice appends a uint32 count followed by the values.
func (e *Encoder) U64Slice(vs []uint64) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U64(v)
	}
}

// NodeSlice appends a uint32 count followed by the node IDs.
func (e *Encoder) NodeSlice(vs []NodeID) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.Node(v)
	}
}

// Skip reserves n zero bytes and returns their offset for later patching.
func (e *Encoder) Skip(n int) int {
	at := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...) //predis:allocok compiler-recognized extend pattern: no intermediate slice is materialized
	return at
}

// PatchU32 overwrites 4 bytes at a previously Skip-reserved offset.
func (e *Encoder) PatchU32(at int, v uint32) {
	binary.BigEndian.PutUint32(e.buf[at:at+4], v)
}

// Decoder reads fixed-width big-endian primitives from a byte buffer. It
// accumulates the first error; after an error every read returns zero
// values, so callers can decode a whole struct and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(want int) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, want, d.off, len(d.buf)-d.off)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean. Encoders only ever emit 0 or 1, so any
// other value marks a corrupt (non-canonical) frame and fails the decode;
// accepting it would let two byte-different frames decode to the same
// message.
func (d *Decoder) Bool() bool {
	b := d.U8()
	if b > 1 && d.err == nil {
		d.err = fmt.Errorf("wire: invalid bool byte %#02x at offset %d", b, d.off-1)
	}
	return b == 1
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Node reads a NodeID.
func (d *Decoder) Node() NodeID { return NodeID(d.U32()) }

// Bytes32 reads a fixed 32-byte value.
func (d *Decoder) Bytes32() [32]byte {
	var out [32]byte
	b := d.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// Raw reads n bytes without a length prefix. The returned slice is copied so
// the caller may retain it.
func (d *Decoder) Raw(n int) []byte {
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Pad consumes n bytes of zero padding without copying. A nonzero byte
// marks a non-canonical frame and fails the decode: padding carries no
// information, so accepting arbitrary bytes there would let two
// byte-different frames decode to the same message.
func (d *Decoder) Pad(n int) {
	if n <= 0 {
		return
	}
	b := d.take(n)
	// Eight bytes at a time; the word holding a nonzero byte is then
	// searched bytewise for the exact error.
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			if d.err == nil {
				d.err = fmt.Errorf("wire: nonzero padding byte %#02x at offset %d",
					b[i], d.off-n+i)
			}
			return
		}
	}
}

// VarBytes reads a uint32 length prefix followed by that many bytes.
func (d *Decoder) VarBytes() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n > d.Remaining() {
		d.fail(n)
		return nil
	}
	return d.Raw(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.VarBytes()) }

// U64Slice reads a uint32 count followed by the values.
func (d *Decoder) U64Slice() []uint64 {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining()/8 {
		if d.err == nil {
			d.fail(n * 8)
		}
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// NodeSlice reads a uint32 count followed by the node IDs.
func (d *Decoder) NodeSlice() []NodeID {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining()/4 {
		if d.err == nil {
			d.fail(n * 4)
		}
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = d.Node()
	}
	return out
}

// Size helpers so WireSize implementations stay in lockstep with the codec.

// SizeVarBytes returns the encoded size of a length-prefixed byte slice.
func SizeVarBytes(b []byte) int { return 4 + len(b) }

// SizeString returns the encoded size of a length-prefixed string.
func SizeString(s string) int { return 4 + len(s) }

// SizeU64Slice returns the encoded size of a uint64 slice.
func SizeU64Slice(vs []uint64) int { return 4 + 8*len(vs) }

// SizeNodeSlice returns the encoded size of a NodeID slice.
func SizeNodeSlice(vs []NodeID) int { return 4 + 4*len(vs) }
