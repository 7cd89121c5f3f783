package wire

import (
	"fmt"
	"sync"
)

// MarshalAppend encodes m as a self-delimiting frame appended to dst and
// returns the extended slice. It is the allocation-aware sibling of
// Marshal: callers that own a reusable buffer (the TCP runtime's write
// path, the simulator's copy-on-deliver roundtrip, digest computation)
// avoid a fresh exact-size allocation per message.
//
//predis:hotpath
func MarshalAppend(dst []byte, m Message) []byte {
	e := Encoder{buf: dst}
	e.U16(uint16(m.Type()))
	lenAt := e.Skip(4)
	m.EncodeBody(&e)
	body := len(e.buf) - lenAt - 4
	e.PatchU32(lenAt, uint32(body))
	return e.buf
}

// encPool recycles scratch encoders for transient frames (marshal →
// consume → discard). Buffers above pooledBufCap are dropped instead of
// pooled so one 40 MB block doesn't pin 40 MB per P forever.
var encPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 4096)} },
}

// pooledBufCap bounds the capacity of buffers returned to encPool.
const pooledBufCap = 1 << 20

// GetEncoder returns a pooled scratch encoder with an empty buffer, for
// transient encodes whose bytes are consumed (hashed, copied) before the
// matching PutEncoder.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns a scratch encoder to the pool; its Bytes must not be
// used afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > pooledBufCap {
		return
	}
	encPool.Put(e)
}

// EncCache memoizes a message's marshaled frame so that encoding happens
// once regardless of how many recipients, phases, or size queries touch
// the message. Embed one next to a payload field and route EncodeBody /
// WireSize through Frame / FrameSize; any mutation of the cached message
// must call Invalidate.
//
// The zero value is ready to use. EncCache is intentionally excluded
// from the owner's own wire encoding — it is process-local memoization,
// not protocol state.
type EncCache struct {
	frame []byte
	size  int
}

// Frame returns the cached frame for m, encoding it on first use.
func (c *EncCache) Frame(m Message) []byte {
	if c.frame == nil {
		c.frame = Marshal(m)
		c.size = len(c.frame)
	}
	return c.frame
}

// FrameSize returns the size of the encoded frame without forcing an
// encode: the cached length when present, a memoized m.WireSize()
// otherwise (the two are equal — WireSize is exact, a property pinned by
// every package's round-trip tests). Memoizing the size matters on its
// own: the simulator calls WireSize on every Send, and payloads whose
// WireSize walks their transactions would otherwise pay O(txs) per
// phase per recipient.
func (c *EncCache) FrameSize(m Message) int {
	if c.frame != nil {
		return len(c.frame)
	}
	if c.size == 0 {
		c.size = m.WireSize()
	}
	return c.size
}

// Prime installs an already-encoded frame (e.g. the VarBytes a decoder
// just copied out of a received message) so the first re-encode is free
// too. The cache takes ownership of frame.
func (c *EncCache) Prime(frame []byte) {
	c.frame = frame
	c.size = len(frame)
}

// Invalidate drops the cached frame and size; the next Frame call
// re-encodes.
func (c *EncCache) Invalidate() {
	c.frame = nil
	c.size = 0
}

// Cached reports whether a frame is currently memoized (test hook).
func (c *EncCache) Cached() bool { return c.frame != nil }

// RoundtripAppend is Roundtrip with a caller-owned scratch buffer; it
// returns the (possibly grown) buffer for reuse. Decoding copies every
// retained byte, so the scratch can be reused immediately.
func RoundtripAppend(scratch []byte, m Message) (Message, []byte, error) {
	raw := MarshalAppend(scratch[:0], m)
	out, n, err := Unmarshal(raw)
	if err != nil {
		return nil, raw, err
	}
	if n != len(raw) {
		return nil, raw, fmt.Errorf("wire: roundtrip consumed %d of %d bytes", n, len(raw))
	}
	return out, raw, nil
}
