package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// testMsg is a kitchen-sink message exercising every codec primitive.
type testMsg struct {
	A     uint8
	B     uint16
	C     uint32
	D     uint64
	F     float64
	Flag  bool
	Node  NodeID
	H     [32]byte
	Blob  []byte
	Name  string
	Us    []uint64
	Nodes []NodeID
}

const testMsgType = TypeRangeTest + 1

func (m *testMsg) Type() Type { return testMsgType }

func (m *testMsg) WireSize() int {
	return FrameOverhead + 1 + 2 + 4 + 8 + 8 + 1 + 4 + 32 +
		SizeVarBytes(m.Blob) + SizeString(m.Name) + SizeU64Slice(m.Us) + SizeNodeSlice(m.Nodes)
}

func (m *testMsg) EncodeBody(e *Encoder) {
	e.U8(m.A)
	e.U16(m.B)
	e.U32(m.C)
	e.U64(m.D)
	e.F64(m.F)
	e.Bool(m.Flag)
	e.Node(m.Node)
	e.Bytes32(m.H)
	e.VarBytes(m.Blob)
	e.String(m.Name)
	e.U64Slice(m.Us)
	e.NodeSlice(m.Nodes)
}

func decodeTestMsg(d *Decoder) (Message, error) {
	m := &testMsg{
		A:     d.U8(),
		B:     d.U16(),
		C:     d.U32(),
		D:     d.U64(),
		F:     d.F64(),
		Flag:  d.Bool(),
		Node:  d.Node(),
		H:     d.Bytes32(),
		Blob:  d.VarBytes(),
		Name:  d.String(),
		Us:    d.U64Slice(),
		Nodes: d.NodeSlice(),
	}
	return m, d.Err()
}

func init() {
	Register(testMsgType, "test", decodeTestMsg)
}

func sampleMsg() *testMsg {
	return &testMsg{
		A: 7, B: 513, C: 1 << 30, D: 1 << 60, F: 3.25, Flag: true,
		Node: 42, H: [32]byte{1, 2, 3}, Blob: []byte("hello"),
		Name: "bundle", Us: []uint64{1, 2, 3}, Nodes: []NodeID{0, 1, 2, 3},
	}
}

func TestRoundtrip(t *testing.T) {
	m := sampleMsg()
	got, err := Roundtrip(m)
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	g, ok := got.(*testMsg)
	if !ok {
		t.Fatalf("roundtrip returned %T", got)
	}
	if g.A != m.A || g.B != m.B || g.C != m.C || g.D != m.D || g.F != m.F ||
		g.Flag != m.Flag || g.Node != m.Node || g.H != m.H ||
		!bytes.Equal(g.Blob, m.Blob) || g.Name != m.Name {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", g, m)
	}
	if len(g.Us) != len(m.Us) || len(g.Nodes) != len(m.Nodes) {
		t.Fatalf("slice lengths differ")
	}
}

func TestWireSizeMatchesMarshal(t *testing.T) {
	m := sampleMsg()
	raw := Marshal(m)
	if len(raw) != m.WireSize() {
		t.Fatalf("WireSize %d, marshaled %d bytes", m.WireSize(), len(raw))
	}
}

func TestWireSizeMatchesMarshalQuick(t *testing.T) {
	f := func(blob []byte, name string, us []uint64, a uint8, d uint64) bool {
		m := &testMsg{A: a, D: d, Blob: blob, Name: name, Us: us}
		return len(Marshal(m)) == m.WireSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	raw := Marshal(sampleMsg())
	for _, n := range []int{0, 1, FrameOverhead - 1, FrameOverhead, len(raw) - 1} {
		if _, _, err := Unmarshal(raw[:n]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Unmarshal(%d bytes) err = %v, want ErrTruncated", n, err)
		}
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	e := NewEncoder(16)
	e.U16(0x7fee) // unregistered
	e.U32(0)
	if _, _, err := Unmarshal(e.Bytes()); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestUnmarshalOversize(t *testing.T) {
	e := NewEncoder(16)
	e.U16(uint16(testMsgType))
	e.U32(MaxBodyLen + 1)
	if _, _, err := Unmarshal(e.Bytes()); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
}

func TestUnmarshalConsumesOneFrame(t *testing.T) {
	raw := Marshal(sampleMsg())
	double := append(append([]byte{}, raw...), raw...)
	_, n, err := Unmarshal(double)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d, want %d", n, len(raw))
	}
	if _, n2, err := Unmarshal(double[n:]); err != nil || n2 != len(raw) {
		t.Fatalf("second frame: n=%d err=%v", n2, err)
	}
}

func TestDecoderErrorSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // fails
	if d.Err() == nil {
		t.Fatal("expected error after short read")
	}
	// Subsequent reads return zero values without panicking.
	if v := d.U32(); v != 0 {
		t.Fatalf("post-error read = %d, want 0", v)
	}
	if b := d.VarBytes(); b != nil {
		t.Fatalf("post-error VarBytes = %v, want nil", b)
	}
}

// TestPadReportsFirstNonzeroByte: Pad checks eight bytes at a time but
// still names the first nonzero byte and its frame offset exactly, wherever
// it sits in a word or in the tail after the last whole word.
func TestPadReportsFirstNonzeroByte(t *testing.T) {
	const lead, n = 3, 21 // an unaligned start, two words and a 5-byte tail
	buf := make([]byte, lead+n+1)
	d := NewDecoder(buf)
	d.Pad(lead + n)
	if d.Err() != nil || d.Remaining() != 1 {
		t.Fatalf("zero padding: err %v, %d bytes left, want nil and 1", d.Err(), d.Remaining())
	}
	for i := 0; i < n; i++ {
		clear(buf)
		buf[lead+i] = 0x5a
		if i+1 < n {
			buf[lead+i+1] = 0x7f // a later nonzero byte is not the one reported
		}
		d := NewDecoder(buf)
		d.Raw(lead)
		d.Pad(n)
		want := fmt.Sprintf("wire: nonzero padding byte 0x5a at offset %d", lead+i)
		if d.Err() == nil || d.Err().Error() != want {
			t.Fatalf("nonzero byte %d of the padding: err %v, want %q", i, d.Err(), want)
		}
	}
}

func TestDecoderHugeLengthPrefix(t *testing.T) {
	// A length prefix larger than the remaining buffer must not allocate.
	e := NewEncoder(8)
	e.U32(math.MaxUint32)
	d := NewDecoder(e.Bytes())
	if b := d.VarBytes(); b != nil || d.Err() == nil {
		t.Fatalf("VarBytes on lying prefix: b=%v err=%v", b, d.Err())
	}
	d2 := NewDecoder(e.Bytes())
	if s := d2.U64Slice(); s != nil || d2.Err() == nil {
		t.Fatalf("U64Slice on lying prefix: s=%v err=%v", s, d2.Err())
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	Register(testMsgType, "dup", decodeTestMsg)
}

func TestTypeName(t *testing.T) {
	if got := TypeName(testMsgType); got != "test" {
		t.Fatalf("TypeName = %q", got)
	}
	if got := TypeName(0x7fff); got != "unknown(0x7fff)" {
		t.Fatalf("TypeName(unknown) = %q", got)
	}
}

func TestRegisteredTypesSorted(t *testing.T) {
	ts := RegisteredTypes()
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Fatalf("types not strictly ascending: %v", ts)
		}
	}
	if !Registered(testMsgType) {
		t.Fatal("test type not reported as registered")
	}
}

func TestEncoderPatch(t *testing.T) {
	e := NewEncoder(8)
	e.U8(0xaa)
	at := e.Skip(4)
	e.U8(0xbb)
	e.PatchU32(at, 0xdeadbeef)
	d := NewDecoder(e.Bytes())
	if d.U8() != 0xaa || d.U32() != 0xdeadbeef || d.U8() != 0xbb {
		t.Fatalf("patched buffer wrong: % x", e.Bytes())
	}
}

func TestRawCopies(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	d := NewDecoder(src)
	got := d.Raw(4)
	src[0] = 99
	if got[0] != 1 {
		t.Fatal("Raw must copy out of the decode buffer")
	}
}
