package topology

import (
	"testing"

	"predis/internal/wire"
)

func TestTopologyMessageCodecs(t *testing.T) {
	RegisterMessages()
	msgs := []wire.Message{
		&BlockData{Height: 3, Origin: 2, Size: 4096},
		&BlockData{Height: 4, Origin: 1, Size: 0}, // below blockDataMin: clamped
		&Digest{MaxHeight: 41},
		&Pull{Heights: []uint64{7, 9, 11}},
	}
	for _, m := range msgs {
		got, err := wire.Roundtrip(m)
		if err != nil {
			t.Fatalf("%s roundtrip: %v", wire.TypeName(m.Type()), err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("%s roundtrip changed type tag", wire.TypeName(m.Type()))
		}
		if len(wire.Marshal(m)) != m.WireSize() {
			t.Fatalf("%s WireSize mismatch: declared %d, marshaled %d",
				wire.TypeName(m.Type()), m.WireSize(), len(wire.Marshal(m)))
		}
	}
	bd, err := wire.Roundtrip(&BlockData{Height: 8, Origin: 3, Size: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if g := bd.(*BlockData); g.Height != 8 || g.Origin != 3 || g.Size != 1<<16 {
		t.Fatalf("BlockData fields changed: %+v", g)
	}
	p, err := wire.Roundtrip(&Pull{Heights: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g := p.(*Pull); len(g.Heights) != 3 || g.Heights[2] != 3 {
		t.Fatalf("Pull heights changed: %+v", g)
	}
}
