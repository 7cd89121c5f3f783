package multizone

import (
	"testing"

	"predis/internal/wire"
)

// TestRefetchQuarantineCodecFidelity pins field-level round-trip
// fidelity for the digest and relayer-discovery messages. The zone codec
// table test (TestZoneMessageCodecs) asserts these decode successfully and
// that WireSize is exact; this test additionally asserts the decoded
// values equal what was encoded, so a decoder reading fields in the
// wrong order (which still consumes the right number of bytes when the
// widths happen to line up) cannot slip through.
func TestRefetchQuarantineCodecFidelity(t *testing.T) {
	RegisterMessages()
	dig := &BlockDigest{Height: 17, Tips: []uint64{3, 1, 4, 1}}
	got2, err := wire.Roundtrip(dig)
	if err != nil {
		t.Fatalf("BlockDigest roundtrip: %v", err)
	}
	gd := got2.(*BlockDigest)
	if gd.Height != 17 || len(gd.Tips) != 4 {
		t.Fatalf("BlockDigest changed: %+v", gd)
	}
	for i, v := range []uint64{3, 1, 4, 1} {
		if gd.Tips[i] != v {
			t.Fatalf("BlockDigest tip %d: got %d want %d", i, gd.Tips[i], v)
		}
	}

	gq := &GetRelayers{Zone: 5}
	if got, err := wire.Roundtrip(gq); err != nil || *got.(*GetRelayers) != *gq {
		t.Fatalf("GetRelayers fidelity: got %+v err %v", got, err)
	}

	info := &RelayersInfo{Zone: 5, Relayers: []RelayerEntry{
		{Node: 7, JoinSeq: 3, Stripes: []uint8{0, 2}},
		{Node: 9, JoinSeq: 8, Stripes: []uint8{1}},
	}}
	got3, err := wire.Roundtrip(info)
	if err != nil {
		t.Fatalf("RelayersInfo roundtrip: %v", err)
	}
	gi := got3.(*RelayersInfo)
	if gi.Zone != 5 || len(gi.Relayers) != 2 {
		t.Fatalf("RelayersInfo changed: %+v", gi)
	}
	for i, want := range info.Relayers {
		g := gi.Relayers[i]
		if g.Node != want.Node || g.JoinSeq != want.JoinSeq || len(g.Stripes) != len(want.Stripes) {
			t.Fatalf("RelayerEntry %d changed: got %+v want %+v", i, g, want)
		}
		for j := range want.Stripes {
			if g.Stripes[j] != want.Stripes[j] {
				t.Fatalf("RelayerEntry %d stripe %d: got %d want %d", i, j, g.Stripes[j], want.Stripes[j])
			}
		}
	}
}
