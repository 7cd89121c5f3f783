package multizone

import (
	"testing"

	"predis/internal/wire"
)

// TestRefetchQuarantineCodecFidelity pins field-level round-trip
// fidelity for the digest and relayer-beacon messages. The zone codec
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

	alive := &RelayerAlive{Relayer: 7, Zone: 5}
	if got, err := wire.Roundtrip(alive); err != nil || *got.(*RelayerAlive) != *alive {
		t.Fatalf("RelayerAlive fidelity: got %+v err %v", got, err)
	}
}
