package crypto

import "testing"

// countingSigner counts signature checks.
type countingSigner struct {
	Signer
	n int
}

func (s *countingSigner) Verify(idx int, h Hash, sig []byte) bool {
	s.n++
	return s.Signer.Verify(idx, h, sig)
}

// TestMemoSignRecordsOnlyOwnSignatures: a signature made by the signer of
// the index it claims is recorded by construction; one made by another
// signer under that index is not, and fails its first check.
func TestMemoSignRecordsOnlyOwnSignatures(t *testing.T) {
	suite := NewSimSuite(4, 5)
	cs := &countingSigner{Signer: suite.Signer(0)}
	h := HashBytes([]byte("object"))
	var own, forged Memo
	sig := own.Sign(suite.Signer(2), 2, h)
	if !own.Verify(cs, 2, h, sig) || cs.n != 0 {
		t.Fatalf("own signature: %d checks, want 0", cs.n)
	}
	bad := forged.Sign(suite.Signer(1), 2, h)
	if forged.Signed(bad) || forged.Verify(cs, 2, h, bad) || cs.n != 1 {
		t.Fatalf("another signer's signature recorded or accepted (%d checks)", cs.n)
	}
}

// TestVerifyShares: the count, range and duplicate checks run on every
// call, a memo hit included; the signatures run once per certificate.
func TestVerifyShares(t *testing.T) {
	suite := NewSimSuite(300, 5)
	digest := HashBytes([]byte("certified"))
	shares := func(ids ...uint32) ([]uint32, [][]byte) {
		sigs := make([][]byte, len(ids))
		for i, id := range ids {
			sigs[i] = suite.Signer(int(id)).Sign(digest)
		}
		return ids, sigs
	}
	cs := &countingSigner{Signer: suite.Signer(0)}
	var memo Memo
	ids, sigs := shares(0, 1, 2)
	if !VerifyShares(cs, &memo, 4, 3, ids, sigs, digest) || !VerifyShares(cs, &memo, 4, 3, ids, sigs, Hash{}) || cs.n != 3 {
		t.Fatalf("valid certificate checked twice: %d share checks, want 3", cs.n)
	}
	for _, c := range []struct {
		name      string
		n, quorum int
		ids       []uint32
	}{
		{"under quorum", 4, 4, []uint32{0, 1, 2}},
		{"signer out of range", 2, 3, []uint32{0, 1, 2}},
		{"duplicate signer", 4, 3, []uint32{0, 1, 1}},
		{"duplicate in a wide group", 300, 3, []uint32{260, 1, 260}},
	} {
		var fresh Memo
		ids, sigs := shares(c.ids...)
		if VerifyShares(cs, &fresh, c.n, c.quorum, ids, sigs, digest) {
			t.Errorf("%s: accepted", c.name)
		}
		if VerifyShares(cs, &memo, c.n, c.quorum, ids, sigs, digest) {
			t.Errorf("%s: accepted on a verified certificate's memo", c.name)
		}
	}
}
