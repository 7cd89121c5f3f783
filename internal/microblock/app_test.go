package microblock

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
)

func TestSchemeString(t *testing.T) {
	if SchemeNarwhal.String() != "Narwhal" || SchemeStratus.String() != "Stratus" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(0).String() == "" {
		t.Fatal("unknown scheme must print")
	}
}

func TestNewValidation(t *testing.T) {
	s := crypto.NewSimSigner(0, 1)
	if _, err := New(Options{Scheme: 0, NC: 4, Signer: s, MBSize: 50}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := New(Options{Scheme: SchemeNarwhal, NC: 0, Signer: s, MBSize: 50}); err == nil {
		t.Fatal("NC=0 accepted")
	}
	if _, err := New(Options{Scheme: SchemeNarwhal, NC: 4, MBSize: 50}); err == nil {
		t.Fatal("nil signer accepted")
	}
	if _, err := New(Options{Scheme: SchemeStratus, NC: 4, F: 1, Signer: s, MBSize: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholds(t *testing.T) {
	s := crypto.NewSimSigner(0, 1)
	n, _ := New(Options{Scheme: SchemeNarwhal, NC: 4, F: 1, Signer: s, MBSize: 50})
	if n.threshold() != 3 {
		t.Fatalf("Narwhal threshold = %d, want n_c−f = 3", n.threshold())
	}
	st, _ := New(Options{Scheme: SchemeStratus, NC: 4, F: 1, Signer: s, MBSize: 50})
	if st.threshold() != 2 {
		t.Fatalf("Stratus threshold = %d, want f+1 = 2", st.threshold())
	}
}

func TestCertVerify(t *testing.T) {
	suite := crypto.NewSimSuite(4, 3)
	digest := crypto.HashBytes([]byte("mb"))
	ad := ackDigest(digest)
	cert := &Cert{Digest: digest}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, wire.NodeID(i))
		cert.Sigs = append(cert.Sigs, suite.Signer(i).Sign(ad))
	}
	if !cert.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("valid cert rejected")
	}
	if cert.Verify(suite.Signer(3), 4, 4) {
		t.Fatal("under-quorum cert accepted")
	}
	dup := &Cert{Digest: digest,
		Signers: []wire.NodeID{0, 0, 1},
		Sigs:    [][]byte{cert.Sigs[0], cert.Sigs[0], cert.Sigs[1]}}
	if dup.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("duplicate-signer cert accepted")
	}
	bad := &Cert{Digest: digest,
		Signers: append([]wire.NodeID(nil), cert.Signers...),
		Sigs:    [][]byte{cert.Sigs[0], cert.Sigs[1], append([]byte(nil), cert.Sigs[2]...)}}
	bad.Sigs[2][1] ^= 1
	if bad.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("corrupt cert accepted")
	}
}

func mkTxs(n int, base uint64) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = types.NewTransaction(9, base+uint64(i), 512, time.Duration(i))
	}
	return out
}

func TestMessageCodecs(t *testing.T) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 3)
	mb := &Microblock{Producer: 1, Seq: 7, Txs: mkTxs(3, 0)}
	digest := mb.Digest()
	mb.Sig = suite.Signer(1).Sign(digest)
	cert := &Cert{Digest: digest}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, wire.NodeID(i))
		cert.Sigs = append(cert.Sigs, suite.Signer(i).Sign(ackDigest(digest)))
	}
	mb2 := &Microblock{Producer: 1, Seq: 8, PrevCert: cert, Txs: mkTxs(2, 10)}
	mb2.Sig = suite.Signer(1).Sign(mb2.Digest())

	for _, m := range []wire.Message{
		mb, mb2,
		&Ack{Digest: digest, Replica: 2, Sig: make([]byte, 64)},
		&CertMsg{Cert: cert},
		&IDList{Height: 3, IDs: []crypto.Hash{digest, mb2.Digest()}},
		&MBRequest{IDs: []crypto.Hash{digest}},
		&MBResponse{Microblocks: []*Microblock{mb, mb2}},
	} {
		got, err := wire.Roundtrip(m)
		if err != nil {
			t.Fatalf("%s roundtrip: %v", wire.TypeName(m.Type()), err)
		}
		if len(wire.Marshal(m)) != m.WireSize() {
			t.Fatalf("%s WireSize mismatch: %d vs %d",
				wire.TypeName(m.Type()), m.WireSize(), len(wire.Marshal(m)))
		}
		_ = got
	}

	// Digest stability across roundtrip, and PrevCert preserved.
	got, _ := wire.Roundtrip(mb2)
	g := got.(*Microblock)
	if g.Digest() != mb2.Digest() {
		t.Fatal("microblock digest changed across roundtrip")
	}
	if g.PrevCert == nil || !g.PrevCert.Verify(suite.Signer(0), 4, 3) {
		t.Fatal("piggybacked cert broken after roundtrip")
	}
}

func TestDigestExcludesCertAndSig(t *testing.T) {
	mb := &Microblock{Producer: 1, Seq: 7, Txs: mkTxs(3, 0)}
	d := mb.Digest()
	mb.Sig = []byte("whatever")
	mb.PrevCert = &Cert{Digest: crypto.HashBytes([]byte("x"))}
	if mb.Digest() != d {
		t.Fatal("digest must not cover PrevCert or Sig")
	}
}

func TestIDListDigestOrderSensitive(t *testing.T) {
	a, b := crypto.HashBytes([]byte("a")), crypto.HashBytes([]byte("b"))
	l1 := &IDList{Height: 1, IDs: []crypto.Hash{a, b}}
	l2 := &IDList{Height: 1, IDs: []crypto.Hash{b, a}}
	if l1.Digest() == l2.Digest() {
		t.Fatal("id order must affect the digest")
	}
}

// TestProposalSizeGrowsLinearly reproduces the §V-A contrast: an id-list
// proposal at the 1000-id default is tens of kilobytes, while a Predis
// block is constant-size.
func TestProposalSizeGrowsLinearly(t *testing.T) {
	ids := make([]crypto.Hash, maxIDs)
	for i := range ids {
		ids[i] = crypto.HashBytes([]byte{byte(i), byte(i >> 8)})
	}
	l := &IDList{Height: 1, IDs: ids}
	if l.WireSize() < 30_000 {
		t.Fatalf("1000-id proposal is %d bytes; paper reports ~30 KB", l.WireSize())
	}
	half := &IDList{Height: 1, IDs: ids[:500]}
	if l.WireSize()-half.WireSize() != 500*32 {
		t.Fatal("proposal size must grow linearly in ids")
	}
}
