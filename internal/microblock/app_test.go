package microblock

import (
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
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
	ad := ackDigest(digest, 1, 5)
	cert := &Cert{Digest: digest, Producer: 1, Height: 5}
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
	for _, moved := range []Cert{{Producer: 2, Height: 5}, {Producer: 1, Height: 6}} {
		forged := *cert
		forged.Producer, forged.Height = moved.Producer, moved.Height
		if forged.Verify(suite.Signer(3), 4, 3) {
			t.Fatalf("cert accepted with its place moved to (%d, %d)", moved.Producer, moved.Height)
		}
	}
	dup := &Cert{Digest: digest, Producer: 1, Height: 5,
		Signers: []wire.NodeID{0, 0, 1},
		Sigs:    [][]byte{cert.Sigs[0], cert.Sigs[0], cert.Sigs[1]}}
	if dup.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("duplicate-signer cert accepted")
	}
	bad := &Cert{Digest: digest, Producer: 1, Height: 5,
		Signers: append([]wire.NodeID(nil), cert.Signers...),
		Sigs:    [][]byte{cert.Sigs[0], cert.Sigs[1], append([]byte(nil), cert.Sigs[2]...)}}
	bad.Sigs[2][1] ^= 1
	if bad.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("corrupt cert accepted")
	}
}

// countingSigner counts signature checks.
type countingSigner struct {
	crypto.Signer
	n int
}

func (s *countingSigner) Verify(idx int, h crypto.Hash, sig []byte) bool {
	s.n++
	return s.Signer.Verify(idx, h, sig)
}

// TestCertCheckedOncePerObject: a certificate's shares are checked once;
// a value copy is checked in full, and rejected when its place moved.
func TestCertCheckedOncePerObject(t *testing.T) {
	suite := crypto.NewSimSuite(4, 3)
	cs := &countingSigner{Signer: suite.Signer(3)}
	cert := certFor(suite, batch(suite, 1, nil, 2, 0), 3)
	if !cert.Verify(cs, 4, 3) || !cert.Verify(cs, 4, 3) || cs.n != 3 {
		t.Fatalf("valid cert verified twice: %d share checks, want 3", cs.n)
	}
	if cert.Verify(cs, 4, 4) || cs.n != 3 {
		t.Fatal("the memo answered for a quorum the cert does not meet")
	}
	moved := *cert
	moved.Height++
	if moved.Verify(cs, 4, 3) || cs.n == 3 {
		t.Fatal("value copy with another Height accepted or not checked")
	}
	plain := *cert
	if !plain.Verify(cs, 4, 3) {
		t.Fatal("honest value copy rejected")
	}
}

func mkTxs(n int, base uint64) []*types.Transaction {
	out := make([]*types.Transaction, n)
	for i := range out {
		out[i] = types.NewTransaction(9, base+uint64(i), 512, time.Duration(i))
	}
	return out
}

// batch packs a signed batch of n transactions on producer's chain, after
// parent (nil for the first).
func batch(suite *crypto.SignerSuite, producer wire.NodeID, parent *core.Bundle, n int, base uint64) *core.Bundle {
	var ph *core.BundleHeader
	tips := core.TipList{0, 0, 0, 0}
	if parent != nil {
		ph = &parent.Header
		tips = parent.Header.Tips.Clone()
	}
	tips[producer]++
	return core.PackBundle(suite.Signer(int(producer)), producer, ph, mkTxs(n, base), tips)
}

// certFor signs a certificate over b by nodes 0..signers-1.
func certFor(suite *crypto.SignerSuite, b *core.Bundle, signers int) *Cert {
	id := b.Header.Hash()
	cert := &Cert{Digest: id, Producer: b.Header.Producer, Height: b.Header.Height}
	for i := 0; i < signers; i++ {
		cert.Signers = append(cert.Signers, wire.NodeID(i))
		cert.Sigs = append(cert.Sigs, suite.Signer(i).Sign(ackDigest(id, cert.Producer, cert.Height)))
	}
	return cert
}

func TestMessageCodecs(t *testing.T) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 3)
	b1 := batch(suite, 1, nil, 3, 0)
	cert := certFor(suite, b1, 3)
	b2 := batch(suite, 1, b1, 2, 10)
	mb := &Microblock{Bundle: b1}
	mb2 := &Microblock{Bundle: b2, PrevCert: cert}

	for _, m := range []wire.Message{
		mb, mb2,
		&Ack{Digest: cert.Digest, Replica: 2, Sig: make([]byte, 64)},
		&CertMsg{Cert: cert},
		&IDList{Height: 3, IDs: []crypto.Hash{cert.Digest, b2.Header.Hash()}},
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

	// Identity stable across roundtrip, and PrevCert (hint included)
	// preserved.
	got, _ := wire.Roundtrip(mb2)
	g := got.(*Microblock)
	if g.Bundle.Header.Hash() != b2.Header.Hash() || g.Bundle.VerifyBody() != nil {
		t.Fatal("batch identity or body changed across roundtrip")
	}
	if g.PrevCert == nil || !g.PrevCert.Verify(suite.Signer(0), 4, 3) ||
		g.PrevCert.Producer != 1 || g.PrevCert.Height != 1 {
		t.Fatal("piggybacked cert broken after roundtrip")
	}
}

// TestDigestExcludesCertAndSig: a microblock's identifier is its bundle's
// header hash, which neither the piggybacked certificate nor the
// producer's signature enters, so acks do not depend on either.
func TestDigestExcludesCertAndSig(t *testing.T) {
	suite := crypto.NewSimSuite(4, 3)
	b := batch(suite, 1, nil, 3, 0)
	mb := &Microblock{Bundle: b}
	d := b.Header.Hash()
	cp := b.Header // a value copy hashes afresh
	cp.Sig = []byte("whatever")
	mb.PrevCert = &Cert{Digest: crypto.HashBytes([]byte("x"))}
	if cp.Hash() != d {
		t.Fatal("identifier must not cover PrevCert or Sig")
	}
}

func TestIDListDigestOrderSensitive(t *testing.T) {
	a, b := crypto.HashBytes([]byte("a")), crypto.HashBytes([]byte("b"))
	l1 := &IDList{Height: 1, IDs: []crypto.Hash{a, b}}
	l2 := &IDList{Height: 1, IDs: []crypto.Hash{b, a}}
	if l1.Digest() == l2.Digest() {
		t.Fatal("id order must affect the digest")
	}
	// A value copy of a digested list re-derives its digest.
	cp := *l1
	cp.IDs = l2.IDs
	if cp.Digest() != l2.Digest() {
		t.Fatal("a value copy with other ids kept the original's digest")
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

// TestForgedPlaceNotReproposed: the acks of a certificate sign the batch's
// place on its chain with its identifier, so a copy of a committed batch's
// certificate that names another, uncommitted height fails verification,
// and the batch is not proposed again.
func TestForgedPlaceNotReproposed(t *testing.T) {
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 3)
	app, err := New(Options{Scheme: SchemeStratus, NC: 4, F: 1, Signer: suite.Signer(0),
		MBSize: 50, MBInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	net.AddNode(0, app)
	for id := wire.NodeID(1); id < 4; id++ {
		net.AddNode(id, &env.HandlerFunc{})
	}
	net.Start()
	b := batch(suite, 1, nil, 3, 0)
	cert := certFor(suite, b, 2)
	app.Receive(1, &Microblock{Bundle: b})
	app.Receive(2, &CertMsg{Cert: cert})
	list, _, ok := app.BuildProposal(1, nil)
	if !ok || len(list.(*IDList).IDs) != 1 || list.(*IDList).IDs[0] != cert.Digest {
		t.Fatalf("proposal %v, want the certified batch", list)
	}
	app.OnCommit(1, list)

	forged := *cert
	forged.Height = 2
	app.Receive(3, &CertMsg{Cert: &forged})
	if app.HasPendingWork() {
		t.Fatal("a re-placed certificate of a committed batch became pending work")
	}
	if list, _, ok := app.BuildProposal(2, nil); ok {
		t.Fatalf("committed batch proposed again: %v", list)
	}
}
