package hotstuff

import (
	"slices"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// countingSigner counts signature checks.
type countingSigner struct {
	crypto.Signer
	n int
}

func (s *countingSigner) Verify(idx int, h crypto.Hash, sig []byte) bool {
	s.n++
	return s.Signer.Verify(idx, h, sig)
}

// quorumCert builds a QC over (view, block) with shares from replicas 0–2.
func quorumCert(suite *crypto.SignerSuite, view uint64, block crypto.Hash) *QC {
	qc := &QC{View: view, Block: block}
	for i := 0; i < 3; i++ {
		qc.Signers = append(qc.Signers, wire.NodeID(i))
		qc.Sigs = append(qc.Sigs, suite.Signer(i).Sign(voteDigest(view, block)))
	}
	return qc
}

// TestQCVerifiedOncePerObject: a QC's shares are checked once; a value
// copy, a copy with a replaced share and a QC round-tripped through the
// wire are checked in full, and the bad ones rejected.
func TestQCVerifiedOncePerObject(t *testing.T) {
	suite := crypto.NewSimSuite(4, 21)
	cs := &countingSigner{Signer: suite.Signer(3)}
	qc := quorumCert(suite, 3, crypto.HashBytes([]byte("block")))
	if !qc.Verify(cs, 4, 3) || !qc.Verify(cs, 4, 3) || cs.n != 3 {
		t.Fatalf("valid QC verified twice: %d share checks, want 3", cs.n)
	}
	cp := *qc
	if !cp.Verify(cs, 4, 3) || cs.n != 6 {
		t.Fatalf("value copy: %d share checks in all, want 6", cs.n)
	}
	replaced := *qc
	replaced.Sigs = slices.Clone(qc.Sigs)
	replaced.Sigs[1] = suite.Signer(3).Sign(voteDigest(qc.View, qc.Block))
	if replaced.Verify(cs, 4, 3) {
		t.Fatal("value copy with a replaced share accepted")
	}

	e := wire.NewEncoder(0)
	qc.EncodeTo(e)
	frame := e.Bytes()
	dec, err := DecodeQC(wire.NewDecoder(slices.Clone(frame)))
	if err != nil {
		t.Fatal(err)
	}
	n := cs.n
	if !dec.Verify(cs, 4, 3) || cs.n != n+3 {
		t.Fatalf("decoded QC: %d share checks, want 3", cs.n-n)
	}
	frame[len(frame)-1] ^= 1 // the last share's last byte
	bad, err := DecodeQC(wire.NewDecoder(frame))
	if err != nil {
		t.Fatal(err)
	}
	if bad.Verify(cs, 4, 3) {
		t.Fatal("decoded QC with a flipped share byte accepted")
	}
}

// TestBlockCopyRehashes: a value copy of a hashed, leader-signed block
// with one identity field changed hashes afresh, to the hash of a new
// block with the same fields, so the leader's signature over the original
// does not verify over the copy, while the original still answers from
// its memo. The Payload cases also cover the cached payload frame, from a
// block the leader hashed and from one decoded off the wire.
func TestBlockCopyRehashes(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 21)
	signed := func() *Block {
		b := &Block{Height: 1, View: 3, Justify: GenesisQC(), Payload: &payloadMsg{Height: 1}, Leader: 3}
		b.Sig = suite.Signer(3).Sign(b.Hash())
		return b
	}
	decoded := func() *Block {
		m, _, err := wire.Unmarshal(wire.Marshal(&Proposal{Block: signed()}))
		if err != nil {
			t.Fatal(err)
		}
		return m.(*Proposal).Block
	}
	for _, c := range []struct {
		name string
		orig func() *Block
		edit func(*Block)
	}{
		{"height", signed, func(b *Block) { b.Height = 99 }},
		{"payload", signed, func(b *Block) { b.Payload = &payloadMsg{Height: 99} }},
		{"decoded payload", decoded, func(b *Block) { b.Payload = &payloadMsg{Height: 99} }},
	} {
		b := c.orig()
		cp := *b
		c.edit(&cp)
		fresh := &Block{Height: cp.Height, View: cp.View, Justify: cp.Justify, Payload: cp.Payload, Leader: cp.Leader}
		if cp.Hash() != fresh.Hash() || cp.Hash() == b.Hash() {
			t.Fatalf("%s: the edited copy kept a stale hash", c.name)
		}
		if suite.Signer(0).Verify(3, cp.Hash(), cp.Sig) {
			t.Fatalf("%s: the leader's signature verifies over the edited copy", c.name)
		}
		if !suite.Signer(0).Verify(3, b.Hash(), b.Sig) {
			t.Fatalf("%s: the original's signature no longer verifies", c.name)
		}
	}
}

// TestQCVerifyAllocs: checking a QC allocates nothing, the first time
// and from the memo after.
func TestQCVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	suite := crypto.NewSimSuite(4, 21)
	signer := suite.Signer(3)
	qc := quorumCert(suite, 3, crypto.HashBytes([]byte("block")))
	fresh := testing.AllocsPerRun(100, func() {
		qc.memo = crypto.Memo{}
		if !qc.Verify(signer, 4, 3) {
			t.Fatal("valid QC rejected")
		}
	})
	memo := testing.AllocsPerRun(100, func() { qc.Verify(signer, 4, 3) })
	if fresh != 0 || memo != 0 {
		t.Fatalf("QC.Verify allocates %.1f unchecked and %.1f memoized, want 0", fresh, memo)
	}
}

// digestCounter counts signature checks per digest.
type digestCounter struct {
	crypto.Signer
	checks map[crypto.Hash]int
}

func (s *digestCounter) Verify(idx int, h crypto.Hash, sig []byte) bool {
	s.checks[h]++
	return s.Signer.Verify(idx, h, sig)
}

// TestProposalsCheckedOncePerProcess: in a fault-free run no replica
// checks a leader's signature on a block (the leader's own signer made
// it), and each QC's shares are checked once, when its collector took the
// votes, not again by every replica receiving it in a proposal.
func TestProposalsCheckedOncePerProcess(t *testing.T) {
	r := newHSRig(t, 4, 20)
	checks := make(map[crypto.Hash]int)
	for _, e := range r.engines {
		e.cfg.Signer = &digestCounter{Signer: e.cfg.Signer, checks: checks}
	}
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.net.Start()
	r.net.Run(10 * time.Second)
	if len(r.apps[0].commits) < 17 {
		t.Fatalf("replica 0 committed %d blocks", len(r.apps[0].commits))
	}
	for _, e := range r.engines {
		for h, ent := range e.blocks {
			if checks[h] != 0 {
				t.Fatalf("block %d: leader signature checked %d times", ent.block.Height, checks[h])
			}
			if q := ent.block.Justify; !q.IsGenesis() && checks[voteDigest(q.View, q.Block)] > len(r.engines) {
				t.Fatalf("QC for view %d: %d share checks, want at most one per vote", q.View, checks[voteDigest(q.View, q.Block)])
			}
		}
	}
}
