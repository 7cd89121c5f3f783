package pbft

import (
	"testing"
	"time"

	"predis/internal/crypto"
)

// countingSigner counts signature checks.
type countingSigner struct {
	crypto.Signer
	n *int
}

func (s *countingSigner) Verify(idx int, h crypto.Hash, sig []byte) bool {
	*s.n++
	return s.Signer.Verify(idx, h, sig)
}

// TestVoteCheckedOncePerObject: a multicast vote is verified by its first
// receiver only, and counted by every receiver; a value copy naming
// another slot with the same signature, and the vote with its Sig
// replaced, are checked afresh and not counted. A replica's own votes are
// signed, so their receivers check nothing.
func TestVoteCheckedOncePerObject(t *testing.T) {
	r := newPBFTRig(t, 4, 1)
	var checks int
	for _, e := range r.engines {
		e.cfg.Signer = &countingSigner{Signer: e.cfg.Signer, n: &checks}
	}
	r.net.Start()
	suite := crypto.NewSimSuite(4, 5)
	counted := func(e *Engine, seq uint64) bool {
		inst := e.instance(seq)
		return inst != nil && inst.prepares&(1<<3) != 0
	}
	vote := &Prepare{View: 0, Seq: 5, Digest: crypto.HashBytes([]byte("digest")), Replica: 3}
	vote.Sig = suite.Signer(3).Sign(vote.signDigest())
	r.engines[1].Receive(3, vote)
	r.engines[2].Receive(3, vote)
	if checks != 1 || !counted(r.engines[1], 5) || !counted(r.engines[2], 5) {
		t.Fatalf("one vote at two replicas: %d checks, want 1 and the vote counted at both", checks)
	}
	moved := *vote
	moved.Seq = 6
	r.engines[2].Receive(3, &moved)
	if checks != 2 || counted(r.engines[2], 6) {
		t.Fatalf("value copy for another slot: %d checks, counted %v; want it checked and refused", checks, counted(r.engines[2], 6))
	}
	vote.Seq, vote.Sig = 7, suite.Signer(2).Sign(vote.signDigest())
	r.engines[0].Receive(3, vote)
	if checks != 3 || counted(r.engines[0], 7) {
		t.Fatalf("replaced Sig: %d checks, counted %v; want it checked and refused", checks, counted(r.engines[0], 7))
	}

	r.net.Run(time.Second)
	if len(r.apps[3].commits) != 1 || checks != 3 {
		t.Fatalf("one block: %d committed at replica 3, %d checks; want 1 and no more checks", len(r.apps[3].commits), checks)
	}
}
