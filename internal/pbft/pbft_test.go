package pbft

import (
	"errors"
	"testing"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/faults"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// echoApp proposes numbered payloads and records commits; it drives the
// engine without any real data plane.
type echoApp struct {
	next     uint64
	max      uint64
	commits  []uint64
	pendOnce map[uint64]bool // heights that return ErrPending on first try
	rejectAt uint64          // height whose validation always fails (0 = none)
	wantWork bool            // report pending work (arms leader suspicion)
	// clock, when set, stamps every built proposal into builtAt.
	clock   func() time.Time
	builtAt []time.Time
}

// payloadMsg is a minimal consensus payload.
type payloadMsg struct {
	N uint64
}

const payloadType = wire.TypeRangeTest + 0x20

func (p *payloadMsg) Type() wire.Type            { return payloadType }
func (p *payloadMsg) WireSize() int              { return wire.FrameOverhead + 8 }
func (p *payloadMsg) EncodeBody(e *wire.Encoder) { e.U64(p.N) }

func registerPayload() {
	if !wire.Registered(payloadType) {
		wire.Register(payloadType, "pbft-test-payload", func(d *wire.Decoder) (wire.Message, error) {
			return &payloadMsg{N: d.U64()}, d.Err()
		})
	}
}

func (a *echoApp) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	if a.next >= a.max {
		return nil, crypto.ZeroHash, false
	}
	a.next++
	if a.clock != nil {
		a.builtAt = append(a.builtAt, a.clock())
	}
	p := &payloadMsg{N: height}
	return p, digestOf(p), true
}

func digestOf(p *payloadMsg) crypto.Hash {
	e := wire.NewEncoder(8)
	e.U64(p.N)
	return crypto.HashBytes(e.Bytes())
}

func (a *echoApp) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	p, ok := payload.(*payloadMsg)
	if !ok {
		return crypto.ZeroHash, errors.New("bad payload")
	}
	if a.rejectAt != 0 && height == a.rejectAt {
		return crypto.ZeroHash, errors.New("rejected by app")
	}
	if a.pendOnce[height] {
		delete(a.pendOnce, height)
		return crypto.ZeroHash, consensus.ErrPending
	}
	return digestOf(p), nil
}

func (a *echoApp) OnCommit(height uint64, payload wire.Message) {
	a.commits = append(a.commits, height)
}

func (a *echoApp) HasPendingWork() bool { return a.wantWork && len(a.commits) < int(a.max) }

type rig struct {
	net     *simnet.Network
	engines []*Engine
	apps    []*echoApp
}

func newPBFTRig(t *testing.T, n int, maxBlocks uint64) *rig {
	t.Helper()
	return newPipelinedRig(t, n, maxBlocks, 1)
}

// newPipelinedRig is newPBFTRig with an in-flight window; every app stamps
// the proposals it builds with the virtual clock.
func newPipelinedRig(t *testing.T, n int, maxBlocks uint64, pipeline int) *rig {
	t.Helper()
	registerPayload()
	RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3})
	suite := crypto.NewSimSuite(n, 5)
	r := &rig{net: net}
	for i := 0; i < n; i++ {
		app := &echoApp{max: maxBlocks, pendOnce: map[uint64]bool{}, clock: net.Now}
		e, err := New(Config{
			N: n, Self: wire.NodeID(i), App: app, Signer: suite.Signer(i),
			ViewTimeout: 500 * time.Millisecond, Pipeline: pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.apps = append(r.apps, app)
		r.engines = append(r.engines, e)
		net.AddNode(wire.NodeID(i), e)
	}
	return r
}

func TestQuorumHelpers(t *testing.T) {
	cases := []struct{ n, f, q int }{{4, 1, 3}, {7, 2, 5}, {10, 3, 7}, {1, 0, 1}}
	for _, c := range cases {
		if consensus.FaultBound(c.n) != c.f {
			t.Fatalf("FaultBound(%d) = %d, want %d", c.n, consensus.FaultBound(c.n), c.f)
		}
		if consensus.Quorum(c.n) != c.q {
			t.Fatalf("Quorum(%d) = %d, want %d", c.n, consensus.Quorum(c.n), c.q)
		}
	}
	if consensus.LeaderOf(5, 4) != 1 {
		t.Fatal("LeaderOf rotation wrong")
	}
}

func TestPBFTCommitsInOrder(t *testing.T) {
	r := newPBFTRig(t, 4, 10)
	r.net.Start()
	r.net.Run(3 * time.Second)
	for i, app := range r.apps {
		if len(app.commits) != 10 {
			t.Fatalf("node %d committed %d blocks, want 10", i, len(app.commits))
		}
		for j, h := range app.commits {
			if h != uint64(j+1) {
				t.Fatalf("node %d commit order broken: %v", i, app.commits)
			}
		}
	}
	committed, vcs := r.engines[0].Stats()
	if committed != 10 || vcs != 0 {
		t.Fatalf("stats = (%d, %d)", committed, vcs)
	}
	if r.engines[0].LastExecuted() != 10 {
		t.Fatalf("LastExecuted = %d", r.engines[0].LastExecuted())
	}
}

func TestPBFTPendingValidationRetries(t *testing.T) {
	r := newPBFTRig(t, 4, 3)
	// Node 2's validation of height 2 pends once; a poke after bundle
	// arrival would normally retry, here the commit of height 1 plus
	// subsequent pokes retry it.
	r.apps[2].pendOnce[2] = true
	r.net.Start()
	// Poke periodically like a data plane would.
	poker := r.engines[2]
	var rearm func()
	deadline := simnet.Epoch.Add(2 * time.Second)
	rearm = func() {
		poker.Poke()
		if r.net.Now().Before(deadline) {
			r.net.Now() // no-op; keep closure simple
		}
	}
	_ = rearm
	r.net.Run(1 * time.Second)
	poker.Poke()
	r.net.Run(3 * time.Second)
	if len(r.apps[2].commits) != 3 {
		t.Fatalf("node 2 committed %d blocks, want 3", len(r.apps[2].commits))
	}
}

func TestPBFTSilentLeaderViewChange(t *testing.T) {
	r := newPBFTRig(t, 4, 5)
	r.net.Crash(0) // leader of view 0 never speaks
	// Followers report pending work so they arm suspicion timers.
	for i := 1; i < 4; i++ {
		r.apps[i].wantWork = true
	}
	r.net.Start()
	for i := 1; i < 4; i++ {
		r.engines[i].Poke()
	}
	r.net.Run(10 * time.Second)
	for i := 1; i < 4; i++ {
		if len(r.apps[i].commits) == 0 {
			t.Fatalf("node %d made no progress after leader crash", i)
		}
		if r.engines[i].View() == 0 {
			t.Fatalf("node %d never changed view", i)
		}
	}
}

func TestPBFTRejectedProposalNotVoted(t *testing.T) {
	r := newPBFTRig(t, 4, 2)
	// All non-leader replicas reject height 1: no quorum forms for it, and
	// because the leader keeps believing in it, nothing commits.
	for i := 1; i < 4; i++ {
		r.apps[i].rejectAt = 1
	}
	r.net.Start()
	r.net.Run(300 * time.Millisecond)
	for i := 1; i < 4; i++ {
		if len(r.apps[i].commits) != 0 {
			t.Fatalf("node %d committed a rejected proposal", i)
		}
	}
}

func TestPBFTMessageCodecs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 5)
	payload := &payloadMsg{N: 7}
	pp := &PrePrepare{View: 1, Seq: 2, Digest: digestOf(payload), Payload: payload, Leader: 1}
	pp.Sig = suite.Signer(1).Sign(pp.signDigest())
	got, err := wire.Roundtrip(pp)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.(*PrePrepare)
	if gp.View != 1 || gp.Seq != 2 || gp.Payload.(*payloadMsg).N != 7 {
		t.Fatalf("PrePrepare roundtrip: %+v", gp)
	}
	if !suite.Signer(0).Verify(1, gp.signDigest(), gp.Sig) {
		t.Fatal("pre-prepare signature lost in roundtrip")
	}
	if len(wire.Marshal(pp)) != pp.WireSize() {
		t.Fatal("PrePrepare WireSize mismatch")
	}

	p := &Prepare{View: 1, Seq: 2, Digest: pp.Digest, Replica: 3, Sig: make([]byte, 64)}
	if got, err := wire.Roundtrip(p); err != nil || got.(*Prepare).Replica != 3 {
		t.Fatalf("Prepare roundtrip: %v", err)
	}
	cm := &Commit{View: 1, Seq: 2, Digest: pp.Digest, Replica: 3, Sig: make([]byte, 64)}
	if got, err := wire.Roundtrip(cm); err != nil || got.(*Commit).Seq != 2 {
		t.Fatalf("Commit roundtrip: %v", err)
	}

	vc := &ViewChange{
		NewViewNum: 3, LastExec: 5, Replica: 2,
		Prepared: []*PreparedEntry{{Seq: 6, View: 2, Digest: pp.Digest, Payload: payload}},
	}
	vc.Sig = suite.Signer(2).Sign(vc.signDigest())
	got2, err := wire.Roundtrip(vc)
	if err != nil {
		t.Fatal(err)
	}
	gv := got2.(*ViewChange)
	if gv.NewViewNum != 3 || len(gv.Prepared) != 1 || gv.Prepared[0].Payload.(*payloadMsg).N != 7 {
		t.Fatalf("ViewChange roundtrip: %+v", gv)
	}
	if !suite.Signer(0).Verify(2, gv.signDigest(), gv.Sig) {
		t.Fatal("view-change signature mismatch after roundtrip")
	}
	if len(wire.Marshal(vc)) != vc.WireSize() {
		t.Fatal("ViewChange WireSize mismatch")
	}

	nv := &NewView{View: 3, LastExec: 5, Leader: 3, Sig: make([]byte, 64)}
	if got, err := wire.Roundtrip(nv); err != nil || got.(*NewView).View != 3 {
		t.Fatalf("NewView roundtrip: %v", err)
	}
	if len(wire.Marshal(nv)) != nv.WireSize() {
		t.Fatal("NewView WireSize mismatch")
	}

	sr := &StatusRequest{Replica: 2}
	if got, err := wire.Roundtrip(sr); err != nil || *got.(*StatusRequest) != *sr {
		t.Fatalf("StatusRequest roundtrip: %v", err)
	}
	if len(wire.Marshal(sr)) != sr.WireSize() {
		t.Fatal("StatusRequest WireSize mismatch")
	}

	st := &StatusReply{View: 4, LastExec: 17, Replica: 1, Sig: make([]byte, 64)}
	got3, err := wire.Roundtrip(st)
	if err != nil {
		t.Fatalf("StatusReply roundtrip: %v", err)
	}
	if g := got3.(*StatusReply); g.View != st.View || g.LastExec != st.LastExec || g.Replica != st.Replica {
		t.Fatal("StatusReply fields changed in roundtrip")
	}
	if len(wire.Marshal(st)) != st.WireSize() {
		t.Fatal("StatusReply WireSize mismatch")
	}
}

func TestVoteDigestDomainSeparation(t *testing.T) {
	d := crypto.HashBytes([]byte("digest"))
	if voteDigest(kindPrepare, 1, 2, d) == voteDigest(kindCommit, 1, 2, d) {
		t.Fatal("prepare and commit digests must differ")
	}
	if voteDigest(kindPrepare, 1, 2, d) == voteDigest(kindPrepare, 1, 3, d) {
		t.Fatal("different seq must give different digests")
	}
}

func TestPBFTConfigValidation(t *testing.T) {
	suite := crypto.NewSimSuite(4, 5)
	app := &echoApp{}
	if _, err := New(Config{N: 0, App: app, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 4, Self: 4, App: app, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("Self out of range accepted")
	}
	if _, err := New(Config{N: 4, Self: 0, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := New(Config{N: 4, Self: 0, App: app}); err == nil {
		t.Fatal("nil signer accepted")
	}
	if _, err := New(Config{N: maxReplicas + 1, Self: 0, App: app, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("a group wider than the vote bitset accepted")
	}
}

func TestPBFTByzantineVoteCannotPoisonSlot(t *testing.T) {
	// A forged Prepare with a bogus digest arriving before the leader's
	// pre-prepare must not prevent the real proposal from being accepted.
	r := newPBFTRig(t, 4, 1)
	r.net.Start()
	// Inject a bogus prepare directly into node 2's engine before anything
	// else: it creates a poisoned slot for seq 1.
	e2 := r.engines[2]
	suite := crypto.NewSimSuite(4, 5)
	bogus := &Prepare{View: 0, Seq: 1, Digest: crypto.HashBytes([]byte("junk")), Replica: 3}
	bogus.Sig = suite.Signer(3).Sign(bogus.signDigest())
	e2.Receive(3, bogus)
	r.net.Run(2 * time.Second)
	if len(r.apps[2].commits) != 1 {
		t.Fatalf("node 2 committed %d blocks, want 1 (slot poisoned?)", len(r.apps[2].commits))
	}
}

func TestPBFTEvidenceCodecs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 5)
	dA := crypto.HashBytes([]byte("digest-a"))
	dB := crypto.HashBytes([]byte("digest-b"))

	pp := &ProposalProof{View: 2, Seq: 9, Digest: dA, Leader: 2,
		Sig: suite.Signer(2).Sign(voteDigest(kindPrePrepare, 2, 9, dA))}
	got, err := wire.Roundtrip(pp)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.(*ProposalProof)
	if gp.View != 2 || gp.Seq != 9 || gp.Digest != dA || gp.Leader != 2 {
		t.Fatalf("ProposalProof roundtrip: %+v", gp)
	}
	if !suite.Signer(0).Verify(2, voteDigest(kindPrePrepare, 2, 9, dA), gp.Sig) {
		t.Fatal("proposal-proof leader signature lost in roundtrip")
	}
	if len(wire.Marshal(pp)) != pp.WireSize() {
		t.Fatal("ProposalProof WireSize mismatch")
	}

	ev := &Evidence{View: 2, Seq: 9, Leader: 2,
		DigestA: dA, SigA: suite.Signer(2).Sign(voteDigest(kindPrePrepare, 2, 9, dA)),
		DigestB: dB, SigB: suite.Signer(2).Sign(voteDigest(kindPrePrepare, 2, 9, dB))}
	got2, err := wire.Roundtrip(ev)
	if err != nil {
		t.Fatal(err)
	}
	ge := got2.(*Evidence)
	if ge.DigestA != dA || ge.DigestB != dB || ge.View != 2 || ge.Seq != 9 {
		t.Fatalf("Evidence roundtrip: %+v", ge)
	}
	if !suite.Signer(0).Verify(2, voteDigest(kindPrePrepare, 2, 9, dB), ge.SigB) {
		t.Fatal("evidence signature lost in roundtrip")
	}
	if len(wire.Marshal(ev)) != ev.WireSize() {
		t.Fatal("Evidence WireSize mismatch")
	}
}

func TestPBFTEvidenceMustVerifyBothHalves(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 5)
	app := &echoApp{max: 1}
	e, err := New(Config{N: 4, Self: 1, App: app, Signer: suite.Signer(1)})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{Seed: 1})
	net.AddNode(1, e)
	net.Start()

	dA := crypto.HashBytes([]byte("a"))
	dB := crypto.HashBytes([]byte("b"))
	sign := func(d crypto.Hash) []byte {
		return suite.Signer(0).Sign(voteDigest(kindPrePrepare, 0, 1, d))
	}
	// Forged second half: must not count.
	e.Receive(3, &Evidence{View: 0, Seq: 1, Leader: 0,
		DigestA: dA, SigA: sign(dA), DigestB: dB, SigB: []byte("garbage")})
	// Identical digests: not an equivocation.
	e.Receive(3, &Evidence{View: 0, Seq: 1, Leader: 0,
		DigestA: dA, SigA: sign(dA), DigestB: dA, SigB: sign(dA)})
	// Wrong leader for the view: must not count.
	e.Receive(3, &Evidence{View: 0, Seq: 1, Leader: 2,
		DigestA: dA, SigA: sign(dA), DigestB: dB, SigB: sign(dB)})
	if e.Equivocations() != 0 {
		t.Fatalf("bogus evidence counted: %d", e.Equivocations())
	}

	// Authentic evidence: counts once, triggers a view change past the
	// equivocator's view, and a duplicate does not double-count.
	authentic := &Evidence{View: 0, Seq: 1, Leader: 0,
		DigestA: dA, SigA: sign(dA), DigestB: dB, SigB: sign(dB)}
	e.Receive(3, authentic)
	e.Receive(2, authentic)
	if e.Equivocations() != 1 {
		t.Fatalf("Equivocations = %d, want 1", e.Equivocations())
	}
	// A lone replica cannot complete the change (no NewView quorum), but
	// verified evidence must at least start one past the faulty view.
	if !e.inViewChange || e.proposedView == 0 {
		t.Fatal("verified evidence must propose a view change")
	}
}

func TestPBFTEquivocatingLeaderDetectedAndOutrun(t *testing.T) {
	// The view-0 leader equivocates to victims 2 and 3 under a scripted
	// fault window: victims receive correctly-signed conflicting
	// pre-prepares. The detection protocol (ProposalProof exchange →
	// Evidence broadcast → view change) must expose the attack on every
	// replica and move consensus to an honest leader, so commits continue.
	r := newPBFTRig(t, 4, 8)
	suite := crypto.NewSimSuite(4, 5)
	faults.Install(r.net, faults.Schedule{Seed: 9, Actions: []faults.Action{
		faults.EquivocateLeader{Node: 0, Signer: suite.Signer(0),
			Victims: []wire.NodeID{2, 3}, From: 0, To: 2 * time.Second},
	}})
	r.net.Start()
	r.net.Run(10 * time.Second)

	detected := 0
	for i, e := range r.engines {
		if e.Equivocations() > 0 {
			detected++
		}
		if e.View() == 0 {
			t.Fatalf("node %d never left the equivocator's view", i)
		}
	}
	if detected < 3 {
		t.Fatalf("only %d replicas proved the equivocation, want >= 3", detected)
	}
	for i, app := range r.apps {
		if len(app.commits) == 0 {
			t.Fatalf("node %d never committed after the attack", i)
		}
	}
}

// TestPokeFullWindowAllocs: in stream mode the app pokes the engine once
// per stored bundle. With the pipeline window full and nothing pending,
// a poke walks the seq-ordered window in place and allocates nothing.
func TestPokeFullWindowAllocs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	const pipeline = 16
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3})
	suite := crypto.NewSimSuite(4, 5)
	app := &echoApp{max: 1000, pendOnce: map[uint64]bool{}}
	e, err := New(Config{N: 4, Self: 0, App: app, Signer: suite.Signer(0), Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(0, e)
	net.Start() // the view-0 leader fills its window on Start
	if len(e.window) != pipeline {
		t.Fatalf("window holds %d instances, want %d", len(e.window), pipeline)
	}
	for i, inst := range e.window {
		if inst.seq != uint64(i+1) {
			t.Fatalf("window[%d].seq = %d: not in ascending seq order", i, inst.seq)
		}
	}
	if a := testing.AllocsPerRun(100, e.Poke); a != 0 {
		t.Errorf("Poke with a full window and nothing pending allocates %.1f, want 0", a)
	}
	if app.next != pipeline {
		t.Fatalf("poking a full window built %d proposals, want %d", app.next, pipeline)
	}
}

// TestWindowStaysOrdered: votes that run ahead, supersession, execution
// and fast-forward all leave the window in ascending seq order with no
// duplicates, and lookups agree with a linear scan.
func TestWindowStaysOrdered(t *testing.T) {
	e, err := New(Config{N: 4, Self: 1, App: &echoApp{}, Signer: crypto.NewSimSuite(4, 5).Signer(1)})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want ...uint64) {
		t.Helper()
		if len(e.window) != len(want) {
			t.Fatalf("%s: window holds %d instances, want %v", step, len(e.window), want)
		}
		for i, seq := range want {
			if e.window[i].seq != seq || e.instance(seq) != e.window[i] {
				t.Fatalf("%s: window[%d].seq = %d, want %d", step, i, e.window[i].seq, seq)
			}
		}
		if e.instance(4) != nil || e.instance(1000) != nil { // never inserted
			t.Fatalf("%s: lookup of an absent seq returned an instance", step)
		}
	}
	d := crypto.HashBytes([]byte("d"))
	for _, seq := range []uint64{7, 3, 9, 5, 3, 8} {
		e.getInstance(seq, 0, d)
	}
	check("out-of-order inserts", 3, 5, 7, 8, 9)
	old := e.instance(5)
	if e.getInstance(5, 1, d) == old {
		t.Fatal("a higher view must supersede the slot")
	}
	check("supersession in place", 3, 5, 7, 8, 9)
	e.dropInstances(7, 7)
	check("single drop", 3, 5, 8, 9)
	e.dropInstances(6, 6)
	check("drop of an absent seq", 3, 5, 8, 9)
	e.dropInstances(0, 5)
	check("fast-forward drop", 8, 9)
	e.dropInstances(0, 100)
	check("drop everything")
}

// TestVoteFromOutsideGroupIgnored: a Prepare and a Commit correctly
// signed for replica index N — a SimSigner verifies a tag for any index —
// and sent from node N open no slot and move no quorum.
func TestVoteFromOutsideGroupIgnored(t *testing.T) {
	r := newPBFTRig(t, 4, 0)
	r.net.Start()
	e := r.engines[2]
	outsider := crypto.NewSimSigner(4, 5)
	d := crypto.HashBytes([]byte("d"))
	p := &Prepare{View: 0, Seq: 1, Digest: d, Replica: 4}
	p.Sig = outsider.Sign(p.signDigest())
	c := &Commit{View: 0, Seq: 1, Digest: d, Replica: 4}
	c.Sig = outsider.Sign(c.signDigest())
	e.Receive(4, p)
	e.Receive(4, c)
	if len(e.window) != 0 {
		t.Fatalf("votes from outside the group opened %d slots", len(e.window))
	}
	// Two in-group votes of each kind are one short of the quorum of 3;
	// the outsider's must not complete it, and a third in-group one does.
	suite := crypto.NewSimSuite(4, 5)
	vote := func(replica wire.NodeID) {
		p := &Prepare{View: 0, Seq: 1, Digest: d, Replica: replica}
		p.Sig = suite.Signer(int(replica)).Sign(p.signDigest())
		e.Receive(replica, p)
		c := &Commit{View: 0, Seq: 1, Digest: d, Replica: replica}
		c.Sig = suite.Signer(int(replica)).Sign(c.signDigest())
		e.Receive(replica, c)
	}
	vote(1)
	vote(3)
	e.Receive(4, p)
	e.Receive(4, c)
	inst := e.instance(1)
	if inst == nil || inst.prepared || inst.commitQuorum || inst.sentCommit {
		t.Fatal("a vote from outside the group completed a quorum")
	}
	vote(0)
	if !inst.prepared || !inst.commitQuorum {
		t.Fatal("three in-group votes of each kind did not complete the quorums")
	}
}

// TestSlotAllocs pins a warm replica's full slot — the leader's
// pre-prepare, 2f+1 prepares, 2f+1 commits, execution — at one instance
// plus this replica's two vote signatures, on top of the application's own
// work on the slot, pinned beside it.
func TestSlotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	registerPayload()
	RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3})
	suite := crypto.NewSimSuite(4, 5)
	app := &echoApp{commits: make([]uint64, 0, 512)}
	e, err := New(Config{N: 4, Self: 1, App: app, Signer: suite.Signer(1)})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(1, e) // the peers are not on the network: votes to them drop
	net.Start()
	type slot struct {
		pp     *PrePrepare
		votes  []wire.Message
		voters []wire.NodeID
	}
	const slots = 300
	all := make([]slot, slots)
	for i := range all {
		seq := uint64(i + 1)
		payload := &payloadMsg{N: seq}
		s := slot{pp: &PrePrepare{View: 0, Seq: seq, Digest: digestOf(payload), Payload: payload}}
		s.pp.Sig = suite.Signer(0).Sign(s.pp.signDigest())
		for _, r := range []wire.NodeID{2, 3} {
			p := &Prepare{View: 0, Seq: seq, Digest: s.pp.Digest, Replica: r}
			p.Sig = suite.Signer(int(r)).Sign(p.signDigest())
			s.votes, s.voters = append(s.votes, p), append(s.voters, r)
		}
		for _, r := range []wire.NodeID{0, 2, 3} {
			c := &Commit{View: 0, Seq: seq, Digest: s.pp.Digest, Replica: r}
			c.Sig = suite.Signer(int(r)).Sign(c.signDigest())
			s.votes, s.voters = append(s.votes, c), append(s.voters, r)
		}
		all[i] = s
	}
	i := 0
	run := func() {
		s := all[i]
		e.Receive(0, s.pp)
		for k, m := range s.votes {
			e.Receive(s.voters[k], m)
		}
		i++
		net.Run(net.Elapsed()) // drain the dropped sends' events
	}
	for i < 100 { // warm-up: the window, the event queue's free list
		run()
	}
	got := testing.AllocsPerRun(100, run)
	if e.LastExecuted() != uint64(i) {
		t.Fatalf("executed %d slots, want %d", e.LastExecuted(), i)
	}
	j := i
	appWork := testing.AllocsPerRun(50, func() {
		s := all[j]
		if _, err := app.ValidateProposal(s.pp.Seq, s.pp.Payload, nil); err != nil {
			t.Fatal(err)
		}
		app.OnCommit(s.pp.Seq, s.pp.Payload)
		j++
	})
	if appWork != 1 {
		t.Errorf("the test app's work on a slot allocates %.1f, want 1 (its digest encoder)", appWork)
	}
	if want := 3 + appWork; got != want {
		t.Errorf("a full slot allocates %.1f, want %.0f: the instance, two signatures and the app's %.0f", got, want, appWork)
	}
}

// TestTimerRearmAllocs: the suspicion timer re-arms with a callback bound
// once, so a re-arm allocates nothing.
func TestTimerRearmAllocs(t *testing.T) {
	r := newPBFTRig(t, 4, 0)
	r.net.Start()
	e := r.engines[1]
	e.ctx = &idleCtx{e.ctx}
	if a := testing.AllocsPerRun(100, e.armSuspicion); a != 0 {
		t.Errorf("re-arming the suspicion timer allocates %.1f, want 0", a)
	}
}

// idleCtx wraps a node's context with timers that never fire, so a test
// counts a re-arm's own allocations, not the runtime's.
type idleCtx struct{ env.Context }

func (*idleCtx) After(time.Duration, func()) env.Timer { return nil }

// TestIdleGroupGoesQuiet: once the application's work is committed, the
// replicas schedule nothing more — a proposal waits for a Poke, a commit
// or a protocol message — so the event queue drains.
func TestIdleGroupGoesQuiet(t *testing.T) {
	r := newPBFTRig(t, 4, 5)
	r.net.Start()
	r.net.Run(3 * time.Second)
	for i, app := range r.apps {
		if len(app.commits) != 5 {
			t.Fatalf("node %d committed %d blocks, want 5", i, len(app.commits))
		}
	}
	const bound = 10000
	n := r.net.RunUntilIdle(bound)
	if n >= bound {
		t.Fatalf("an idle group ran %d more events without draining", n)
	}
	t.Logf("drained in %d events", n)
}

// TestViewChangeEscalatesPastSilentLeader: with the leaders of views 0 and
// 1 both crashed, the view change to 1 never completes, so the suspicion
// timer escalates to view 2, whose live leader takes over.
func TestViewChangeEscalatesPastSilentLeader(t *testing.T) {
	r := newPBFTRig(t, 7, 5)
	r.net.Crash(0)
	r.net.Crash(1)
	for i := 2; i < 7; i++ {
		r.apps[i].wantWork = true
	}
	r.net.Start()
	for i := 2; i < 7; i++ {
		r.engines[i].Poke()
	}
	r.net.Run(10 * time.Second)
	for i := 2; i < 7; i++ {
		if v := r.engines[i].View(); v < 2 {
			t.Fatalf("node %d is in view %d, want at least 2", i, v)
		}
		if len(r.apps[i].commits) == 0 {
			t.Fatalf("node %d made no progress past two silent leaders", i)
		}
		t.Logf("node %d: view %d, %d commits", i, r.engines[i].View(), len(r.apps[i].commits))
	}
}

// TestViewTimerCapped: with two of four replicas crashed no view change
// completes, so the live replicas' suspicion timers escalate again and
// again; their backoff must stop growing at 16 × ViewTimeout.
func TestViewTimerCapped(t *testing.T) {
	r := newPBFTRig(t, 4, 5)
	r.net.Crash(0)
	r.net.Crash(1)
	r.net.Start()
	timers := make([]*longestTimer, 4)
	for i := 2; i < 4; i++ {
		r.apps[i].wantWork = true
		timers[i] = &longestTimer{Context: r.engines[i].ctx}
		r.engines[i].ctx = timers[i]
		r.engines[i].Poke()
	}
	r.net.Run(30 * time.Second)
	for i := 2; i < 4; i++ {
		e, c := r.engines[i], timers[i]
		if limit := 16 * e.cfg.ViewTimeout; c.longest > limit {
			t.Errorf("node %d armed a %v timer, want at most %v", i, c.longest, limit)
		}
		if e.vcBackoff < 6 {
			t.Errorf("node %d escalated %d times, want at least 6", i, e.vcBackoff)
		}
		t.Logf("node %d: %d escalations, longest timer %v", i, e.vcBackoff, c.longest)
	}
}

// longestTimer wraps a node's context and records the longest timer it
// arms.
type longestTimer struct {
	env.Context
	longest time.Duration
}

func (c *longestTimer) After(d time.Duration, fn func()) env.Timer {
	c.longest = max(c.longest, d)
	return c.Context.After(d, fn)
}
