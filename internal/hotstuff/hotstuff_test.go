package hotstuff

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"predis/internal/consensus"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/faults"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// chainApp proposes numbered payloads; validation checks the parent link so
// pipelining bugs surface as failures.
type chainApp struct {
	produced uint64
	max      uint64
	commits  []uint64
	wantWork bool
	pendOnce map[uint64]bool
	// hold, when set, keeps validation of the heights it accepts pending.
	hold func(height uint64) bool
	// engine, when set, is poked on every commit, as Predis pokes its
	// engine when a commit frees work.
	engine *Engine
}

type payloadMsg struct {
	Height uint64
	Parent uint64
}

const payloadType = wire.TypeRangeTest + 0x30

func (p *payloadMsg) Type() wire.Type { return payloadType }
func (p *payloadMsg) WireSize() int   { return wire.FrameOverhead + 16 }
func (p *payloadMsg) EncodeBody(e *wire.Encoder) {
	e.U64(p.Height)
	e.U64(p.Parent)
}

func registerPayload() {
	if !wire.Registered(payloadType) {
		wire.Register(payloadType, "hs-test-payload", func(d *wire.Decoder) (wire.Message, error) {
			return &payloadMsg{Height: d.U64(), Parent: d.U64()}, d.Err()
		})
	}
}

func (a *chainApp) BuildProposal(height uint64, parent wire.Message) (wire.Message, crypto.Hash, bool) {
	if a.produced >= a.max {
		return nil, crypto.ZeroHash, false
	}
	a.produced++
	var parentHeight uint64
	if parent != nil {
		parentHeight = parent.(*payloadMsg).Height
	}
	p := &payloadMsg{Height: height, Parent: parentHeight}
	return p, crypto.HashBytes(wire.Marshal(p)), true
}

func (a *chainApp) ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error) {
	p, ok := payload.(*payloadMsg)
	if !ok {
		return crypto.ZeroHash, errors.New("bad payload type")
	}
	if p.Height != height {
		return crypto.ZeroHash, errors.New("height mismatch")
	}
	var parentHeight uint64
	if parent != nil {
		parentHeight = parent.(*payloadMsg).Height
	}
	if p.Parent != parentHeight {
		return crypto.ZeroHash, errors.New("parent link mismatch")
	}
	if a.pendOnce != nil && a.pendOnce[height] {
		delete(a.pendOnce, height)
		return crypto.ZeroHash, consensus.ErrPending
	}
	if a.hold != nil && a.hold(height) {
		return crypto.ZeroHash, consensus.ErrPending
	}
	return crypto.HashBytes(wire.Marshal(p)), nil
}

func (a *chainApp) OnCommit(height uint64, payload wire.Message) {
	a.commits = append(a.commits, height)
	if a.engine != nil {
		a.engine.Poke()
	}
}

func (a *chainApp) HasPendingWork() bool { return a.wantWork && len(a.commits) < int(a.max) }

type rig struct {
	net     *simnet.Network
	engines []*Engine
	apps    []*chainApp
}

func newHSRig(t *testing.T, n int, maxBlocks uint64) *rig {
	t.Helper()
	registerPayload()
	RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 11})
	suite := crypto.NewSimSuite(n, 13)
	r := &rig{net: net}
	for i := 0; i < n; i++ {
		app := &chainApp{max: maxBlocks}
		e, err := New(Config{
			N: n, Self: wire.NodeID(i), App: app, Signer: suite.Signer(i),
			ViewTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		app.engine = e
		r.apps = append(r.apps, app)
		r.engines = append(r.engines, e)
		net.AddNode(wire.NodeID(i), e)
	}
	return r
}

func TestHotStuffCommitsChainInOrder(t *testing.T) {
	// Every replica can propose up to 20 blocks; leaders rotate per view.
	// With pipelining the committed sequence must still be 1,2,3,… at
	// every replica.
	r := newHSRig(t, 4, 20)
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.net.Start()
	r.net.Run(10 * time.Second)
	minLen := 1 << 30
	for i, app := range r.apps {
		if len(app.commits) == 0 {
			t.Fatalf("node %d committed nothing", i)
		}
		for j, h := range app.commits {
			if h != uint64(j+1) {
				t.Fatalf("node %d commit order broken: %v", i, app.commits[:j+1])
			}
		}
		if len(app.commits) < minLen {
			minLen = len(app.commits)
		}
	}
	if minLen < 3 {
		t.Fatalf("pipeline barely moved: min commits %d", minLen)
	}
}

func TestHotStuffLeaderRotation(t *testing.T) {
	r := newHSRig(t, 4, 8)
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.net.Start()
	r.net.Run(10 * time.Second)
	// Multiple distinct proposers must have produced blocks (produced>0 on
	// more than one app), showing views rotate.
	producers := 0
	for _, a := range r.apps {
		if a.produced > 0 {
			producers++
		}
	}
	if producers < 2 {
		t.Fatalf("only %d producers; leader rotation broken", producers)
	}
}

func TestHotStuffCrashedLeaderTimeout(t *testing.T) {
	// Note: n = 7, not 4. A 3-chain commit of the block at view v needs
	// the leaders of views v..v+3 alive (proposers of v..v+2 plus the
	// vote collectors of v+1..v+3). With round-robin rotation and n = 4,
	// a single crashed replica intersects every window of 4 consecutive
	// views, so basic chained HotStuff cannot commit at all — a known
	// property of the protocol (production systems use leader reputation
	// or 2-chain variants). At n = 7 a live window exists and progress
	// resumes after pacemaker timeouts.
	r := newHSRig(t, 7, 10)
	for _, a := range r.apps {
		a.wantWork = true
	}
	// Crash the leader of view 1 before start.
	r.net.Crash(1)
	r.net.Start()
	for i := range r.engines {
		if i != 1 {
			r.engines[i].Poke()
		}
	}
	r.net.Run(15 * time.Second)
	for i, app := range r.apps {
		if i == 1 {
			continue
		}
		if len(app.commits) == 0 {
			t.Fatalf("node %d made no progress with crashed leader", i)
		}
	}
	if _, timeouts := r.engines[0].Stats(); timeouts == 0 {
		t.Fatal("no pacemaker timeouts recorded despite crashed leader")
	}
}

func TestHotStuffPendingValidation(t *testing.T) {
	r := newHSRig(t, 4, 6)
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.apps[2].pendOnce = map[uint64]bool{2: true}
	r.net.Start()
	r.net.Run(5 * time.Second)
	// Node 2 must catch up despite the pended validation.
	if len(r.apps[2].commits) < 2 {
		t.Fatalf("node 2 commits: %v", r.apps[2].commits)
	}
	for j, h := range r.apps[2].commits {
		if h != uint64(j+1) {
			t.Fatalf("node 2 order broken: %v", r.apps[2].commits)
		}
	}
}

// scanPendingVotes is the whole-tree scan retryPendingVotes used to run on
// every Poke: every entry a vote may still be owed to, in (view, hash)
// order.
func scanPendingVotes(e *Engine) []*blockEnt {
	var out []*blockEnt
	for _, ent := range e.blocks {
		if !ent.validated && !ent.invalid && !ent.committed && ent.block.View >= e.curView {
			out = append(out, ent)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].block.View != out[j].block.View {
			return out[i].block.View < out[j].block.View
		}
		return bytes.Compare(out[i].hash[:], out[j].hash[:]) < 0
	})
	return out
}

// TestPendingVoteListMatchesTreeScan: through proposals whose validation
// stays pending for random stretches, votes, commits, view changes after a
// leader crash and tree pruning, the entries of the maintained list that
// still qualify are exactly what the whole-tree scan finds, in its order.
func TestPendingVoteListMatchesTreeScan(t *testing.T) {
	r := newHSRig(t, 4, 120)
	rng := rand.New(rand.NewSource(5))
	held := make([]uint64, len(r.apps)) // app i pends heights above held[i]; 0 = none
	for i, a := range r.apps {
		i := i
		a.wantWork = true
		a.hold = func(height uint64) bool { return held[i] != 0 && height > held[i] }
	}
	faults.Install(r.net, faults.Schedule{Seed: 7, Actions: []faults.Action{
		faults.CrashWindow{Node: 1, From: time.Second, To: 2 * time.Second},
	}})
	r.net.Start()
	pendingSeen := 0
	for step := 1; step <= 800; step++ {
		r.net.Run(time.Duration(step) * 5 * time.Millisecond)
		if step%5 == 0 { // one replica starts or stops withholding validation
			if i := rng.Intn(len(held)); held[i] == 0 {
				held[i] = r.engines[i].LastExecuted() + uint64(rng.Intn(3))
			} else {
				held[i] = 0
			}
		}
		for i, e := range r.engines {
			if r.net.Crashed(wire.NodeID(i)) {
				continue
			}
			want := scanPendingVotes(e)
			var got []*blockEnt
			for _, ent := range e.pendingVotes {
				if e.awaitsVote(ent) {
					got = append(got, ent)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d replica %d: list holds %d qualifying entries, the scan finds %d (or another order)",
					step, i, len(got), len(want))
			}
			pendingSeen += len(want)
			e.Poke()
		}
	}
	t.Logf("%d pending entries compared; commits %d %d %d %d", pendingSeen, len(r.apps[0].commits), len(r.apps[1].commits), len(r.apps[2].commits), len(r.apps[3].commits))
	if pendingSeen < 50 {
		t.Fatalf("only %d pending entries seen: the test did not exercise the list", pendingSeen)
	}
	for i, a := range r.apps {
		if len(a.commits) < 20 {
			t.Fatalf("replica %d committed %d blocks", i, len(a.commits))
		}
	}
}

// TestPokeWithNothingPendingAllocatesNothing pins the per-stored-bundle
// cost of the pending-vote retry: with no vote owed, Poke does not allocate.
func TestPokeWithNothingPendingAllocatesNothing(t *testing.T) {
	r := newHSRig(t, 4, 20)
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.net.Start()
	r.net.Run(10 * time.Second)
	for i, e := range r.engines {
		if len(r.apps[i].commits) < 17 {
			t.Fatalf("replica %d committed %d blocks", i, len(r.apps[i].commits))
		}
		e.Poke() // drops what the last proposals left on the list
		if n := len(e.pendingVotes); n != 0 {
			t.Fatalf("replica %d: %d entries still pending on a quiet chain", i, n)
		}
		if a := testing.AllocsPerRun(100, e.Poke); a != 0 {
			t.Errorf("replica %d: Poke with nothing pending allocates %.1f, want 0", i, a)
		}
	}
}

func TestQCVerify(t *testing.T) {
	suite := crypto.NewSimSuite(4, 21)
	block := crypto.HashBytes([]byte("block"))
	digest := voteDigest(3, block)
	qc := &QC{View: 3, Block: block}
	for i := 0; i < 3; i++ {
		qc.Signers = append(qc.Signers, wire.NodeID(i))
		qc.Sigs = append(qc.Sigs, suite.Signer(i).Sign(digest))
	}
	if !qc.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("valid QC rejected")
	}
	if qc.Verify(suite.Signer(3), 4, 4) {
		t.Fatal("QC below quorum accepted")
	}
	// Duplicate signer must not count.
	dup := &QC{View: 3, Block: block,
		Signers: []wire.NodeID{0, 0, 1},
		Sigs:    [][]byte{qc.Sigs[0], qc.Sigs[0], qc.Sigs[1]},
	}
	if dup.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("QC with duplicate signer accepted")
	}
	// Corrupt share.
	bad := &QC{View: 3, Block: block,
		Signers: append([]wire.NodeID(nil), qc.Signers...),
		Sigs:    [][]byte{qc.Sigs[0], qc.Sigs[1], append([]byte(nil), qc.Sigs[2]...)},
	}
	bad.Sigs[2][0] ^= 1
	if bad.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("QC with corrupt share accepted")
	}
	// Signer index out of range.
	oor := &QC{View: 3, Block: block,
		Signers: []wire.NodeID{0, 1, 9},
		Sigs:    [][]byte{qc.Sigs[0], qc.Sigs[1], qc.Sigs[2]},
	}
	if oor.Verify(suite.Signer(3), 4, 3) {
		t.Fatal("QC with out-of-range signer accepted")
	}
	if !GenesisQC().Verify(suite.Signer(0), 4, 3) {
		t.Fatal("genesis QC rejected")
	}
}

func TestHotStuffMessageCodecs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 21)
	payload := &payloadMsg{Height: 4, Parent: 3}
	qc := &QC{View: 2, Block: crypto.HashBytes([]byte("parent"))}
	for i := 0; i < 3; i++ {
		qc.Signers = append(qc.Signers, wire.NodeID(i))
		qc.Sigs = append(qc.Sigs, suite.Signer(i).Sign(voteDigest(qc.View, qc.Block)))
	}
	b := &Block{Height: 4, View: 3, Parent: qc.Block, Justify: qc, Payload: payload, Leader: 3}
	b.Sig = suite.Signer(3).Sign(b.Hash())
	prop := &Proposal{Block: b}
	got, err := wire.Roundtrip(prop)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(*Proposal).Block
	if gb.Hash() != b.Hash() {
		t.Fatal("block hash changed across roundtrip")
	}
	if !gb.Justify.Verify(suite.Signer(0), 4, 3) {
		t.Fatal("justify QC broken after roundtrip")
	}
	if len(wire.Marshal(prop)) != prop.WireSize() {
		t.Fatalf("Proposal WireSize %d vs %d", prop.WireSize(), len(wire.Marshal(prop)))
	}

	v := &Vote{View: 3, Block: b.Hash(), Replica: 2, Sig: make([]byte, 64)}
	if got, err := wire.Roundtrip(v); err != nil || got.(*Vote).Replica != 2 {
		t.Fatalf("Vote roundtrip: %v", err)
	}
	if len(wire.Marshal(v)) != v.WireSize() {
		t.Fatal("Vote WireSize mismatch")
	}

	nv := &NewViewMsg{View: 9, HighQC: qc, Replica: 1}
	nv.Sig = suite.Signer(1).Sign(nv.signDigest())
	got2, err := wire.Roundtrip(nv)
	if err != nil {
		t.Fatal(err)
	}
	gn := got2.(*NewViewMsg)
	if gn.View != 9 || !suite.Signer(0).Verify(1, gn.signDigest(), gn.Sig) {
		t.Fatal("NewViewMsg roundtrip broken")
	}
	if len(wire.Marshal(nv)) != nv.WireSize() {
		t.Fatal("NewViewMsg WireSize mismatch")
	}
}

func TestHotStuffConfigValidation(t *testing.T) {
	suite := crypto.NewSimSuite(4, 21)
	app := &chainApp{}
	if _, err := New(Config{N: 0, App: app, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 4, Self: 9, App: app, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("Self out of range accepted")
	}
	if _, err := New(Config{N: 4, Self: 0, Signer: suite.Signer(0)}); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := New(Config{N: 4, Self: 0, App: app}); err == nil {
		t.Fatal("nil signer accepted")
	}
}

func TestHotStuffEvidenceCodecs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 21)
	mk := func(tag byte) *Block {
		b := &Block{Height: 1, View: 3, Justify: GenesisQC(),
			Payload: &payloadMsg{Height: 1, Parent: uint64(tag)}, Leader: 3}
		b.Sig = suite.Signer(3).Sign(b.Hash())
		return b
	}
	a, b := mk(0), mk(1)

	// Second-half-by-signature form: two leader-signed blocks, genesis QC.
	ev := &Evidence{View: 3, Leader: 3,
		BlockA: a.Hash(), SigA: a.Sig,
		BlockB: b.Hash(), SigB: b.Sig,
		Conflict: GenesisQC(),
	}
	got, err := wire.Roundtrip(ev)
	if err != nil {
		t.Fatal(err)
	}
	g := got.(*Evidence)
	if g.View != 3 || g.BlockA != a.Hash() || g.BlockB != b.Hash() || !g.Conflict.IsGenesis() {
		t.Fatalf("evidence fields changed across roundtrip: %+v", g)
	}
	if !suite.Signer(0).Verify(3, g.BlockA, g.SigA) || !suite.Signer(0).Verify(3, g.BlockB, g.SigB) {
		t.Fatal("evidence signatures broken after roundtrip")
	}
	if len(wire.Marshal(ev)) != ev.WireSize() {
		t.Fatalf("Evidence WireSize %d vs %d", ev.WireSize(), len(wire.Marshal(ev)))
	}

	// Conflict-QC form: one leader-signed block plus a quorum certificate
	// for a different block of the same view.
	other := crypto.HashBytes([]byte("certified elsewhere"))
	qc := &QC{View: 3, Block: other}
	for i := 0; i < 3; i++ {
		qc.Signers = append(qc.Signers, wire.NodeID(i))
		qc.Sigs = append(qc.Sigs, suite.Signer(i).Sign(voteDigest(qc.View, qc.Block)))
	}
	ev2 := &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig, Conflict: qc}
	got2, err := wire.Roundtrip(ev2)
	if err != nil {
		t.Fatal(err)
	}
	g2 := got2.(*Evidence)
	if len(g2.SigB) != 0 || !g2.Conflict.Verify(suite.Signer(0), 4, 3) {
		t.Fatal("conflict QC broken after roundtrip")
	}
	if len(wire.Marshal(ev2)) != ev2.WireSize() {
		t.Fatalf("Evidence WireSize %d vs %d", ev2.WireSize(), len(wire.Marshal(ev2)))
	}
}

func TestHotStuffEvidenceMustVerifyBothHalves(t *testing.T) {
	registerPayload()
	RegisterMessages()
	suite := crypto.NewSimSuite(4, 17)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond), Seed: 2})
	e, err := New(Config{N: 4, Self: 1, App: &chainApp{}, Signer: suite.Signer(1),
		ViewTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(1, e)
	net.Start()

	mk := func(view uint64, tag byte) *Block {
		b := &Block{Height: 1, View: view, Justify: GenesisQC(),
			Payload: &payloadMsg{Height: 1, Parent: uint64(tag)}, Leader: wire.NodeID(view % 4)}
		b.Sig = suite.Signer(int(b.Leader)).Sign(b.Hash())
		return b
	}
	a, b := mk(3, 0), mk(3, 1)

	// Forged second signature.
	forged := &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig,
		BlockB: b.Hash(), SigB: suite.Signer(2).Sign(b.Hash()), Conflict: GenesisQC()}
	e.onEvidence(2, forged)
	// Identical halves are not a conflict.
	same := &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig,
		BlockB: a.Hash(), SigB: a.Sig, Conflict: GenesisQC()}
	e.onEvidence(2, same)
	// Leader field must match the view's actual leader.
	wrongLeader := &Evidence{View: 3, Leader: 2, BlockA: a.Hash(), SigA: a.Sig,
		BlockB: b.Hash(), SigB: b.Sig, Conflict: GenesisQC()}
	e.onEvidence(2, wrongLeader)
	// No second half at all.
	half := &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig, Conflict: GenesisQC()}
	e.onEvidence(2, half)
	// Conflict-QC form with the wrong view, the same block, or too few
	// shares: all rejected.
	other := crypto.HashBytes([]byte("other"))
	badViewQC := &QC{View: 4, Block: other}
	sameBlockQC := &QC{View: 3, Block: a.Hash()}
	thinQC := &QC{View: 3, Block: other}
	for i := 0; i < 3; i++ {
		badViewQC.Signers = append(badViewQC.Signers, wire.NodeID(i))
		badViewQC.Sigs = append(badViewQC.Sigs, suite.Signer(i).Sign(voteDigest(4, other)))
		sameBlockQC.Signers = append(sameBlockQC.Signers, wire.NodeID(i))
		sameBlockQC.Sigs = append(sameBlockQC.Sigs, suite.Signer(i).Sign(voteDigest(3, a.Hash())))
	}
	thinQC.Signers = []wire.NodeID{0}
	thinQC.Sigs = [][]byte{suite.Signer(0).Sign(voteDigest(3, other))}
	for _, qc := range []*QC{badViewQC, sameBlockQC, thinQC} {
		e.onEvidence(2, &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig, Conflict: qc})
	}
	if e.Equivocations() != 0 {
		t.Fatalf("bogus evidence accepted: %d", e.Equivocations())
	}
	if e.View() != 1 {
		t.Fatalf("bogus evidence moved the view to %d", e.View())
	}

	// Authentic two-signature evidence: counted once, and the view jumps
	// past the equivocated one (hotstuff's evidence path advances the view
	// directly, like a pacemaker timeout).
	real := &Evidence{View: 3, Leader: 3, BlockA: a.Hash(), SigA: a.Sig,
		BlockB: b.Hash(), SigB: b.Sig, Conflict: GenesisQC()}
	e.onEvidence(2, real)
	if e.Equivocations() != 1 {
		t.Fatalf("authentic evidence not counted: %d", e.Equivocations())
	}
	if e.View() != 4 {
		t.Fatalf("view = %d after evidence for view 3, want 4", e.View())
	}
	e.onEvidence(0, real) // replay must not double-count
	if e.Equivocations() != 1 {
		t.Fatal("replayed evidence double-counted")
	}

	// Authentic conflict-QC evidence for a later view counts too.
	a7 := mk(7, 0)
	qc7 := &QC{View: 7, Block: other}
	for i := 0; i < 3; i++ {
		qc7.Signers = append(qc7.Signers, wire.NodeID(i))
		qc7.Sigs = append(qc7.Sigs, suite.Signer(i).Sign(voteDigest(7, other)))
	}
	e.onEvidence(2, &Evidence{View: 7, Leader: 3, BlockA: a7.Hash(), SigA: a7.Sig, Conflict: qc7})
	if e.Equivocations() != 2 {
		t.Fatalf("conflict-QC evidence not counted: %d", e.Equivocations())
	}
	if e.View() != 8 {
		t.Fatalf("view = %d after evidence for view 7, want 8", e.View())
	}
}

func TestHotStuffEquivocatingLeaderDetectedAndOutrun(t *testing.T) {
	// The leader of view 1 shows node 2 a forked block (different parent
	// link, valid signature) while everyone else sees the real one. Node 2
	// refuses to vote for the fork, but as the collector of view-1 votes it
	// assembles a QC for the real block, catches the conflict with the
	// signed fork it was shown, and broadcasts evidence that every replica
	// verifies. n = 7 for the same liveness reason as the crashed-leader
	// test: the victim cannot extend a chain whose root it never received,
	// so commits must flow through windows that avoid it.
	r := newHSRig(t, 7, 10)
	for _, a := range r.apps {
		a.wantWork = true
	}
	suite := crypto.NewSimSuite(7, 13) // same seed as the rig
	faults.Install(r.net, faults.Schedule{Seed: 3, Actions: []faults.Action{
		faults.EquivocateLeader{Node: 1, Signer: suite.Signer(1),
			Victims: []wire.NodeID{2}, From: 0, To: 2 * time.Second},
	}})
	r.net.Start()
	r.net.Run(15 * time.Second)

	detected := 0
	for _, e := range r.engines {
		if e.Equivocations() > 0 {
			detected++
		}
	}
	if detected < 5 {
		t.Fatalf("only %d/7 replicas proved the equivocation", detected)
	}
	// The honest majority must keep committing in spite of the attack.
	for i, app := range r.apps {
		if i == 2 {
			continue // the victim's chain root never arrived; consensus catch-up is out of scope
		}
		if len(app.commits) == 0 {
			t.Fatalf("node %d committed nothing", i)
		}
	}
}

// TestTimerRearmAllocs: the pacemaker re-arms with a callback bound once,
// so a re-arm allocates nothing.
func TestTimerRearmAllocs(t *testing.T) {
	r := newHSRig(t, 4, 0)
	r.net.Start()
	e := r.engines[1]
	e.ctx = &idleCtx{e.ctx}
	if a := testing.AllocsPerRun(100, e.armPacemaker); a != 0 {
		t.Errorf("re-arming the pacemaker allocates %.1f, want 0", a)
	}
}

// idleCtx wraps a node's context with timers that never fire, so a test
// counts a re-arm's own allocations, not the runtime's.
type idleCtx struct{ env.Context }

func (*idleCtx) After(time.Duration, func()) env.Timer { return nil }

// TestIdleGroupGoesQuiet: once the applications have nothing left to
// propose and report no pending work, the replicas schedule nothing more —
// a proposal waits for a Poke, a vote or a QC — so the event queue drains.
func TestIdleGroupGoesQuiet(t *testing.T) {
	r := newHSRig(t, 4, 20)
	r.net.Start()
	r.net.Run(10 * time.Second)
	for i, a := range r.apps {
		if a.produced != a.max || len(a.commits) == 0 {
			t.Fatalf("replica %d produced %d of %d blocks and committed %d", i, a.produced, a.max, len(a.commits))
		}
	}
	const bound = 10000
	n := r.net.RunUntilIdle(bound)
	if n >= bound {
		t.Fatalf("an idle group ran %d more events without draining", n)
	}
	t.Logf("drained in %d events", n)
}

// TestOnePacemakerPending: a commit pokes the engine from inside OnCommit,
// as Predis does, and the poke and the commit both start the view timer;
// the second must replace the first, so at most one pacemaker is pending
// per replica.
func TestOnePacemakerPending(t *testing.T) {
	r := newHSRig(t, 4, 20)
	for _, a := range r.apps {
		a.wantWork = true
	}
	r.net.Start()
	counters := make([]*liveTimers, len(r.engines))
	for i, e := range r.engines {
		counters[i] = &liveTimers{Context: e.ctx, min: e.cfg.ViewTimeout}
		e.ctx = counters[i]
	}
	r.net.Run(10 * time.Second)
	for i, c := range counters {
		if len(r.apps[i].commits) == 0 {
			t.Fatalf("replica %d committed nothing", i)
		}
		if c.max > 1 {
			t.Errorf("replica %d had %d pacemaker timers pending at once, want at most 1", i, c.max)
		}
		t.Logf("replica %d: %d commits, at most %d pacemaker pending", i, len(r.apps[i].commits), c.max)
	}
}

// TestViewTimerCapped: with two of four replicas crashed no QC forms,
// so the live replicas' pacemakers time out again and again; their
// backoff must stop growing at 16 × ViewTimeout.
func TestViewTimerCapped(t *testing.T) {
	r := newHSRig(t, 4, 10)
	r.net.Crash(2)
	r.net.Crash(3)
	r.net.Start()
	counters := make([]*liveTimers, 2)
	for i := range counters {
		r.apps[i].wantWork = true
		e := r.engines[i]
		counters[i] = &liveTimers{Context: e.ctx, min: e.cfg.ViewTimeout}
		e.ctx = counters[i]
		e.Poke()
	}
	r.net.Run(20 * time.Second)
	for i, c := range counters {
		e := r.engines[i]
		_, timeouts := e.Stats()
		if limit := 16 * e.cfg.ViewTimeout; c.longest > limit {
			t.Errorf("replica %d armed a %v view timer, want at most %v", i, c.longest, limit)
		}
		if timeouts < 6 {
			t.Errorf("replica %d timed out %d times, want at least 6", i, timeouts)
		}
		t.Logf("replica %d: %d timeouts, longest view timer %v", i, timeouts, c.longest)
	}
}

// liveTimers wraps a node's context and counts its pending timers of at
// least min — a fired or stopped timer leaves the count — and records
// the longest of them.
type liveTimers struct {
	env.Context
	min       time.Duration
	live, max int
	longest   time.Duration
}

func (c *liveTimers) After(d time.Duration, fn func()) env.Timer {
	if d < c.min {
		return c.Context.After(d, fn)
	}
	c.live++
	c.max = max(c.max, c.live)
	c.longest = max(c.longest, d)
	lt := &liveTimer{c: c}
	lt.t = c.Context.After(d, func() {
		lt.leave()
		fn()
	})
	return lt
}

type liveTimer struct {
	c    *liveTimers
	t    env.Timer
	gone bool
}

func (t *liveTimer) leave() {
	if !t.gone {
		t.gone = true
		t.c.live--
	}
}

func (t *liveTimer) Stop() bool {
	if !t.t.Stop() {
		return false
	}
	t.leave()
	return true
}
