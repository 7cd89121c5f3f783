package faults

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// fakeStripe is a self-contained StripeTamperer so these tests need no
// dependency on the package that defines real stripes.
type fakeStripe struct {
	Idx   uint8
	Shard []byte
	Proof uint64
}

const fakeStripeType = wire.TypeRangeTest + 0x21

func (s *fakeStripe) Type() wire.Type { return fakeStripeType }
func (s *fakeStripe) WireSize() int   { return wire.FrameOverhead + 1 + 4 + len(s.Shard) + 8 }
func (s *fakeStripe) EncodeBody(e *wire.Encoder) {
	e.U8(s.Idx)
	e.VarBytes(s.Shard)
	e.U64(s.Proof)
}

func (s *fakeStripe) TamperShard(i int) wire.Message {
	cp := &fakeStripe{Idx: s.Idx, Proof: s.Proof, Shard: append([]byte(nil), s.Shard...)}
	if len(cp.Shard) > 0 {
		if i < 0 {
			i = -i
		}
		cp.Shard[i%len(cp.Shard)] ^= 0xff
	}
	return cp
}

func (s *fakeStripe) TamperProof(seed uint64) wire.Message {
	return &fakeStripe{Idx: s.Idx, Shard: s.Shard, Proof: seed}
}

var _ StripeTamperer = (*fakeStripe)(nil)

// fakeProposal is a self-contained Equivocator.
type fakeProposal struct {
	View   uint64
	Forked bool
	Sig    []byte
}

const fakeProposalType = wire.TypeRangeTest + 0x22

func (p *fakeProposal) Type() wire.Type { return fakeProposalType }
func (p *fakeProposal) WireSize() int {
	return wire.FrameOverhead + 8 + 1 + wire.SizeVarBytes(p.Sig)
}
func (p *fakeProposal) EncodeBody(e *wire.Encoder) {
	e.U64(p.View)
	e.Bool(p.Forked)
	e.VarBytes(p.Sig)
}

func (p *fakeProposal) Equivocate(signer crypto.Signer) wire.Message {
	fork := &fakeProposal{View: p.View, Forked: true}
	fork.Sig = signer.Sign(crypto.HashBytes([]byte{byte(p.View)}))
	return fork
}

var _ Equivocator = (*fakeProposal)(nil)

func registerByzFakes() {
	registerTick()
	if !wire.Registered(fakeStripeType) {
		wire.Register(fakeStripeType, "faults-fake-stripe", func(d *wire.Decoder) (wire.Message, error) {
			return &fakeStripe{Idx: d.U8(), Shard: d.VarBytes(), Proof: d.U64()}, d.Err()
		})
		wire.Register(fakeProposalType, "faults-fake-proposal", func(d *wire.Decoder) (wire.Message, error) {
			return &fakeProposal{View: d.U64(), Forked: d.Bool(), Sig: d.VarBytes()}, d.Err()
		})
	}
}

// byzSender emits one stripe, one proposal, and one tick to each peer
// every 10ms.
type byzSender struct {
	ctx   env.Context
	peers []wire.NodeID
	seq   uint64
}

func (s *byzSender) Start(ctx env.Context) {
	s.ctx = ctx
	s.arm()
}

func (s *byzSender) arm() {
	s.ctx.After(10*time.Millisecond, func() {
		s.seq++
		for _, p := range s.peers {
			s.ctx.Send(p, &fakeStripe{Idx: 1, Shard: []byte{1, 2, 3, 4}, Proof: 7})
			s.ctx.Send(p, &fakeProposal{View: s.seq})
			s.ctx.Send(p, &tick{Seq: s.seq})
		}
		s.arm()
	})
}

func (s *byzSender) Receive(wire.NodeID, wire.Message) {}

// byzSink records what arrives and when.
type byzSink struct {
	ctx     env.Context
	stripes []*fakeStripe
	props   []*fakeProposal
	ticks   int
	at      []time.Duration
}

func (k *byzSink) Start(ctx env.Context) { k.ctx = ctx }

func (k *byzSink) Receive(from wire.NodeID, m wire.Message) {
	switch msg := m.(type) {
	case *fakeStripe:
		k.stripes = append(k.stripes, msg)
		k.at = append(k.at, k.ctx.Now().Sub(simnet.Epoch))
	case *fakeProposal:
		k.props = append(k.props, msg)
	case *tick:
		k.ticks++
	}
}

func buildByzNet(seed int64, sinks int) (*simnet.Network, *byzSender, []*byzSink) {
	registerByzFakes()
	n := simnet.New(simnet.Config{Seed: seed, Latency: simnet.UniformLatency(time.Millisecond)})
	var peers []wire.NodeID
	outs := make([]*byzSink, sinks)
	for i := 0; i < sinks; i++ {
		peers = append(peers, wire.NodeID(i+1))
	}
	s := &byzSender{peers: peers}
	n.AddNode(0, s)
	for i := range outs {
		outs[i] = &byzSink{}
		n.AddNode(wire.NodeID(i+1), outs[i])
	}
	return n, s, outs
}

func TestCorruptStripeWindowFlipsShardBytes(t *testing.T) {
	n, _, sinks := buildByzNet(7, 1)
	Install(n, Schedule{Seed: 7, Actions: []Action{
		CorruptStripe{Node: 0, From: 50 * time.Millisecond, To: 150 * time.Millisecond},
	}})
	n.Start()
	n.Run(300 * time.Millisecond)

	clean := []byte{1, 2, 3, 4}
	var inWindow, outWindow int
	for i, st := range sinks[0].stripes {
		at := sinks[0].at[i]
		if at > 51*time.Millisecond && at < 150*time.Millisecond {
			if bytes.Equal(st.Shard, clean) {
				t.Fatalf("stripe at t=%s survived the corruption window intact", at)
			}
			if len(st.Shard) != len(clean) {
				t.Fatalf("corruption changed shard length: %d", len(st.Shard))
			}
			inWindow++
		} else if at < 50*time.Millisecond || at > 151*time.Millisecond {
			if !bytes.Equal(st.Shard, clean) {
				t.Fatalf("stripe outside the window was corrupted at t=%s", at)
			}
			outWindow++
		}
	}
	if inWindow == 0 || outWindow == 0 {
		t.Fatalf("want stripes on both sides of the window (in=%d out=%d)", inWindow, outWindow)
	}
	// Control-plane traffic is untouched by a stripe corrupter.
	if sinks[0].ticks == 0 || len(sinks[0].props) == 0 {
		t.Fatal("non-stripe messages should flow normally")
	}
	for _, p := range sinks[0].props {
		if p.Forked {
			t.Fatal("CorruptStripe must not touch proposals")
		}
	}
}

func TestBogusProofWindowReplacesProofOnly(t *testing.T) {
	n, _, sinks := buildByzNet(8, 1)
	Install(n, Schedule{Seed: 8, Actions: []Action{
		BogusProof{Node: 0, From: 0, To: 300 * time.Millisecond},
	}})
	n.Start()
	n.Run(200 * time.Millisecond)

	if len(sinks[0].stripes) == 0 {
		t.Fatal("no stripes delivered")
	}
	for _, st := range sinks[0].stripes {
		if st.Proof == 7 {
			t.Fatal("stripe kept its honest proof inside a BogusProof window")
		}
		if !bytes.Equal(st.Shard, []byte{1, 2, 3, 4}) {
			t.Fatal("BogusProof must leave the shard intact")
		}
	}
}

func TestWithholdIsSelective(t *testing.T) {
	n, _, sinks := buildByzNet(9, 2)
	Install(n, Schedule{Seed: 9, Actions: []Action{
		Withhold{Node: 0, Types: []wire.Type{fakeStripeType}, Victims: []wire.NodeID{1},
			From: 0, To: 150 * time.Millisecond},
	}})
	n.Start()
	n.Run(300 * time.Millisecond)

	// The victim gets no stripes inside the window but full control-plane
	// traffic; the non-victim gets everything; fan-out resumes after.
	victim, other := sinks[0], sinks[1]
	var during, after int
	for _, at := range victim.at {
		if at < 150*time.Millisecond {
			during++
		} else {
			after++
		}
	}
	if during != 0 {
		t.Fatalf("victim received %d stripes inside the withhold window", during)
	}
	if after == 0 {
		t.Fatal("stripe fan-out to the victim never resumed")
	}
	if victim.ticks == 0 || len(victim.props) == 0 {
		t.Fatal("withholding must only drop stripes, not control traffic")
	}
	if len(other.stripes) == 0 {
		t.Fatal("non-victim lost stripes")
	}
}

// TestWithholdTypesFromEveryone: with no victims, every listed type is
// withheld from every recipient, and unlisted types still flow.
func TestWithholdTypesFromEveryone(t *testing.T) {
	n, _, sinks := buildByzNet(11, 2)
	Install(n, Schedule{Seed: 11, Actions: []Action{
		Withhold{Node: 0, Types: []wire.Type{fakeStripeType, fakeProposalType},
			From: 0, To: 300 * time.Millisecond},
	}})
	n.Start()
	n.Run(200 * time.Millisecond)
	for i, k := range sinks {
		if len(k.stripes) != 0 || len(k.props) != 0 {
			t.Fatalf("sink %d got %d stripes and %d proposals inside the window",
				i, len(k.stripes), len(k.props))
		}
		if k.ticks == 0 {
			t.Fatalf("sink %d lost the unlisted tick traffic", i)
		}
	}
}

func TestEquivocateLeaderForksOnlyForVictims(t *testing.T) {
	suite := crypto.NewSimSuite(3, 4)
	n, _, sinks := buildByzNet(10, 2)
	Install(n, Schedule{Seed: 10, Actions: []Action{
		EquivocateLeader{Node: 0, Signer: suite.Signer(0),
			Victims: []wire.NodeID{1}, From: 0, To: 300 * time.Millisecond},
	}})
	n.Start()
	n.Run(200 * time.Millisecond)

	victim, other := sinks[0], sinks[1]
	if len(victim.props) == 0 || len(other.props) == 0 {
		t.Fatal("proposals missing")
	}
	for _, p := range victim.props {
		if !p.Forked {
			t.Fatal("victim received an honest proposal inside the window")
		}
		if !suite.Signer(1).Verify(0, crypto.HashBytes([]byte{byte(p.View)}), p.Sig) {
			t.Fatal("forged proposal must carry a valid leader signature")
		}
	}
	for _, p := range other.props {
		if p.Forked {
			t.Fatal("non-victim received a forked proposal")
		}
	}
	// Stripes and ticks pass through an equivocation window untouched.
	if len(victim.stripes) == 0 || victim.ticks == 0 {
		t.Fatal("equivocation must not disturb other traffic")
	}
}

func TestGarbageWireDegradesToCountedDrops(t *testing.T) {
	n, _, sinks := buildByzNet(11, 1)
	Install(n, Schedule{Seed: 11, Actions: []Action{
		GarbageWire{Node: 0, From: 50 * time.Millisecond, To: 150 * time.Millisecond},
	}})
	n.Start()
	n.Run(300 * time.Millisecond)

	// Nothing node 0 sent inside the window is decodable, so nothing is
	// delivered — and nothing panics; the frames become Undecodable drops.
	for _, at := range sinks[0].at {
		if at > 51*time.Millisecond && at < 150*time.Millisecond {
			t.Fatalf("garbage frame delivered as a stripe at t=%s", at)
		}
	}
	d := n.Dropped()
	if d.Undecodable == 0 {
		t.Fatal("garbage frames were not counted as undecodable drops")
	}
	// Every send is delivered or counted in exactly one drop cause; the
	// final tick's burst (3 messages) may still be in flight at the horizon.
	if inflight := n.Sends() - n.Delivered() - d.Total(); inflight > 3 {
		t.Fatalf("accounting broke: sends=%d delivered=%d dropped=%d",
			n.Sends(), n.Delivered(), d.Total())
	}
	if len(sinks[0].stripes) == 0 || sinks[0].ticks == 0 {
		t.Fatal("traffic never resumed after the garbage window")
	}
}

func TestGarbageFrameNeverDecodes(t *testing.T) {
	RegisterMessages()
	for _, n := range []uint32{0, 1, 8, 1024} {
		g := &Garbage{Len: n}
		raw := wire.Marshal(g)
		if len(raw) != g.WireSize() {
			t.Fatalf("Len=%d: frame is %d bytes, WireSize says %d", n, len(raw), g.WireSize())
		}
		if _, err := wire.Roundtrip(g); err == nil {
			t.Fatalf("Len=%d: garbage frame decoded successfully", n)
		}
		if !g.Defective() {
			t.Fatal("Garbage must self-identify as defective")
		}
	}
}

func TestByzantineScheduleTraceDeterminism(t *testing.T) {
	suite := crypto.NewSimSuite(3, 4)
	run := func() (string, string) {
		n, _, sinks := buildByzNet(42, 2)
		inj := Install(n, Schedule{Seed: 42, Actions: []Action{
			CorruptStripe{Node: 0, From: 20 * time.Millisecond, To: 120 * time.Millisecond},
			BogusProof{Node: 0, From: 100 * time.Millisecond, To: 180 * time.Millisecond},
			Withhold{Node: 0, Types: []wire.Type{fakeStripeType}, Victims: []wire.NodeID{2},
				From: 60 * time.Millisecond, To: 200 * time.Millisecond},
			EquivocateLeader{Node: 0, Signer: suite.Signer(0),
				Victims: []wire.NodeID{1}, From: 0, To: 250 * time.Millisecond},
			GarbageWire{Node: 0, From: 220 * time.Millisecond, To: 260 * time.Millisecond},
		}})
		n.Start()
		n.Run(400 * time.Millisecond)
		var sum string
		for i, k := range sinks {
			sum += describeSink(i, k)
		}
		sum += describeDrops(n)
		return inj.TraceString(), sum
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("traces differ:\n%s\n--- vs ---\n%s", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("delivery state differs:\n%s\n--- vs ---\n%s", s1, s2)
	}
	if len(t1) == 0 {
		t.Fatal("empty trace")
	}
}

func describeSink(i int, k *byzSink) string {
	var forks int
	for _, p := range k.props {
		if p.Forked {
			forks++
		}
	}
	return fmt.Sprintf("sink %d: %d stripes, %d props (%d forked), %d ticks\n",
		i, len(k.stripes), len(k.props), forks, k.ticks)
}

func describeDrops(n *simnet.Network) string {
	d := n.Dropped()
	return fmt.Sprintf("drops: filtered=%d undecodable=%d\n", d.Filtered, d.Undecodable)
}
