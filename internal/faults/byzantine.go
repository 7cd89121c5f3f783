// Byzantine actions: scripted *malice* rather than unavailability.
//
// The actions in this file corrupt message content (CorruptStripe,
// BogusProof, GarbageWire), suppress it selectively (WithholdStripes), or
// forge it (EquivocateLeader) — the §IV-B adversary of the paper, where a
// malicious full node serves consensus correctly but sabotages the data
// plane it relays for. They compose with the availability windows in
// faults.go: all draws come from the injector's seeded rng on the
// simulator goroutine, so a schedule replays bit-identically, and a
// schedule with no Byzantine action installs no mutator at all, leaving
// the network byte-identical to a pre-Byzantine build.
//
// The injector deliberately does not import the protocol packages it
// attacks (multizone's tests import faults, so faults importing multizone
// would be a cycle). Instead it recognises victims structurally:
// stripe messages implement StripeTamperer and leader proposals implement
// Equivocator, and the injector asserts those interfaces at mutation time.
package faults

import (
	"fmt"
	"sync"
	"time"

	"predis/internal/crypto"
	"predis/internal/wire"
)

// StripeTamperer is implemented by data-plane stripe messages
// (multizone.StripeMsg). The injector identifies stripes by this
// interface instead of by type tag so it needs no dependency on the
// package that defines them.
type StripeTamperer interface {
	wire.Message
	// TamperShard returns a corrupted copy of the stripe with one shard
	// (payload) byte flipped, chosen by i mod the shard length. The copy
	// still decodes; its Merkle proof no longer verifies.
	TamperShard(i int) wire.Message
	// TamperProof returns a copy whose Merkle proof is replaced by
	// valid-length garbage derived deterministically from seed.
	TamperProof(seed uint64) wire.Message
}

// Equivocator is implemented by leader proposal messages (pbft.PrePrepare,
// hotstuff.Proposal). Equivocate returns a conflicting proposal for the
// same slot, correctly signed as the original leader by signer.
type Equivocator interface {
	wire.Message
	Equivocate(signer crypto.Signer) wire.Message
}

// mutWindow is one windowed per-recipient message mutator.
type mutWindow struct {
	active bool
	fn     func(from, to wire.NodeID, m wire.Message) wire.Message
}

// withholdWindow silently drops stripe fan-out from one node to a victim
// set while letting every control message through.
type withholdWindow struct {
	from    wire.NodeID
	victims map[wire.NodeID]bool // nil = all receivers
	active  bool
}

// mutate composes all active mutator windows in schedule order. It is
// installed as the network's mutator only when the schedule contains at
// least one Byzantine action.
//
//predis:hotpath
func (inj *Injector) mutate(from, to wire.NodeID, m wire.Message) wire.Message {
	if inj.activeMutants == 0 {
		return m
	}
	for _, w := range inj.mutants {
		if !w.active {
			continue
		}
		if out := w.fn(from, to, m); out != nil {
			m = out
		}
	}
	return m
}

// window schedules the activation edges of a Byzantine window and records
// them in the trace. counter is the injector's active-window tally for the
// window's class (mutants or withholds), kept so the per-Send filters can
// skip scanning when nothing is open.
func (inj *Injector) window(from, to time.Duration, on, off string, flag *bool, counter *int) {
	inj.net.At(from, func() {
		*flag = true
		*counter++
		inj.record(from, on)
	})
	inj.net.At(to, func() {
		*flag = false
		*counter--
		inj.record(to, off)
	})
}

// CorruptStripe makes Node a stripe-corrupting relayer during [From, To):
// every stripe it sends reaches its receivers with one payload byte
// flipped, so the per-stripe Merkle proof fails verification. Receivers
// must reject the stripe, refetch from an alternate source, and
// eventually quarantine the offender.
type CorruptStripe struct {
	Node     wire.NodeID
	From, To time.Duration
}

func (c CorruptStripe) compile(inj *Injector) {
	w := &mutWindow{fn: func(from, to wire.NodeID, m wire.Message) wire.Message {
		if from != c.Node {
			return nil
		}
		st, ok := m.(StripeTamperer)
		if !ok {
			return nil
		}
		return st.TamperShard(int(inj.rng.Int31()))
	}}
	inj.mutants = append(inj.mutants, w)
	inj.window(c.From, c.To,
		fmt.Sprintf("node %d corrupts stripe payloads", c.Node),
		fmt.Sprintf("node %d stops corrupting stripes", c.Node),
		&w.active, &inj.activeMutants)
}

// BogusProof makes Node serve stripes whose payload is intact but whose
// Merkle proof is valid-length garbage during [From, To). Receivers that
// verify proofs reject these exactly like corrupted payloads; receivers
// that skip verification would accept and propagate junk.
type BogusProof struct {
	Node     wire.NodeID
	From, To time.Duration
}

func (b BogusProof) compile(inj *Injector) {
	w := &mutWindow{fn: func(from, to wire.NodeID, m wire.Message) wire.Message {
		if from != b.Node {
			return nil
		}
		st, ok := m.(StripeTamperer)
		if !ok {
			return nil
		}
		return st.TamperProof(inj.rng.Uint64())
	}}
	inj.mutants = append(inj.mutants, w)
	inj.window(b.From, b.To,
		fmt.Sprintf("node %d serves bogus proofs", b.Node),
		fmt.Sprintf("node %d stops serving bogus proofs", b.Node),
		&w.active, &inj.activeMutants)
}

// WithholdStripes makes Node keep its control plane alive (heartbeats,
// consensus votes, subscriptions all flow) while silently dropping stripe
// fan-out to Victims during [From, To). Empty Victims withholds from
// everyone. This is the hardest §IV-B behaviour to detect: the offender
// looks healthy on every liveness signal.
type WithholdStripes struct {
	Node     wire.NodeID
	Victims  []wire.NodeID
	From, To time.Duration
}

func (s WithholdStripes) compile(inj *Injector) {
	var victims map[wire.NodeID]bool
	if len(s.Victims) > 0 {
		victims = idSet(s.Victims)
	}
	w := &withholdWindow{from: s.Node, victims: victims}
	inj.withholds = append(inj.withholds, w)
	inj.window(s.From, s.To,
		fmt.Sprintf("node %d withholds stripes from %s", s.Node, victimLabel(s.Victims)),
		fmt.Sprintf("node %d resumes stripe fan-out", s.Node),
		&w.active, &inj.activeWithholds)
}

func victimLabel(victims []wire.NodeID) string {
	if len(victims) == 0 {
		return "all subscribers"
	}
	return fmt.Sprintf("%v", fmtIDs(victims))
}

// EquivocateLeader makes Node a two-faced consensus leader during
// [From, To): Victims receive a conflicting, correctly-signed variant of
// every proposal Node sends while everyone else receives the original.
// Signer must sign as Node — simulation signer suites can mint a signer
// for any index, which is exactly the capability a key-compromised
// Byzantine leader has.
type EquivocateLeader struct {
	Node     wire.NodeID
	Signer   crypto.Signer
	Victims  []wire.NodeID
	From, To time.Duration
}

func (e EquivocateLeader) compile(inj *Injector) {
	victims := idSet(e.Victims)
	w := &mutWindow{fn: func(from, to wire.NodeID, m wire.Message) wire.Message {
		if from != e.Node || !victims[to] {
			return nil
		}
		eq, ok := m.(Equivocator)
		if !ok {
			return nil
		}
		return eq.Equivocate(e.Signer)
	}}
	inj.mutants = append(inj.mutants, w)
	inj.window(e.From, e.To,
		fmt.Sprintf("node %d equivocates to %v", e.Node, fmtIDs(e.Victims)),
		fmt.Sprintf("node %d stops equivocating", e.Node),
		&w.active, &inj.activeMutants)
}

// GarbageWire makes every frame Node sends undecodable during [From, To):
// receivers get a Garbage message of the same wire size whose body fails
// to decode. A hardened stack counts these as drops at the codec and
// never hands them to a handler.
type GarbageWire struct {
	Node     wire.NodeID
	From, To time.Duration
}

func (g GarbageWire) compile(inj *Injector) {
	RegisterMessages()
	w := &mutWindow{fn: func(from, to wire.NodeID, m wire.Message) wire.Message {
		if from != g.Node {
			return nil
		}
		n := m.WireSize() - wire.FrameOverhead - 4
		if n < 0 {
			n = 0
		}
		return &Garbage{Len: uint32(n)}
	}}
	inj.mutants = append(inj.mutants, w)
	inj.window(g.From, g.To,
		fmt.Sprintf("node %d emits garbage frames", g.Node),
		fmt.Sprintf("node %d emits valid frames again", g.Node),
		&w.active, &inj.activeMutants)
}

// TypeGarbage tags the injector's undecodable frame.
const TypeGarbage = wire.TypeRangeFaults + 1

// Garbage is a deliberately undecodable frame: its body declares one more
// payload byte than it carries, so decoding always fails with a truncation
// error. Len is the payload size, chosen so the frame occupies the same
// wire bytes as the message it replaced (bandwidth and latency charges are
// unchanged; only decodability is destroyed).
type Garbage struct {
	Len uint32
}

// Type implements wire.Message.
func (g *Garbage) Type() wire.Type { return TypeGarbage }

// WireSize implements wire.Message.
func (g *Garbage) WireSize() int { return wire.FrameOverhead + 4 + int(g.Len) }

// EncodeBody implements wire.Message: the length prefix overstates the
// bytes that follow by one, which is what makes the frame undecodable.
func (g *Garbage) EncodeBody(e *wire.Encoder) {
	e.U32(g.Len + 1)
	e.Raw(garbageFill(int(g.Len)))
}

// Defective implements wire.Defective: zero-copy delivery paths that skip
// the codec must treat this frame as a decode failure.
func (g *Garbage) Defective() bool { return true }

func decodeGarbage(d *wire.Decoder) (wire.Message, error) {
	// The declared length always exceeds the remaining body, so VarBytes
	// poisons the decoder and Unmarshal reports truncation.
	return &Garbage{Len: uint32(len(d.VarBytes()))}, nil
}

func garbageFill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xa5
	}
	return b
}

var registerOnce sync.Once

// RegisterMessages registers the injector's wire messages. Idempotent.
func RegisterMessages() {
	registerOnce.Do(func() {
		wire.Register(TypeGarbage, "faults.Garbage", decodeGarbage)
	})
}
