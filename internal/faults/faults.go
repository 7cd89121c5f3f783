// Package faults turns failure into a first-class, scriptable input to
// every simnet experiment (ISSUE 1 tentpole 1).
//
// A Schedule is a declarative list of fault actions pinned to virtual
// time: crash/restart a node at t, partition two groups for a window,
// drop a fraction of one link's traffic for a window, make a node
// silent (receives but never sends) or slow (sheds a fraction of its
// outbound) for a window. Install compiles the schedule onto a
// simnet.Network: every action becomes a deterministic event on the
// simulator's own heap, and all concurrently-active windows are composed
// through a single partition filter and a single drop filter, so a
// schedule can overlap arbitrarily many faults without the single
// SetPartition/SetDropFilter slots clobbering each other.
//
// Determinism: given the same Schedule (including Seed) and the same
// experiment seed, two runs produce bit-identical event traces — the
// injector draws its probabilistic decisions (loss, slow-node shedding)
// from its own rand.Rand seeded by Schedule.Seed, and consults it only
// from the simulator goroutine in event order.
//
// The injector owns the network's partition and drop-filter slots while
// installed; experiments that need additional ad-hoc filters should
// express them as schedule windows instead.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"predis/internal/simnet"
	"predis/internal/wire"
)

// Action is one scripted fault. Implementations are the exported structs
// below; they compile themselves onto the injector at Install time.
type Action interface {
	compile(inj *Injector)
}

// Crash fail-stops Node at time At (virtual, relative to the epoch).
type Crash struct {
	Node wire.NodeID
	At   time.Duration
}

// Restart brings Node back up at time At. If the node's handler
// implements env.Restartable its OnRestart hook runs, re-arming timers
// and kicking off catch-up (see simnet.Network.Restart).
type Restart struct {
	Node wire.NodeID
	At   time.Duration
}

// CrashWindow is sugar for Crash{Node, From} + Restart{Node, To}.
type CrashWindow struct {
	Node     wire.NodeID
	From, To time.Duration
}

// PartitionWindow severs all links between group A and group B (both
// directions) during [From, To). Nodes absent from both groups are
// unaffected. Multiple overlapping windows compose: a link is cut while
// any active window cuts it.
type PartitionWindow struct {
	A, B     []wire.NodeID
	From, To time.Duration
}

// LossWindow drops each message on the directed link From→To with
// probability Prob during [Start, End). Use wire.NoNode as a wildcard
// for either endpoint ("any sender" / "any receiver").
type LossWindow struct {
	From, To   wire.NodeID
	Prob       float64
	Start, End time.Duration
}

// Silent makes Node a silent participant during [From, To): it keeps
// receiving but every message it sends is dropped. This is the paper's
// silent-relayer / omission behaviour (§IV-B) as a window rather than a
// hand-wired drop filter.
type Silent struct {
	Node     wire.NodeID
	From, To time.Duration
}

// Slow models a struggling node during [From, To): each of its outbound
// messages is independently dropped with probability DropProb, which in
// a retry-driven protocol manifests as that node serving at a fraction
// of its rate.
type Slow struct {
	Node     wire.NodeID
	From, To time.Duration
	DropProb float64
}

// Schedule is a full fault script.
type Schedule struct {
	// Seed drives every probabilistic draw the injector makes (loss and
	// slow-node shedding). Two installs with equal Seed and Actions
	// behave identically.
	Seed    int64
	Actions []Action
}

// TraceEvent records one applied fault transition.
type TraceEvent struct {
	At   time.Duration
	Desc string
}

// Injector is a compiled schedule bound to a network.
type Injector struct {
	net *simnet.Network
	rng *rand.Rand

	parts     []*partWindow
	losses    []*lossWindow
	mutants   []*mutWindow
	withholds []*withholdWindow
	trace     []TraceEvent

	// Active-window counters let the per-Send filters return immediately
	// when no window of that class is open — the overwhelmingly common
	// case at 10⁴⁺-node scale, where the filters run once per Send. The
	// early exits are draw-identical to scanning: inactive windows never
	// consult the rng.
	activeParts     int
	activeLosses    int
	activeMutants   int
	activeWithholds int
}

type partWindow struct {
	a, b   map[wire.NodeID]bool
	active bool
}

type lossWindow struct {
	from, to wire.NodeID // wire.NoNode = wildcard
	prob     float64
	active   bool
}

// Install compiles the schedule onto net and returns the injector. It
// installs the composite partition and drop filters immediately (they
// pass everything until a window activates) and schedules every action
// on the network's event heap.
func Install(net *simnet.Network, s Schedule) *Injector {
	inj := &Injector{
		net: net,
		rng: rand.New(rand.NewSource(s.Seed ^ 0x7a617465)),
	}
	for _, a := range s.Actions {
		a.compile(inj)
	}
	net.SetPartition(inj.partitioned)
	net.SetDropFilter(inj.drop)
	if len(inj.mutants) > 0 {
		// Only Byzantine schedules install a mutator: a benign schedule
		// leaves the delivery path byte-identical to a build without one.
		net.SetMutator(inj.mutate)
	}
	return inj
}

// Trace returns the applied fault transitions so far, in order. Two runs
// of the same schedule and experiment seed yield identical traces.
func (inj *Injector) Trace() []TraceEvent { return inj.trace }

// TraceString renders the trace one event per line ("t=... desc").
func (inj *Injector) TraceString() string {
	var b strings.Builder
	for _, ev := range inj.trace {
		fmt.Fprintf(&b, "t=%-8s %s\n", ev.At, ev.Desc)
	}
	return b.String()
}

func (inj *Injector) record(at time.Duration, desc string) {
	inj.trace = append(inj.trace, TraceEvent{At: at, Desc: desc})
}

// partitioned implements the composite partition filter.
//
//predis:hotpath
func (inj *Injector) partitioned(from, to wire.NodeID) bool {
	if inj.activeParts == 0 {
		return false
	}
	for _, w := range inj.parts {
		if !w.active {
			continue
		}
		if (w.a[from] && w.b[to]) || (w.b[from] && w.a[to]) {
			return true
		}
	}
	return false
}

// drop implements the composite message-level drop filter.
//
//predis:hotpath
func (inj *Injector) drop(from, to wire.NodeID, m wire.Message) bool {
	if inj.activeLosses > 0 {
		for _, w := range inj.losses {
			if !w.active {
				continue
			}
			if w.from != wire.NoNode && w.from != from {
				continue
			}
			if w.to != wire.NoNode && w.to != to {
				continue
			}
			if w.prob >= 1 || inj.rng.Float64() < w.prob {
				return true
			}
		}
	}
	if inj.activeWithholds > 0 {
		for _, w := range inj.withholds {
			if !w.active || w.from != from {
				continue
			}
			if w.victims != nil && !w.victims[to] {
				continue
			}
			if slices.Contains(w.types, m.Type()) {
				return true
			}
		}
	}
	return false
}

// --- Action implementations ---

func (c Crash) compile(inj *Injector) {
	inj.net.At(c.At, func() {
		inj.net.Crash(c.Node)
		inj.record(c.At, fmt.Sprintf("crash node %d", c.Node))
	})
}

func (r Restart) compile(inj *Injector) {
	inj.net.At(r.At, func() {
		inj.net.Restart(r.Node)
		inj.record(r.At, fmt.Sprintf("restart node %d", r.Node))
	})
}

func (w CrashWindow) compile(inj *Injector) {
	Crash{Node: w.Node, At: w.From}.compile(inj)
	Restart{Node: w.Node, At: w.To}.compile(inj)
}

func (w PartitionWindow) compile(inj *Injector) {
	pw := &partWindow{a: idSet(w.A), b: idSet(w.B)}
	inj.parts = append(inj.parts, pw)
	inj.net.At(w.From, func() {
		pw.active = true
		inj.activeParts++
		inj.record(w.From, fmt.Sprintf("partition %v | %v", fmtIDs(w.A), fmtIDs(w.B)))
	})
	inj.net.At(w.To, func() {
		pw.active = false
		inj.activeParts--
		inj.record(w.To, fmt.Sprintf("heal partition %v | %v", fmtIDs(w.A), fmtIDs(w.B)))
	})
}

func (w LossWindow) compile(inj *Injector) {
	lw := &lossWindow{from: w.From, to: w.To, prob: w.Prob}
	inj.losses = append(inj.losses, lw)
	inj.net.At(w.Start, func() {
		lw.active = true
		inj.activeLosses++
		inj.record(w.Start, fmt.Sprintf("loss %.0f%% on %s", w.Prob*100, fmtLink(w.From, w.To)))
	})
	inj.net.At(w.End, func() {
		lw.active = false
		inj.activeLosses--
		inj.record(w.End, fmt.Sprintf("loss cleared on %s", fmtLink(w.From, w.To)))
	})
}

func (s Silent) compile(inj *Injector) {
	lw := &lossWindow{from: s.Node, to: wire.NoNode, prob: 1}
	inj.losses = append(inj.losses, lw)
	inj.net.At(s.From, func() {
		lw.active = true
		inj.activeLosses++
		inj.record(s.From, fmt.Sprintf("node %d goes silent", s.Node))
	})
	inj.net.At(s.To, func() {
		lw.active = false
		inj.activeLosses--
		inj.record(s.To, fmt.Sprintf("node %d speaks again", s.Node))
	})
}

func (s Slow) compile(inj *Injector) {
	lw := &lossWindow{from: s.Node, to: wire.NoNode, prob: s.DropProb}
	inj.losses = append(inj.losses, lw)
	inj.net.At(s.From, func() {
		lw.active = true
		inj.activeLosses++
		inj.record(s.From, fmt.Sprintf("node %d slow (drops %.0f%%)", s.Node, s.DropProb*100))
	})
	inj.net.At(s.To, func() {
		lw.active = false
		inj.activeLosses--
		inj.record(s.To, fmt.Sprintf("node %d back to full speed", s.Node))
	})
}

func idSet(ids []wire.NodeID) map[wire.NodeID]bool {
	m := make(map[wire.NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func fmtIDs(ids []wire.NodeID) []wire.NodeID {
	out := append([]wire.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fmtLink(from, to wire.NodeID) string {
	f, t := "*", "*"
	if from != wire.NoNode {
		f = fmt.Sprintf("%d", from)
	}
	if to != wire.NoNode {
		t = fmt.Sprintf("%d", to)
	}
	return f + "→" + t
}
