package pbft

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// The paced rigs run 5 ms one-way links: a slot executes at its leader
// 15 ms after the pre-prepare (pre-prepare, prepare, commit).
const (
	pacePipeline = 4
	paceRound    = 15 * time.Millisecond
	paceGap      = paceRound / pacePipeline
)

// TestPaceSpacesProposals: with work always pending, once the window has
// cycled the leader's proposals are one gap apart — never a burst (closer
// than 0.9 gaps) and never a stall (further than 1.5).
func TestPaceSpacesProposals(t *testing.T) {
	r := newPipelinedRig(t, 4, 1<<30, pacePipeline)
	r.net.Start()
	r.net.Run(time.Second)
	gap, delayed, delay := r.engines[0].Pace()
	if gap != paceGap {
		t.Fatalf("pace gap = %v, want %v (propose→execute %v over %d slots)", gap, paceGap, paceRound, pacePipeline)
	}
	if delayed == 0 || delay <= 0 {
		t.Fatalf("Pace() reports %d proposals delayed by %v in total; want both > 0", delayed, delay)
	}
	built := r.apps[0].builtAt
	if len(built) < 200 {
		t.Fatalf("leader built %d proposals in 1 s, want one every %v", len(built), gap)
	}
	// The first window is ack-clocked (no estimate yet) and the second
	// drains its burst; judge from the third on.
	for i := 2*pacePipeline + 1; i < len(built); i++ {
		if d := built[i].Sub(built[i-1]); d < gap*9/10 || d > gap*3/2 {
			t.Fatalf("proposals %d and %d are %v apart, want within [0.9, 1.5] × %v", i-1, i, d, gap)
		}
	}
	if g, _, _ := r.engines[1].Pace(); g != 0 {
		t.Errorf("a replica that never led reports a pace gap of %v", g)
	}
}

// TestPaceIdleLeaderProposesAtOnce: pacing delays only a leader that has
// just proposed. One whose last proposal is a gap or more old proposes in
// the instant it is poked.
func TestPaceIdleLeaderProposesAtOnce(t *testing.T) {
	r := newPipelinedRig(t, 4, 20, pacePipeline)
	r.net.Start()
	r.net.Run(500 * time.Millisecond)
	app, e := r.apps[0], r.engines[0]
	if len(app.commits) != 20 {
		t.Fatalf("leader committed %d blocks, want 20", len(app.commits))
	}
	if gap, _, _ := e.Pace(); gap == 0 {
		t.Fatal("leader has no pace estimate after 20 slots")
	}
	app.max++ // one more unit of work arrives at an idle leader
	at := r.net.Now()
	e.Poke()
	if n := len(app.builtAt); n != 21 || !app.builtAt[n-1].Equal(at) {
		t.Fatalf("idle leader poked at %v has built %d proposals (last at %v), want the 21st at once",
			at, n, app.builtAt[n-1])
	}
}

// TestPaceRestartsAfterViewChange: a view change forgets the estimate, so
// a new leader — even one with a stale estimate from an earlier reign —
// proposes in the instant it assembles the new view, fills its first
// window unpaced, and then paces on fresh samples.
func TestPaceRestartsAfterViewChange(t *testing.T) {
	r := newPipelinedRig(t, 4, 60, pacePipeline)
	for _, app := range r.apps {
		app.wantWork = true
	}
	r.net.Start()
	r.net.Run(100 * time.Millisecond)
	if gap, _, _ := r.engines[0].Pace(); gap == 0 {
		t.Fatal("view-0 leader has no pace estimate")
	}
	// A stale estimate on the next leader: were it kept, its first
	// proposal would wait out a 250 ms gap.
	next := r.engines[1]
	next.paceLat = time.Second
	next.lastPropose = r.net.Now()
	r.net.Crash(0)
	until := 150 * time.Millisecond
	r.net.Run(until) // the survivors are a quorum: they commit what was in flight
	for i := 1; i < 4; i++ {
		r.engines[i].Poke() // pending work, silent leader: arm suspicion
	}
	const step = 100 * time.Microsecond
	for next.View() == 0 {
		if until += step; until > 5*time.Second {
			t.Fatal("no view change within 5 s of the leader crash")
		}
		r.net.Run(until)
	}
	adopted := r.net.Now()
	built := r.apps[1].builtAt
	if len(built) != pacePipeline {
		t.Fatalf("new leader built %d proposals on assembling view 1, want a full window of %d", len(built), pacePipeline)
	}
	if d := adopted.Sub(built[0]); d < 0 || d > step {
		t.Fatalf("new leader's first proposal at %v, view adopted by %v: delayed", built[0], adopted)
	}
	if gap, _, _ := next.Pace(); gap != 0 {
		t.Fatalf("pace gap %v right after the view change, want 0 until a slot of the new view executes", gap)
	}
	r.net.Run(until + time.Second)
	if gap, _, _ := next.Pace(); gap != paceGap {
		t.Fatalf("new leader's pace gap = %v, want %v from fresh samples", gap, paceGap)
	}
	if len(r.apps[1].commits) == 0 {
		t.Fatal("no commits in the new view")
	}
}

// TestPokeInsidePaceGapAllocs: in stream mode the app pokes the leader
// once per stored bundle, mostly inside a pace gap. The first such poke
// arms the one pace timer; every later one returns without touching the
// heap or the app.
func TestPokeInsidePaceGapAllocs(t *testing.T) {
	registerPayload()
	RegisterMessages()
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(5 * time.Millisecond), Seed: 3})
	app := &echoApp{max: 1000, pendOnce: map[uint64]bool{}}
	e, err := New(Config{N: 4, Self: 0, App: app, Signer: crypto.NewSimSuite(4, 5).Signer(0), Pipeline: 16})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(wire.NodeID(0), e)
	app.max = 3
	net.Start() // proposes 3 of 16 slots, unpaced: no estimate yet
	app.max = 1000
	e.paceLat = 160 * time.Millisecond // a 10 ms gap, the last proposal 0 ms old
	if a := testing.AllocsPerRun(100, e.Poke); a != 0 {
		t.Errorf("Poke inside a pace gap allocates %.1f, want 0", a)
	}
	if _, delayed, _ := e.Pace(); delayed != 1 || !e.paceDue.Equal(net.Now().Add(10*time.Millisecond)) {
		t.Errorf("101 pokes inside one gap armed %d pace timers (due %v), want exactly 1, due in 10 ms", delayed, e.paceDue)
	}
	if app.next != 3 {
		t.Fatalf("pokes inside the gap built %d proposals, want none beyond the first 3", app.next)
	}
	net.Run(10 * time.Millisecond) // the timer fires at the end of the gap
	if _, delayed, _ := e.Pace(); app.next != 4 || delayed != 2 {
		t.Fatalf("after the gap: %d proposals built (want 4), %d timers armed (want 2: one more for the next gap)",
			app.next, delayed)
	}
}
