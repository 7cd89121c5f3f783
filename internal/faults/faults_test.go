package faults

import (
	"fmt"
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// tick is a tiny test message.
type tick struct{ Seq uint64 }

const tickType = wire.TypeRangeTest + 0x20

func (t *tick) Type() wire.Type            { return tickType }
func (t *tick) WireSize() int              { return wire.FrameOverhead + 8 }
func (t *tick) EncodeBody(e *wire.Encoder) { e.U64(t.Seq) }

func registerTick() {
	if !wire.Registered(tickType) {
		wire.Register(tickType, "faults-tick", func(d *wire.Decoder) (wire.Message, error) {
			return &tick{Seq: d.U64()}, d.Err()
		})
	}
}

// ticker sends a tick to peer every interval and records receipts. It
// implements env.Restartable by re-arming its send timer.
type ticker struct {
	ctx      env.Context
	peer     wire.NodeID
	interval time.Duration
	seq      uint64
	timer    env.Timer

	got      []uint64
	gotAt    []time.Duration
	restarts int
}

func (tk *ticker) Start(ctx env.Context) {
	tk.ctx = ctx
	tk.arm()
}

func (tk *ticker) arm() {
	tk.timer = tk.ctx.After(tk.interval, func() {
		tk.seq++
		tk.ctx.Send(tk.peer, &tick{Seq: tk.seq})
		tk.arm()
	})
}

func (tk *ticker) Receive(from wire.NodeID, m wire.Message) {
	if t, ok := m.(*tick); ok {
		tk.got = append(tk.got, t.Seq)
		tk.gotAt = append(tk.gotAt, tk.ctx.Now().Sub(simnet.Epoch))
	}
}

func (tk *ticker) OnRestart() {
	tk.restarts++
	if tk.timer != nil {
		tk.timer.Stop()
	}
	tk.arm()
}

func buildPair(seed int64) (*simnet.Network, *ticker, *ticker) {
	registerTick()
	n := simnet.New(simnet.Config{Seed: seed, Latency: simnet.UniformLatency(time.Millisecond)})
	a := &ticker{peer: 1, interval: 10 * time.Millisecond}
	b := &ticker{peer: 0, interval: 10 * time.Millisecond}
	n.AddNode(0, a)
	n.AddNode(1, b)
	return n, a, b
}

func TestCrashWindowSuppressesAndRestartResumes(t *testing.T) {
	n, a, b := buildPair(1)
	Install(n, Schedule{Seed: 1, Actions: []Action{
		CrashWindow{Node: 0, From: 100 * time.Millisecond, To: 200 * time.Millisecond},
	}})
	n.Start()
	n.Run(400 * time.Millisecond)

	if a.restarts != 1 {
		t.Fatalf("node 0 OnRestart ran %d times, want 1", a.restarts)
	}
	// b must receive nothing from a inside the crash window, and traffic
	// must resume after the restart (timer chain re-armed).
	resumed := false
	for _, at := range b.gotAt {
		if at >= 100*time.Millisecond && at < 200*time.Millisecond {
			t.Fatalf("delivery from crashed node at t=%s", at)
		}
		if at >= 200*time.Millisecond {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no deliveries after restart: timer chain not re-armed")
	}
}

func TestRestartWithoutCrashIsNoop(t *testing.T) {
	n, a, _ := buildPair(1)
	n.Start()
	n.Run(50 * time.Millisecond)
	n.Restart(0)
	n.Run(100 * time.Millisecond)
	if a.restarts != 0 {
		t.Fatalf("OnRestart ran %d times on a node that never crashed", a.restarts)
	}
}

func TestPartitionWindowsCompose(t *testing.T) {
	n, _, b := buildPair(1)
	// Two overlapping windows cutting the same pair: the link must stay
	// cut until BOTH have ended.
	Install(n, Schedule{Seed: 1, Actions: []Action{
		PartitionWindow{A: []wire.NodeID{0}, B: []wire.NodeID{1},
			From: 50 * time.Millisecond, To: 150 * time.Millisecond},
		PartitionWindow{A: []wire.NodeID{0}, B: []wire.NodeID{1},
			From: 100 * time.Millisecond, To: 250 * time.Millisecond},
	}})
	n.Start()
	n.Run(400 * time.Millisecond)

	healed := false
	for _, at := range b.gotAt {
		if at > 51*time.Millisecond && at < 250*time.Millisecond {
			t.Fatalf("delivery across partition at t=%s", at)
		}
		if at >= 250*time.Millisecond {
			healed = true
		}
	}
	if !healed {
		t.Fatal("partition never healed")
	}
}

func TestSilentNodeStillReceives(t *testing.T) {
	n, a, b := buildPair(1)
	Install(n, Schedule{Seed: 1, Actions: []Action{
		Silent{Node: 0, From: 0, To: 500 * time.Millisecond},
	}})
	n.Start()
	n.Run(300 * time.Millisecond)

	if len(b.got) != 0 {
		t.Fatalf("silent node delivered %d messages", len(b.got))
	}
	if len(a.got) == 0 {
		t.Fatal("silent node should still receive")
	}
}

func TestLossWindowEdges(t *testing.T) {
	n, _, b := buildPair(1)
	Install(n, Schedule{Seed: 1, Actions: []Action{
		LossWindow{From: 0, To: 1, Prob: 1,
			Start: 95 * time.Millisecond, End: 195 * time.Millisecond},
	}})
	n.Start()
	n.Run(300 * time.Millisecond)

	// Ticks sent at t=100..190ms die; ticks sent at 10..90 and >= 200
	// survive. Deliveries land 1ms (latency) after sends.
	for _, at := range b.gotAt {
		if at > 96*time.Millisecond && at < 195*time.Millisecond {
			t.Fatalf("delivery inside loss window at t=%s", at)
		}
	}
	var before, after bool
	for _, at := range b.gotAt {
		if at < 95*time.Millisecond {
			before = true
		}
		if at >= 195*time.Millisecond {
			after = true
		}
	}
	if !before || !after {
		t.Fatalf("expected deliveries on both window edges (before=%v after=%v)", before, after)
	}
}

func TestSlowNodeShedsRoughlyDropProb(t *testing.T) {
	// A Slow window with DropProb p should shed about p of the node's
	// outbound; a paired run without the window gives the baseline count.
	baseline := func() int {
		n, _, b := buildPair(6)
		n.Start()
		n.Run(2 * time.Second)
		return len(b.got)
	}()
	n, _, b := buildPair(6)
	Install(n, Schedule{Seed: 6, Actions: []Action{
		Slow{Node: 0, From: 0, To: 2 * time.Second, DropProb: 0.5},
	}})
	n.Start()
	n.Run(2 * time.Second)
	got := len(b.got)
	if got == 0 || got >= baseline {
		t.Fatalf("slow node delivered %d of %d, want a strict reduction", got, baseline)
	}
	// 200 sends at p=0.5: [25%, 75%] is > 13 sigma, tight enough to fail
	// on a broken filter yet never on an unlucky seed.
	if got < baseline/4 || got > 3*baseline/4 {
		t.Fatalf("slow node delivered %d of %d, want roughly half", got, baseline)
	}
}

func TestOverlappingLossAndSilentWindowsCompose(t *testing.T) {
	// A Silent window (p=1) overlapping a partial-loss window: while both
	// are active nothing flows; after the silent window ends the loss
	// window keeps shedding; after both, traffic is clean again.
	n, _, b := buildPair(13)
	Install(n, Schedule{Seed: 13, Actions: []Action{
		Silent{Node: 0, From: 50 * time.Millisecond, To: 150 * time.Millisecond},
		LossWindow{From: 0, To: 1, Prob: 1,
			Start: 100 * time.Millisecond, End: 250 * time.Millisecond},
	}})
	n.Start()
	n.Run(400 * time.Millisecond)

	var before, after bool
	for _, at := range b.gotAt {
		if at > 51*time.Millisecond && at < 250*time.Millisecond {
			t.Fatalf("delivery at t=%s inside the composed outage", at)
		}
		if at <= 50*time.Millisecond {
			before = true
		}
		if at >= 250*time.Millisecond {
			after = true
		}
	}
	if !before || !after {
		t.Fatalf("expected clean traffic on both edges (before=%v after=%v)", before, after)
	}
}

func TestTraceStringDeterministicUnderParallelism(t *testing.T) {
	// Several identical schedules run in parallel subtests; every trace
	// must match a reference computed up front. Catches any hidden shared
	// state between injectors (a global rng, say) that -parallel exposes.
	run := func() string {
		n, _, _ := buildPair(21)
		inj := Install(n, Schedule{Seed: 21, Actions: []Action{
			CrashWindow{Node: 1, From: 30 * time.Millisecond, To: 90 * time.Millisecond},
			Silent{Node: 0, From: 40 * time.Millisecond, To: 110 * time.Millisecond},
			Slow{Node: 0, From: 100 * time.Millisecond, To: 260 * time.Millisecond, DropProb: 0.4},
			LossWindow{From: wire.NoNode, To: 0, Prob: 0.2,
				Start: 120 * time.Millisecond, End: 300 * time.Millisecond},
		}})
		n.Start()
		n.Run(350 * time.Millisecond)
		return inj.TraceString()
	}
	want := run()
	if want == "" {
		t.Fatal("empty reference trace")
	}
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("replica-%d", i), func(t *testing.T) {
			t.Parallel()
			if got := run(); got != want {
				t.Fatalf("trace diverged under parallelism:\n%s\n--- vs ---\n%s", got, want)
			}
		})
	}
}

func TestScheduleDeterminism(t *testing.T) {
	run := func() (string, string) {
		n, a, b := buildPair(42)
		inj := Install(n, Schedule{Seed: 42, Actions: []Action{
			CrashWindow{Node: 1, From: 40 * time.Millisecond, To: 120 * time.Millisecond},
			Slow{Node: 0, From: 60 * time.Millisecond, To: 200 * time.Millisecond, DropProb: 0.5},
			LossWindow{From: wire.NoNode, To: 0, Prob: 0.3,
				Start: 150 * time.Millisecond, End: 260 * time.Millisecond},
		}})
		n.Start()
		n.Run(400 * time.Millisecond)
		state := fmt.Sprintf("a=%v@%v b=%v@%v delivered=%d filtered=%d",
			a.got, a.gotAt, b.got, b.gotAt, n.Delivered(), n.Dropped().Filtered)
		return inj.TraceString(), state
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
