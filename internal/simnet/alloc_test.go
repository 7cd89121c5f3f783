package simnet

import (
	"math/rand"
	"testing"
	"time"

	"predis/internal/wire"
)

// TestSendScheduleZeroAlloc pins the fast-path acceptance criterion:
// once the free list, heap slice, and link-byte map are warm, a
// Send+drain cycle — which internally exercises schedule, the 4-ary
// heap, the arrival and delivery stages, and recycle — performs zero
// allocations, on the bulk queue and on the consensus lane alike, and the
// arrival stage re-pushes its own event instead of taking a second one.
func TestSendScheduleZeroAlloc(t *testing.T) {
	registerTestTypes()
	for _, c := range []struct {
		name string
		msg  wire.Message
		lane bool
	}{
		{"bulk", &ping{Seq: 1, Size: 64}, false},
		{"lane", &vote{Size: 112}, true},
	} {
		n := New(Config{
			Uplink:   Mbps100,
			Downlink: Mbps100,
			Latency:  UniformLatency(time.Millisecond),
		})
		a := &recorder{}
		b := &recorder{}
		n.AddNode(0, a)
		n.AddNode(1, b)
		n.Start()

		// Warm-up: populate the linkBytes key, grow the heap slice and the
		// free list, and let the recorder's got slice reach capacity.
		for i := 0; i < 64; i++ {
			a.ctx.Send(1, c.msg)
			n.RunUntilIdle(0)
		}
		b.got = b.got[:0]

		allocs := testing.AllocsPerRun(200, func() {
			a.ctx.Send(1, c.msg)
			n.RunUntilIdle(0)
			b.got = b.got[:0]
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state Send+drain allocates %v allocs/op, want 0", c.name, allocs)
		}
		if got := n.LaneStats().Frames; (got > 0) != c.lane {
			t.Fatalf("%s: %d lane frames", c.name, got)
		}

		// One event per message in flight: between arrival and delivery
		// the message still holds the event Send took, and the free list
		// has not been touched.
		free := len(n.q.free)
		a.ctx.Send(1, c.msg)
		if n.QueueLen() != 1 || len(n.q.free) != free-1 {
			t.Fatalf("%s: after Send: %d queued, free list %d -> %d", c.name, n.QueueLen(), free, len(n.q.free))
		}
		if ran := n.RunUntilIdle(1); ran != 1 || n.QueueLen() != 1 || len(n.q.free) != free-1 || len(b.got) != 0 {
			t.Fatalf("%s: after the arrival stage: ran %d, %d queued, free list %d, %d delivered; want the same event re-queued",
				c.name, ran, n.QueueLen(), len(n.q.free), len(b.got))
		}
		n.RunUntilIdle(0)
		if len(b.got) != 1 || len(n.q.free) != free {
			t.Fatalf("%s: after delivery: %d delivered, free list %d, want 1 and %d", c.name, len(b.got), len(n.q.free), free)
		}
	}
}

// TestScheduleZeroAlloc drives Network.At (the bare schedule path) with
// a preallocated callback and asserts zero allocations in steady state.
func TestScheduleZeroAlloc(t *testing.T) {
	n := New(Config{})
	fired := 0
	fn := func() { fired++ }
	// Warm-up.
	for i := 0; i < 64; i++ {
		n.At(n.Elapsed()+time.Microsecond, fn)
		n.RunUntilIdle(0)
	}
	allocs := testing.AllocsPerRun(200, func() {
		n.At(n.Elapsed()+time.Microsecond, fn)
		n.RunUntilIdle(0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule allocates %v allocs/op, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("callback never fired")
	}
}

// TestTimerStopRecycledEvent pins the free-list safety property from the
// issue: a stopped-then-recycled event must never fire its old closure,
// and a retained handle must never cancel the event's next occupant.
func TestTimerStopRecycledEvent(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	a := &recorder{}
	n.AddNode(0, a)
	n.Start()

	oldFired := false
	tm := a.ctx.After(10*time.Millisecond, func() { oldFired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop on a canceled timer returned true")
	}

	// Drain: pops the canceled event and recycles it into the free list.
	n.Run(20 * time.Millisecond)
	if oldFired {
		t.Fatal("canceled timer fired")
	}

	// The recycled event is reused by the next After. The stale handle
	// must neither report success nor cancel the new timer.
	newFired := false
	tm2 := a.ctx.After(10*time.Millisecond, func() { newFired = true })
	if tm.Stop() {
		t.Fatal("stale handle canceled a recycled event")
	}
	n.Run(40 * time.Millisecond)
	if !newFired {
		t.Fatal("new timer did not fire (stale Stop leaked through)")
	}
	if oldFired {
		t.Fatal("recycled event fired its old closure")
	}
	// A handle whose timer already fired reports false and cannot
	// resurrect anything.
	if tm2.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

// TestTimerStopAfterFireIsInert covers the other half of the reuse
// contract: Stop on a fired-and-recycled timer must not cancel an
// unrelated delivery event that now occupies the recycled slot.
func TestTimerStopAfterFireIsInert(t *testing.T) {
	registerTestTypes()
	n := New(Config{})
	a := &recorder{}
	b := &recorder{}
	n.AddNode(0, a)
	n.AddNode(1, b)
	n.Start()

	tm := a.ctx.After(time.Millisecond, func() {})
	n.Run(5 * time.Millisecond) // fires and recycles the event

	// Reuse the slot with a message delivery, then try the stale Stop.
	a.ctx.Send(1, &ping{Seq: 7})
	if tm.Stop() {
		t.Fatal("stale handle claimed to cancel a recycled delivery event")
	}
	n.Run(10 * time.Millisecond)
	if len(b.got) != 1 {
		t.Fatalf("delivery suppressed by stale timer handle: got %d messages", len(b.got))
	}
}

// TestEventQueuePopOrder cross-checks the 4-ary heap against a sorted
// reference on a randomized workload with duplicate timestamps: pop
// order must be exactly (at, seq) — the property that makes the heap
// swap replay-invisible. Every so often the head is re-keyed later in
// place instead of popped, as the arrival stage does.
func TestEventQueuePopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	var q eventQueue
	const N = 2000
	type key struct {
		at  int64
		seq uint64
	}
	want := make([]key, 0, N)
	seq := uint64(0)
	for seq < N {
		seq++
		at := int64(rng.Intn(50)) // heavy timestamp collisions
		ev := q.alloc()
		ev.at, ev.seq = at, seq
		q.push(ev)
		want = append(want, key{at, seq})
		// Interleave pops to exercise siftDown on partially drained heaps.
		if rng.Intn(4) == 0 && q.len() > 0 {
			min := 0
			for i := range want {
				if want[i].at < want[min].at ||
					(want[i].at == want[min].at && want[i].seq < want[min].seq) {
					min = i
				}
			}
			got := q.head()
			if got.at != want[min].at || got.seq != want[min].seq {
				t.Fatalf("head (%d,%d), want (%d,%d)", got.at, got.seq, want[min].at, want[min].seq)
			}
			if rng.Intn(3) == 0 {
				seq++
				got.at += int64(rng.Intn(20))
				got.seq = seq
				want[min] = key{got.at, got.seq}
				q.fixHead()
				continue
			}
			q.popHead()
			want = append(want[:min], want[min+1:]...)
			q.recycle(got)
		}
	}
	prev := key{-1, 0}
	for q.len() > 0 {
		got := q.popHead()
		k := key{got.at, got.seq}
		if k.at < prev.at || (k.at == prev.at && k.seq <= prev.seq) {
			t.Fatalf("pop order violated: (%d,%d) after (%d,%d)", k.at, k.seq, prev.at, prev.seq)
		}
		prev = k
		q.recycle(got)
	}
}

// TestSortByMatchesSortNodeIDs pins the shared comparator helper: the
// generic sortBy behind sortNodeIDs sorts identically to
// a reference insertion order.
func TestSortByMatchesSortNodeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]wire.NodeID, 100)
	for i := range ids {
		ids[i] = wire.NodeID(rng.Intn(40))
	}
	sortNodeIDs(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("sortNodeIDs not sorted at %d: %v", i, ids)
		}
	}
}
