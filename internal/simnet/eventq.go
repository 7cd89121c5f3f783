package simnet

import (
	"predis/internal/wire"
)

// eventKind selects the dispatch path for a scheduled event. Events used
// to carry a closure for everything; the hot paths (message delivery,
// timers) are now closure-free so that Send and schedule allocate
// nothing in steady state.
type eventKind uint8

const (
	// evGeneric runs fn unconditionally. Used by Network.At — scripted
	// fault-injection callbacks fire even if every node is crashed.
	evGeneric eventKind = iota
	// evTimer runs fn unless the owning node is crashed at fire time.
	// Used by simNode.After and by the OnRestart hook.
	evTimer
	// evArrive is the first bit of a message reaching the receiver: the
	// downlink is reserved here, in arrival order, and the same event is
	// re-keyed as evDeliver for the moment the last bit is in.
	evArrive
	// evDeliver is a message delivery: no closure, the message and
	// endpoints live in the event itself.
	evDeliver
)

// event is one scheduled callback. Events are recycled through the
// queue's free list; gen increments on every recycle so that stale
// env.Timer handles (see simTimer) can detect that their event has been
// reused and refuse to cancel it.
type event struct {
	at  int64  // virtual time, nanoseconds since Epoch
	seq uint64 // tie-break for determinism
	gen uint64 // incremented when the event is recycled
	// canceled supports Timer.Stop without heap surgery.
	canceled bool
	kind     eventKind
	// nodeIdx is the dense index of the owning node (crash suppression for
	// evTimer); noIndex for node-less evGeneric events.
	nodeIdx int32

	fn func() // evGeneric, evTimer

	// evArrive/evDeliver payload: endpoints by node pointer, so dispatch
	// touches no map and no ID→node translation. size is the frame's wire
	// size and lastBit the time its last bit reaches the receiver's NIC
	// (sendEnd + latency); both are read by the arrival stage only.
	msg     wire.Message
	src     *simNode
	dst     *simNode
	size    int
	lastBit int64
}

// eventLess is the (at, seq) strict total order shared by every queue
// operation. seq is unique per event, so pop order is fully determined
// regardless of heap shape — which is what keeps a 4-ary heap
// replay-identical to the binary container/heap it replaced.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is an index-free 4-ary min-heap over *event with a free
// list. 4-ary halves the tree depth versus binary, which matters because
// sift-down cache misses dominate pop cost; index-free (no per-element
// heap index bookkeeping) is possible because cancellation is lazy
// (canceled events stay in the heap until popped).
type eventQueue struct {
	heap []*event
	free []*event
}

func (q *eventQueue) len() int { return len(q.heap) }

// head returns the minimum event without removing it.
func (q *eventQueue) head() *event { return q.heap[0] }

// push inserts ev, sifting up with a hole instead of pairwise swaps.
func (q *eventQueue) push(ev *event) {
	q.heap = append(q.heap, ev)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// popHead removes and returns the minimum event.
func (q *eventQueue) popHead() *event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.heap = h[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return top
}

// fixHead restores heap order after the head event's key grew in place:
// one sift-down, where a pop and a push would cost a sift each way.
func (q *eventQueue) fixHead() { q.siftDown(q.heap[0]) }

// siftDown places ev starting from the root, moving the hole toward the
// leaves. The children of i are 4i+1 .. 4i+4.
func (q *eventQueue) siftDown(ev *event) {
	h := q.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

// alloc returns a blank event, reusing the free list when possible. In
// steady state (free list warm) it allocates nothing.
func (q *eventQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &event{} //predis:allocok free-list miss; steady state reuses
}

// recycle returns a popped event to the free list. The generation bump
// invalidates any outstanding simTimer handle; payload pointers are
// cleared so recycled events do not pin messages or nodes.
func (q *eventQueue) recycle(ev *event) {
	ev.gen++
	ev.canceled = false
	ev.fn = nil
	ev.msg = nil
	ev.src = nil
	ev.dst = nil
	q.free = append(q.free, ev)
}

// simTimer is the env.Timer handle for one scheduled event. The handle
// snapshots the event's generation at creation: once the event fires (or
// is canceled) and is recycled, the generations diverge and Stop becomes
// a no-op returning false — a handle can never cancel a recycled event
// that now belongs to someone else. Handles are bump-allocated from the
// Network's timer slab so After amortizes to ~0 allocations.
type simTimer struct {
	ev  *event
	gen uint64
}

// Stop implements env.Timer. It reports whether it canceled the timer
// before it fired (false if the timer already fired, was already
// stopped, or its event has been recycled).
func (t *simTimer) Stop() bool {
	if t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	return true
}

// timerSlabSize is how many simTimer handles are bump-allocated at once.
const timerSlabSize = 256

// sortBy is the deterministic in-place comparator-driven sort behind
// sortNodeIDs: a plain insertion sort, so the result
// depends only on less (which must be a strict weak order; every caller
// sorts by a unique key) — never on stdlib sort internals — and sorting
// allocates nothing.
func sortBy[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
