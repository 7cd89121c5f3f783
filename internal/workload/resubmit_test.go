package workload

import (
	"testing"
	"time"
)

// sends returns the deliveries of seq in the log, in delivery order.
func sends(log *[]delivery, seq uint64) []delivery {
	var out []delivery
	for _, d := range *log {
		if d.seq == seq {
			out = append(out, d)
		}
	}
	return out
}

// checkResubmits fails unless the client resent on evidence and on the
// timer exactly as often as wanted.
func checkResubmits(t *testing.T, cl *Client, evidence, timer uint64) {
	t.Helper()
	e, tm := cl.Resubmits()
	if e != evidence || tm != timer || cl.Resubmitted() != e+tm {
		t.Fatalf("resubmits: %d on evidence, %d on the timer, %d in all; want %d and %d",
			e, tm, cl.Resubmitted(), evidence, timer)
	}
}

// TestEvidenceResendsDroppedTransaction: a transaction its target dropped
// is resent on the first confirmation of a later one sent to that target —
// within a tick of the reply, not after ResubmitAfter — to the next target.
func TestEvidenceResendsDroppedTransaction(t *testing.T) {
	net, cl, ts, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 2 * time.Second})
	net.Start()
	ts[0].down = true
	for i := 0; i < 4; i++ {
		cl.submitOne(net.Now()) // seq 1 to target 0, which drops it; 2–4 to targets 1–3
	}
	net.At(5*time.Millisecond, func() {
		ts[0].down = false
		cl.submitOne(net.Now()) // seq 5 to target 0
	})
	net.At(50*time.Millisecond, func() {
		blk := append(append(append(ts[0].cut(1), ts[1].cut(1)...), ts[2].cut(1)...), ts[3].cut(1)...)
		reply(ts, 1, blk, 0, 1)
	})
	net.Run(200 * time.Millisecond)

	checkResubmits(t, cl, 1, 0)
	got := sends(log, 1)
	if len(got) != 2 || got[1].target != 1 || got[1].at > 70*time.Millisecond {
		t.Fatalf("seq 1 delivered as %+v, want a resend to target 1 within a tick of the 51 ms reply", got)
	}
	if cl.PendingCount() != 1 {
		t.Fatalf("%d pending, want only the resent seq 1", cl.PendingCount())
	}
}

// TestEvidenceIsPerTarget: confirmations reorder freely across targets, so
// a transaction confirmed through one target says nothing about a pending
// one sent earlier to another.
func TestEvidenceIsPerTarget(t *testing.T) {
	net, cl, ts, _ := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 2 * time.Second})
	net.Start()
	cl.submitOne(net.Now()) // seq 1 to target 0, queued there
	cl.submitOne(net.Now()) // seq 2 to target 1
	net.At(50*time.Millisecond, func() { reply(ts, 1, ts[1].cut(1), 1, 2) })
	net.Run(500 * time.Millisecond)

	checkResubmits(t, cl, 0, 0)
	if cl.PendingCount() != 1 || len(ts[0].queue) != 1 {
		t.Fatalf("%d pending, target 0 queues %v: want seq 1 still waiting there", cl.PendingCount(), ts[0].queue)
	}
}

// TestEvidenceJudgedAfterWholeReply: the rule is judged once a reply has
// been processed in full, so a reply that lists a later transaction of a
// target before an earlier one never finds the earlier one without a
// reply — whether the reply confirms both (f = 0) or only gives the
// earlier one its first (f = 1).
func TestEvidenceJudgedAfterWholeReply(t *testing.T) {
	for _, f := range []int{0, 1} {
		net, cl, ts, log := buildResubmitNet(t, ClientConfig{F: f, ResubmitAfter: 2 * time.Second})
		net.Start()
		for i := 0; i < 5; i++ {
			cl.submitOne(net.Now()) // seqs 1 and 5 to target 0
		}
		net.At(50*time.Millisecond, func() {
			if f == 1 {
				reply(ts, 1, []uint64{5}, 0)
			}
			reply(ts, 1, []uint64{5, 1}, 1) // the later one first
		})
		net.Run(200 * time.Millisecond)

		checkResubmits(t, cl, 0, 0)
		if n := len(sends(log, 1)); n != 1 {
			t.Fatalf("f = %d: seq 1 delivered %d times, want once", f, n)
		}
		if want := 3 + f; cl.PendingCount() != want {
			t.Fatalf("f = %d: %d pending, want %d", f, cl.PendingCount(), want)
		}
	}
}

// TestEvidenceNeedsZeroReplies: a replica that skip-synced over a block
// never replies for it, so an earlier transaction may trail a later one's
// quorum — but then one of the later one's f+1 repliers has answered for
// it. A transaction with any reply was committed, and is not resent.
func TestEvidenceNeedsZeroReplies(t *testing.T) {
	net, cl, ts, _ := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 2 * time.Second})
	net.Start()
	for i := 0; i < 5; i++ {
		cl.submitOne(net.Now()) // seqs 1 and 5 to target 0
	}
	net.At(50*time.Millisecond, func() {
		reply(ts, 1, ts[0].cut(1), 0) // seq 1 at height 1: replicas 1 and 2 skip it
		reply(ts, 2, ts[0].cut(1), 1, 2)
	})
	net.Run(500 * time.Millisecond)

	checkResubmits(t, cl, 0, 0)
	if cl.PendingCount() != 4 {
		t.Fatalf("%d pending, want seq 1 (one reply) and seqs 2–4", cl.PendingCount())
	}
}

// TestEvidenceExemptsBroadcast: a broadcast transaction has no single
// target, so its confirmation is no evidence against a transaction one of
// the targets dropped.
func TestEvidenceExemptsBroadcast(t *testing.T) {
	net, cl, ts, _ := buildResubmitNet(t, ClientConfig{Policy: Broadcast, F: 1, ResubmitAfter: 2 * time.Second})
	net.Start()
	ts[0].down = true
	cl.submitOne(net.Now()) // seq 1: target 0 drops it, 1–3 queue it
	net.At(5*time.Millisecond, func() {
		ts[0].down = false
		cl.submitOne(net.Now()) // seq 2 to all four
	})
	net.At(50*time.Millisecond, func() { reply(ts, 1, ts[0].cut(1), 0, 1) })
	net.Run(500 * time.Millisecond)

	checkResubmits(t, cl, 0, 0)
	if cl.PendingCount() != 1 {
		t.Fatalf("%d pending, want seq 1", cl.PendingCount())
	}
}

// TestResubmittedTransactionIsNoEvidence: a transaction the timer resent
// may commit through the target it left, so its confirmation says nothing
// about what was sent to its new target before it.
func TestResubmittedTransactionIsNoEvidence(t *testing.T) {
	net, cl, ts, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 100 * time.Millisecond})
	net.Start()
	cl.submitOne(net.Now())                                                   // seq 1 to target 0, queued there
	net.At(60*time.Millisecond, func() { cl.submitOne(net.Now()) })           // seq 2 to target 1
	net.At(120*time.Millisecond, func() { reply(ts, 1, ts[0].cut(1), 0, 2) }) // seq 1 commits via target 0
	net.Run(150 * time.Millisecond)

	// The timer resent seq 1 to target 1 at 100 ms, after seq 2.
	if got := sends(log, 1); len(got) != 2 || got[1].target != 1 {
		t.Fatalf("seq 1 delivered as %+v, want a timer resend to target 1", got)
	}
	checkResubmits(t, cl, 0, 1)
	if n := len(sends(log, 2)); n != 1 || cl.PendingCount() != 1 {
		t.Fatalf("seq 2 delivered %d times, %d pending: want it sent once and still waiting", n, cl.PendingCount())
	}
}

// TestEarlyResendRestartsTheTimer: a resend on evidence makes the first
// send's deadline stale — the timer fires ResubmitAfter after the resend,
// not after the first send — and the stale deadline holds up no other.
func TestEarlyResendRestartsTheTimer(t *testing.T) {
	net, cl, ts, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 200 * time.Millisecond})
	net.Start()
	ts[0].down = true
	for i := 0; i < 4; i++ {
		cl.submitOne(net.Now()) // seq 1 dropped by target 0
	}
	net.At(5*time.Millisecond, func() {
		ts[0].down = false
		ts[1].down = true       // it drops seq 1's resend
		cl.submitOne(net.Now()) // seq 5 to target 0
	})
	net.At(50*time.Millisecond, func() {
		blk := append(append(ts[0].cut(1), ts[1].cut(1)...), ts[2].cut(1)...) // not seq 4
		reply(ts, 1, blk, 0, 1)
	})
	net.Run(300 * time.Millisecond)

	got := sends(log, 1)
	if len(got) != 3 || got[1].at > 70*time.Millisecond || got[2].at < 250*time.Millisecond {
		t.Fatalf("seq 1 delivered as %+v, want the first send, a resend on evidence and one on the timer 200 ms later", got)
	}
	if got := sends(log, 4); len(got) != 2 || got[1].at > 220*time.Millisecond {
		t.Fatalf("seq 4 delivered as %+v, want a resend on the timer at 200 ms", got)
	}
	checkResubmits(t, cl, 1, 2)
}

// TestEvidenceBacklogResentOnce: resends on evidence beyond the per-tick
// cap wait in the ready queue; a deadline that falls due meanwhile does not
// queue the same transaction again.
func TestEvidenceBacklogResentOnce(t *testing.T) {
	const dropped = 48 // six ticks' worth at the cap of eight
	net, cl, ts, log := buildResubmitNet(t, ClientConfig{F: 1, ResubmitAfter: 100 * time.Millisecond})
	net.Start()
	ts[0].down = true
	for i := 0; i < 4*dropped; i++ {
		cl.submitOne(net.Now()) // every fourth, from seq 1 on, to target 0
	}
	net.At(5*time.Millisecond, func() {
		ts[0].down = false
		cl.submitOne(net.Now()) // the next to target 0
	})
	net.At(50*time.Millisecond, func() {
		blk := append(append(append(ts[0].cut(1), ts[1].cut(dropped)...), ts[2].cut(dropped)...), ts[3].cut(dropped)...)
		reply(ts, 1, blk, 0, 1)
	})
	net.Run(150 * time.Millisecond) // the backlog drains at 60–110 ms; the deadlines fall due at 100 ms

	checkResubmits(t, cl, dropped, 0)
	for i := 0; i < dropped; i++ {
		if n := len(sends(log, uint64(4*i+1))); n != 2 {
			t.Fatalf("seq %d delivered %d times, want twice", 4*i+1, n)
		}
	}
}

// TestStaleSendsLeaveTheirRing: a target through which no first send ever
// confirms never has its sends passed by evidence, so its ring sheds the
// records of sends that confirmed or moved on as new ones arrive.
func TestStaleSendsLeaveTheirRing(t *testing.T) {
	net, cl, ts, _ := buildResubmitNet(t, ClientConfig{Policy: FirstOnly, F: 1, ResubmitAfter: 50 * time.Millisecond})
	net.Start()
	ts[0].down = true // every first send is lost, and the timer moves it to target 1
	h := uint64(0)
	for d := time.Duration(0); d < 600*time.Millisecond; d += 10 * time.Millisecond {
		net.At(d, func() {
			for i := 0; i < 5 && d < 500*time.Millisecond; i++ {
				cl.submitOne(net.Now())
			}
			if seqs := ts[1].cut(len(ts[1].queue)); len(seqs) > 0 {
				h++
				reply(ts, h, seqs, 1, 2)
			}
		})
	}
	net.Run(600 * time.Millisecond)

	if _, onTimer := cl.Resubmits(); onTimer != 250 || cl.PendingCount() != 0 {
		t.Fatalf("%d resent on the timer, %d pending: want all 250 resent and confirmed", onTimer, cl.PendingCount())
	}
	if n := cl.sentTo[1].len(); n > 10 {
		t.Fatalf("target 1's ring holds %d records after its 250 sends confirmed", n)
	}
}
