package core

import (
	"testing"
	"time"

	"predis/internal/env"
	"predis/internal/types"
	"predis/internal/wire"
)

// cadenceEngine is an engine that only reports its cadence.
type cadenceEngine struct{ paced, chained bool }

func (cadenceEngine) Start(env.Context)                 {}
func (cadenceEngine) Receive(wire.NodeID, wire.Message) {}
func (cadenceEngine) OnRestart()                        {}
func (cadenceEngine) Poke()                             {}
func (e cadenceEngine) Paced() bool                     { return e.paced }
func (e cadenceEngine) Chained() bool                   { return e.chained }
func (cadenceEngine) Stats() (uint64, uint64)           { return 0, 0 }
func (cadenceEngine) Equivocations() uint64             { return 0 }
func (cadenceEngine) View() uint64                      { return 0 }

// TestSealOnProposalClock walks one producer through the proposal-clocked
// sealing rule: the first transaction after a proposal seals on arrival,
// later ones wait for the next proposal and seal right after the node has
// answered it, a full bundle and the interval tick never wait, and every
// bundle_sealed span starts at that bundle's first queued transaction.
func TestSealOnProposalClock(t *testing.T) {
	pn := newPredisNetWith(t, 4, 1, func(i int, o *Options) {
		o.Stream = true
		o.Params.BundleInterval = 50 * time.Millisecond
	})
	for _, p := range pn.peers {
		p.SetEngine(cadenceEngine{paced: true})
	}
	pn.net.Start()
	p, q := pn.peers[0], pn.peers[1]
	seq := uint64(0)
	submit := func(to *Predis, n int) {
		for ; n > 0; n-- {
			seq++
			to.SubmitTx(types.NewTransaction(500, seq, 512, 0))
		}
	}
	expect := func(who *Predis, step string, produced uint64, queued int) {
		t.Helper()
		if got, _, _ := who.Stats(); got != produced || who.QueueLen() != queued {
			t.Fatalf("%s: %d bundles produced, %d transactions queued; want %d and %d",
				step, got, who.QueueLen(), produced, queued)
		}
	}

	submit(p, 1)
	expect(p, "first transaction, nothing sealed since the last proposal", 1, 0)
	submit(p, 1)
	expect(p, "second transaction, one bundle already sealed", 1, 1)

	pn.net.Run(2 * time.Millisecond)
	blk, _, ok := p.BuildProposal(1, nil)
	if !ok {
		t.Fatal("leader built no proposal over its own bundle")
	}
	expect(p, "inside BuildProposal (the pre-prepare has not left yet)", 1, 1)
	pn.net.Run(2 * time.Millisecond) // same instant: the zero-delay seal
	expect(p, "after the answer to the proposal, same instant", 2, 0)

	pn.net.Run(3 * time.Millisecond)
	submit(p, 1)
	expect(p, "transaction after the post-proposal seal", 2, 1)
	pn.net.Run(4 * time.Millisecond)
	submit(p, 10)
	expect(p, "BundleSize transactions queued", 3, 1)
	pn.net.Run(49 * time.Millisecond)
	expect(p, "no proposal, before the tick", 3, 1)
	pn.net.Run(50 * time.Millisecond)
	expect(p, "no proposal, BundleInterval tick", 4, 0)

	// Waits: 0 (on arrival), 2 ms (queued at 0, proposal at 2), 1 ms (full
	// bundle whose first transaction was queued at 3, filled at 4), 46 ms
	// (the eleventh, queued at 4, sealed by the tick at 50).
	if sealed, wait := p.Seals(); sealed != 4 || wait != (0+2+1+46)*time.Millisecond {
		t.Fatalf("%d payload bundles sealed, waits summing to %v; want 4 summing to 49ms", sealed, wait)
	}

	// A replica's clock is the proposals it validates. (It has produced
	// heartbeat bundles meanwhile; they carry nothing and are not a seal.)
	base, _, _ := q.Stats()
	submit(q, 2)
	expect(q, "replica: one sealed on arrival, one queued", base+1, 1)
	if _, err := q.ValidateProposal(1, blk, nil); err != nil {
		t.Fatalf("replica rejects the leader's block: %v", err)
	}
	expect(q, "inside ValidateProposal (the prepare has not left yet)", base+1, 1)
	pn.net.Run(50 * time.Millisecond)
	expect(q, "after the prepare, same instant", base+2, 0)
	submit(q, 1)
	expect(q, "replica: sealed since the proposal it validated", base+2, 1)
}

// TestStreamSealsPerArrivalWithoutProposalClock: stream deployments whose
// engine does not pace its proposals (HotStuff) keep sealing every
// transaction on arrival, whatever proposals come by.
func TestStreamSealsPerArrivalWithoutProposalClock(t *testing.T) {
	pn := newPredisNetWith(t, 4, 1, func(i int, o *Options) { o.Stream = true })
	pn.net.Start()
	p := pn.peers[0]
	for k := uint64(1); k <= 5; k++ {
		p.SubmitTx(types.NewTransaction(500, k, 512, 0))
		if k == 2 {
			if _, _, ok := p.BuildProposal(1, nil); !ok {
				t.Fatal("leader built no proposal")
			}
		}
		if got, _, _ := p.Stats(); got != k || p.QueueLen() != 0 {
			t.Fatalf("after %d submissions: %d bundles, %d queued; want one bundle per arrival", k, got, p.QueueLen())
		}
	}
}

// TestSealKeepsQueueBacking: sealing hands each bundle its own transaction
// slice and keeps the queue's backing arrays, so steady-state submissions
// do not reallocate the queue and a later submission can never overwrite a
// sealed bundle's transactions.
func TestSealKeepsQueueBacking(t *testing.T) {
	pn := newPredisNetWith(t, 4, 1, func(i int, o *Options) { o.Stream = true })
	pn.net.Start()
	p := pn.peers[0]
	var sealed []*types.Transaction
	for k := uint64(1); k <= 64; k++ {
		tx := types.NewTransaction(500, k, 512, 0)
		sealed = append(sealed, tx)
		p.SubmitTx(tx)
	}
	if cap(p.queue) != 1 || cap(p.queueTimes) != 1 || len(p.queue) != 0 {
		t.Fatalf("after 64 seal-on-arrival submissions the queue holds %d with capacity %d/%d; want 0 and 1/1",
			len(p.queue), cap(p.queue), cap(p.queueTimes))
	}
	for h, tx := range sealed {
		if b := p.Mempool().Bundle(0, uint64(h+1)); len(b.Txs) != 1 || b.Txs[0] != tx {
			t.Fatalf("bundle %d no longer holds the transaction it sealed", h+1)
		}
	}
}
