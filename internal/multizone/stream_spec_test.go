package multizone

import (
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/pbft"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// emptyStreamBlock builds a valid signed drain block (cuts == prev) for
// the given leader: full nodes accept it with zero bundles, which lets
// spec-buffer tests drive the block lifecycle without a stripe plane.
func emptyStreamBlock(t *testing.T, suite *crypto.SignerSuite, nc, f int,
	leader wire.NodeID, height uint64, parent crypto.Hash) *core.PredisBlock {
	t.Helper()
	mp, err := core.NewMempool(core.Params{
		NC: nc, F: f, BundleSize: 1, Signer: suite.Signer(int(leader)),
	})
	if err != nil {
		t.Fatal(err)
	}
	blk, ok := mp.BuildPredisBlockStream(height, parent, core.ZeroCuts(nc), leader, true)
	if !ok {
		t.Fatal("drain block not built")
	}
	return blk
}

// TestSpecPushDiscardRedistributeExactlyOnce pins the distributor's
// speculative-push state machine: a proposal is pushed once no matter how
// often consensus revisits it, an eviction retracts it exactly once, and
// a re-proposal after the retraction is re-distributed exactly once.
func TestSpecPushDiscardRedistributeExactlyOnce(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	d := NewDistributor(2, 4, striper, 4)

	counts := make(map[wire.NodeID]map[wire.Type]int)
	rec := func(self wire.NodeID) *recHandler {
		counts[self] = make(map[wire.Type]int)
		return &recHandler{onRecv: func(from wire.NodeID, m wire.Message) {
			counts[self][m.Type()]++
		}}
	}
	distHost := &distHandler{d: d}
	net.AddNode(2, distHost)
	net.AddNode(50, rec(50))
	net.AddNode(51, rec(51))
	net.Start()
	distHost.inject(50, &Subscribe{Stripes: []uint8{2}})
	distHost.inject(51, &Subscribe{Stripes: []uint8{2}})

	suite := crypto.NewSimSuite(4, 90)
	blk := emptyStreamBlock(t, suite, 4, 1, 0, 1, crypto.ZeroHash)

	d.OnBlockPropose(blk)
	d.OnBlockPropose(blk) // replica re-validation: deduped
	d.OnBlockEvict(blk)
	d.OnBlockEvict(blk)   // double eviction: deduped
	d.OnBlockPropose(blk) // re-proposal after view change: pushed again
	d.OnBlockPropose(blk) // and deduped again
	d.OnBlockCommit(blk)
	net.Run(time.Second)

	for _, id := range []wire.NodeID{50, 51} {
		c := counts[id]
		if c[TypeSpec] != 2 {
			t.Fatalf("node %d got %d ZoneSpec pushes, want 2 (once + once after discard)", id, c[TypeSpec])
		}
		if c[TypeSpecDiscard] != 1 {
			t.Fatalf("node %d got %d discards, want 1", id, c[TypeSpecDiscard])
		}
		if c[TypeZoneBlock] != 1 {
			t.Fatalf("node %d got %d ordered blocks, want 1", id, c[TypeZoneBlock])
		}
	}
	specs, discards := d.SpecStats()
	if specs != 4 || discards != 2 {
		t.Fatalf("SpecStats = (%d, %d), want (4, 2)", specs, discards)
	}

	// Commit pruned the dedupe entry; a late proposal observation for the
	// settled block must not fault (full nodes dedupe via seenBlocks).
	d.OnBlockPropose(blk)
}

// TestFullNodeSpecBufferLifecycle drives a full node's speculative buffer
// through push → discard → re-push → finalize, plus a losing fork swept
// at settlement, and checks the hit/waste accounting and tracer spans.
func TestFullNodeSpecBufferLifecycle(t *testing.T) {
	node.RegisterAllMessages()
	RegisterMessages()
	striper, _ := NewStriper(4, 1)
	suite := crypto.NewSimSuite(4, 91)
	tr := obs.NewTracer(simnet.Epoch)
	net := simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)})
	fn, err := NewFullNode(FullNodeConfig{
		Self: 200, NC: 4, F: 1,
		Striper: striper,
		Signer:  suite.Signer(0),
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNode(200, fn)
	net.Start()

	blkA := emptyStreamBlock(t, suite, 4, 1, 0, 1, crypto.ZeroHash)

	fn.Receive(0, &ZoneSpec{Block: blkA})
	if len(fn.specBlocks) != 1 {
		t.Fatalf("buffer = %d entries, want 1", len(fn.specBlocks))
	}
	fn.Receive(0, &ZoneSpec{Block: blkA}) // duplicate push
	if len(fn.specBlocks) != 1 {
		t.Fatal("duplicate spec grew the buffer")
	}
	bad := *blkA
	bad.Sig = suite.Signer(1).Sign(bad.Hash()) // wrong signer for the leader
	fn.Receive(0, &ZoneSpec{Block: &bad})
	if len(fn.specBlocks) != 1 {
		t.Fatal("forged spec entered the buffer")
	}

	fn.Receive(0, &ZoneSpecDiscard{Height: 1, Hash: blkA.Hash()})
	if hits, waste := fn.SpecStats(); hits != 0 || waste != 1 || len(fn.specBlocks) != 0 {
		t.Fatalf("after discard: hits=%d waste=%d buffered=%d", hits, waste, len(fn.specBlocks))
	}
	fn.Receive(0, &ZoneSpecDiscard{Height: 1, Hash: blkA.Hash()}) // repeat: no-op
	if _, waste := fn.SpecStats(); waste != 1 {
		t.Fatal("repeated discard double-counted")
	}

	// Exactly-once re-distribution: the re-pushed proposal is accepted.
	fn.Receive(0, &ZoneSpec{Block: blkA})
	if len(fn.specBlocks) != 1 {
		t.Fatal("re-pushed spec after discard not buffered")
	}

	// The ordered block finalizes the buffered speculation.
	fn.Receive(0, &ZoneBlock{Block: blkA})
	if fn.LastHeight() != 1 {
		t.Fatalf("block did not complete: head %d", fn.LastHeight())
	}
	if hits, waste := fn.SpecStats(); hits != 1 || waste != 1 {
		t.Fatalf("after finalize: hits=%d waste=%d", hits, waste)
	}

	// A spec block for an already-completed height is ignored.
	fn.Receive(0, &ZoneSpec{Block: blkA})
	if len(fn.specBlocks) != 0 {
		t.Fatal("stale spec buffered")
	}

	// A losing fork at the next height is swept as waste when a competing
	// block commits.
	fork := emptyStreamBlock(t, suite, 4, 1, 3, 2, blkA.Hash())
	winner := emptyStreamBlock(t, suite, 4, 1, 2, 2, blkA.Hash())
	fn.Receive(0, &ZoneSpec{Block: fork})
	fn.Receive(0, &ZoneBlock{Block: winner})
	if hits, waste := fn.SpecStats(); hits != 1 || waste != 2 {
		t.Fatalf("after fork settle: hits=%d waste=%d", hits, waste)
	}
	if n := tr.DiscardedCount(obs.StageSpecDistributed); n != 2 {
		t.Fatalf("tracer recorded %d discarded spec spans, want 2", n)
	}
}

// TestViewChangeMidStreamDiscards runs a streaming Multi-Zone cluster,
// crashes the PBFT leader mid-stream, and drives the discard path end to
// end: full nodes retract the speculative blocks the view change evicted
// (waste observed network-wide) and keep finalizing speculation after it,
// while every node still completes a gap-free chain. Under paced
// proposals a clean crash leaves nothing to retract — every in-flight
// pre-prepare has reached all replicas, and the three survivors are a
// quorum — so the evictions are made deterministically: for the last
// 50 ms before the crash the leader's pre-prepares reach replica 1 only,
// which speculates on proposals that can never gather a quorum.
func TestViewChangeMidStreamDiscards(t *testing.T) {
	const crashAt = 3 * time.Second
	run := func(starve bool) (hits, waste uint64) {
		cfg := zoneConfig{
			nc: 4, f: 1, zones: 1, perZone: 6,
			rate: 300, duration: 8 * time.Second,
			stream: true,
		}
		zc := buildZoneCluster(t, cfg)
		zc.net.Start()
		if starve {
			zc.net.At(crashAt-50*time.Millisecond, func() {
				zc.net.SetDropFilter(func(from, to wire.NodeID, m wire.Message) bool {
					_, pp := m.(*pbft.PrePrepare)
					return pp && from == 0 && (to == 2 || to == 3)
				})
			})
		}
		zc.net.Run(crashAt)
		zc.net.Crash(0) // PBFT view-0 leader dies mid-stream
		zc.net.SetDropFilter(nil)
		var hitsAtCrash uint64
		for _, fn := range zc.fulls {
			h, _ := fn.SpecStats()
			hitsAtCrash += h
		}
		zc.net.Run(cfg.duration)

		for _, fn := range zc.fulls {
			h, w := fn.SpecStats()
			hits += h
			waste += w
			if _, _, blocks := fn.Stats(); blocks == 0 {
				t.Fatalf("full node %d completed no blocks", fn.cfg.Self)
			}
		}
		if hitsAtCrash == 0 || hits == hitsAtCrash {
			t.Fatalf("speculative blocks finalized: %d before the crash, %d after the view change; want both > 0",
				hitsAtCrash, hits-hitsAtCrash)
		}
		t.Logf("starve=%v: spec hits=%d waste=%d", starve, hits, waste)
		// Chains stay gap-free through the view change.
		for id, heights := range zc.completed {
			for i, h := range heights {
				if h != uint64(i+1) {
					t.Fatalf("node %d completed heights %v (gap at %d)", id, heights[:i+1], i)
				}
			}
		}
		return hits, waste
	}
	if _, waste := run(true); waste == 0 {
		t.Fatal("pre-prepares starved of a quorum before the crash produced no speculative discards")
	}
	if _, waste := run(false); waste != 0 {
		t.Fatalf("a clean leader crash retracted %d speculative blocks, want 0", waste)
	}
}
