package rtnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/hotstuff"
	"predis/internal/multizone"
	"predis/internal/node"
	"predis/internal/types"
	"predis/internal/wire"
)

// echoHandler counts receptions; used for plumbing tests.
type echoHandler struct {
	mu  sync.Mutex
	ctx env.Context
	got []wire.Message
}

func (h *echoHandler) Start(ctx env.Context) { h.ctx = ctx }
func (h *echoHandler) Receive(from wire.NodeID, m wire.Message) {
	h.mu.Lock()
	h.got = append(h.got, m)
	h.mu.Unlock()
}

func (h *echoHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.got)
}

func TestRuntimeDelivery(t *testing.T) {
	node.RegisterAllMessages()
	ha, hb := &echoHandler{}, &echoHandler{}

	ra, err := New(Config{Self: 0, Listen: "127.0.0.1:0"}, ha)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	defer ra.Close()

	rb, err := New(Config{
		Self: 1, Listen: "127.0.0.1:0",
		Peers: map[wire.NodeID]string{0: ra.Addr().String()},
	}, hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Start(); err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	// b → a over real TCP.
	tx := types.NewTransaction(1, 7, 512, 0)
	hb.ctx.Send(0, &types.SubmitTx{Tx: tx, Target: 0})
	deadline := time.Now().Add(3 * time.Second)
	for ha.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ha.count() != 1 {
		t.Fatal("message not delivered over TCP")
	}
	got := ha.got[0].(*types.SubmitTx)
	if got.Tx.Hash() != tx.Hash() {
		t.Fatal("transaction corrupted in transit")
	}
}

func TestRuntimeSelfSendAndTimer(t *testing.T) {
	node.RegisterAllMessages()
	h := &echoHandler{}
	r, err := New(Config{Self: 3}, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	fired := make(chan struct{})
	r.Inject(9, &types.BlockReply{Height: 1, Replica: 9})
	h.ctx.Send(3, &types.BlockReply{Height: 2, Replica: 3}) // self-send
	tm := h.ctx.After(10*time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
	deadline := time.Now().Add(time.Second)
	for h.count() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.count() < 2 {
		t.Fatalf("got %d messages, want 2", h.count())
	}
}

// rearmHandler keeps timers re-arming themselves at zero delay and counts
// the callbacks that ran.
type rearmHandler struct{ fired atomic.Int64 }

func (h *rearmHandler) Start(ctx env.Context) {
	var tick func()
	tick = func() {
		h.fired.Add(1)
		ctx.After(0, tick)
	}
	for i := 0; i < 64; i++ {
		ctx.After(0, tick)
	}
}

func (h *rearmHandler) Receive(wire.NodeID, wire.Message) {}

// TestNoCallbackAfterClose closes a runtime whose timers are firing and
// checks that no handler code runs once Close has returned: a timer that
// fired just before Close must not take the lock after it.
func TestNoCallbackAfterClose(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		h := &rearmHandler{}
		r, err := New(Config{Self: 0}, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		r.Close()
		closed := h.fired.Load()
		time.Sleep(5 * time.Millisecond)
		if late := h.fired.Load() - closed; late != 0 {
			t.Fatalf("trial %d: %d callbacks ran after Close returned", trial, late)
		}
	}
}

func TestRuntimeUnknownPeerDrops(t *testing.T) {
	h := &echoHandler{}
	r, err := New(Config{Self: 0}, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h.ctx.Send(42, &types.BlockReply{}) // no address: silently dropped
}

// TestPBFTOverTCP runs a full 4-node P-PBFT deployment over real loopback
// TCP: the same node assembly as the simulator tests, driven by rtnet.
func TestPBFTOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	node.RegisterAllMessages()
	const nc = 4
	suite := crypto.NewSimSuite(nc, 51)

	var (
		mu      sync.Mutex
		commits = make([]int, nc)
	)
	runtimes := make([]*Runtime, nc)
	nodes := make([]*node.Node, nc)

	// New binds the listener, so addresses are known before Start: create
	// everything, exchange addresses, then start.
	for i := 0; i < nc; i++ {
		i := i
		n, err := node.New(node.Config{
			Mode: node.ModePredis, Engine: node.EnginePBFT,
			NC: nc, F: 1, Self: wire.NodeID(i),
			Signer:         suite.Signer(i),
			BundleSize:     10,
			BundleInterval: 10 * time.Millisecond,
			ViewTimeout:    2 * time.Second,
			OnCommit: func(height uint64, txs []*types.Transaction) {
				mu.Lock()
				commits[i] += len(txs)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		r, err := New(Config{Self: wire.NodeID(i), Listen: "127.0.0.1:0"}, n)
		if err != nil {
			t.Fatal(err)
		}
		runtimes[i] = r
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			if i != j {
				runtimes[i].AddPeer(wire.NodeID(j), runtimes[j].Addr().String())
			}
		}
	}
	for i := 0; i < nc; i++ {
		if err := runtimes[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer runtimes[i].Close()
	}

	// Submit transactions to every node.
	for k := 0; k < 40; k++ {
		tx := types.NewTransaction(1000, uint64(k+1), 512, 0)
		runtimes[k%nc].Inject(1000, &types.SubmitTx{Tx: tx})
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := commits[0] >= 40 && commits[1] >= 40 && commits[2] >= 40 && commits[3] >= 40
		mu.Unlock()
		if done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("commits after deadline: %v (want ≥ 40 everywhere)", commits)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: 0}, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	h := &echoHandler{}
	r, err := New(Config{Self: 0, Listen: "127.0.0.1:0"}, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	r.Close()
	r.Close() // idempotent
}

func ExampleRuntime() {
	fmt.Println("see cmd/predis-node for a complete deployment")
	// Output: see cmd/predis-node for a complete deployment
}

// TestListenerRestartDeliveryResumes kills a listening runtime, restarts a
// fresh one on the same address, and asserts the sender's redial backoff
// reconnects so delivery resumes. This is the real-time analogue of the
// simulator's Crash/Restart hooks: frames sent while the listener is down
// are lost (the env contract permits loss), but the redial loop must find
// the reborn listener without intervention.
func TestListenerRestartDeliveryResumes(t *testing.T) {
	node.RegisterAllMessages()
	ha := &echoHandler{}
	ra, err := New(Config{Self: 0, Listen: "127.0.0.1:0"}, ha)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Start(); err != nil {
		t.Fatal(err)
	}
	addr := ra.Addr().String()

	hb := &echoHandler{}
	rb, err := New(Config{
		Self:  1,
		Peers: map[wire.NodeID]string{0: addr},
		// Tight redial so the test converges fast; jitter stays on to
		// exercise the seeded draw.
		Redial: env.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond,
			Factor: 2, Jitter: 0.25},
	}, hb)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Start(); err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	send := func(seq uint64) { hb.ctx.Send(0, &types.BlockReply{Height: seq, Replica: 1}) }

	// Phase 1: normal delivery.
	send(1)
	deadline := time.Now().Add(3 * time.Second)
	for ha.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ha.count() == 0 {
		t.Fatal("initial delivery failed")
	}

	// Phase 2: kill the listener. In-flight sends now fail and the
	// writeLoop enters its redial backoff.
	ra.Close()
	send(2) // triggers the write error that tears the stale conn down

	// Phase 3: restart a fresh runtime on the SAME address.
	ha2 := &echoHandler{}
	ra2, err := New(Config{Self: 0, Listen: addr}, ha2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra2.Start(); err != nil {
		t.Fatal(err)
	}
	defer ra2.Close()

	// Phase 4: keep sending until one lands; the redial loop must
	// reconnect within the backoff cap.
	deadline = time.Now().Add(5 * time.Second)
	seq := uint64(3)
	for ha2.count() == 0 && time.Now().Before(deadline) {
		send(seq)
		seq++
		time.Sleep(25 * time.Millisecond)
	}
	if ha2.count() == 0 {
		t.Fatal("delivery did not resume after listener restart")
	}
	t.Logf("delivery resumed after %d post-restart sends", seq-3)
}

// TestLaneFrameWrittenFirst queues eight bulk frames and then a lane frame
// for a peer that is not listening yet — a vote behind client replies, and
// a Predis block on its way to full nodes behind a burst of stripes: once
// the peer comes up, the write loop must put the lane frame on the wire
// first and the bulk frames after it, in the order they were sent.
func TestLaneFrameWrittenFirst(t *testing.T) {
	node.RegisterAllMessages()
	multizone.RegisterMessages()
	blk := &core.PredisBlock{Height: 7, Cuts: make([]core.Cut, 4), Sig: make([]byte, crypto.SignatureSize)}
	cases := []struct {
		name string
		bulk func(seq uint64) wire.Message
		seq  func(m wire.Message) (uint64, bool)
		lane wire.Message
		isIt func(m wire.Message) bool
	}{
		{
			name: "vote behind replies",
			bulk: func(seq uint64) wire.Message { return &types.BlockReply{Height: seq, Replica: 1} },
			seq: func(m wire.Message) (uint64, bool) {
				if r, ok := m.(*types.BlockReply); ok {
					return r.Height, true
				}
				return 0, false
			},
			lane: &hotstuff.Vote{View: 7, Replica: 1, Sig: make([]byte, crypto.SignatureSize)},
			isIt: func(m wire.Message) bool { v, ok := m.(*hotstuff.Vote); return ok && v.View == 7 },
		},
		{
			name: "zone block behind stripes",
			bulk: func(seq uint64) wire.Message {
				return &multizone.StripeMsg{Header: core.BundleHeader{Producer: 1, Height: seq}, Ref: true,
					Index: uint8(seq % 4), Shard: make([]byte, 8<<10)}
			},
			seq: func(m wire.Message) (uint64, bool) {
				if st, ok := m.(*multizone.StripeMsg); ok {
					return st.Header.Height, true
				}
				return 0, false
			},
			lane: blk,
			isIt: func(m wire.Message) bool { b, ok := m.(*core.PredisBlock); return ok && b.Height == 7 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A fresh runtime's listener reserves an address, then frees it.
			probe, err := New(Config{Self: 0, Listen: "127.0.0.1:0"}, &echoHandler{})
			if err != nil {
				t.Fatal(err)
			}
			addr := probe.Addr().String()
			probe.Close()

			hb := &echoHandler{}
			rb, err := New(Config{
				Self:   1,
				Peers:  map[wire.NodeID]string{0: addr},
				Redial: env.Backoff{Base: 10 * time.Millisecond, Max: 40 * time.Millisecond, Factor: 2},
			}, hb)
			if err != nil {
				t.Fatal(err)
			}
			if err := rb.Start(); err != nil {
				t.Fatal(err)
			}
			defer rb.Close()

			const bulk = 8
			for h := uint64(1); h <= bulk; h++ {
				hb.ctx.Send(0, c.bulk(h))
			}
			hb.ctx.Send(0, c.lane)

			ha := &echoHandler{}
			ra, err := New(Config{Self: 0, Listen: addr}, ha)
			if err != nil {
				t.Fatal(err)
			}
			if err := ra.Start(); err != nil {
				t.Fatal(err)
			}
			defer ra.Close()

			deadline := time.Now().Add(5 * time.Second)
			for ha.count() < bulk+1 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			ha.mu.Lock()
			defer ha.mu.Unlock()
			if len(ha.got) != bulk+1 {
				t.Fatalf("received %d of %d frames", len(ha.got), bulk+1)
			}
			if !c.isIt(ha.got[0]) {
				t.Fatalf("first frame on the wire is %T, want the lane frame queued behind %d bulk frames", ha.got[0], bulk)
			}
			for i, m := range ha.got[1:] {
				if seq, ok := c.seq(m); !ok || seq != uint64(i+1) {
					t.Fatalf("frame %d is %T, want bulk frame %d in send order", i+1, m, i+1)
				}
			}
		})
	}
}
