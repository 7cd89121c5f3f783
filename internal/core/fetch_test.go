package core

import (
	"slices"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
)

// sentReq is one BundleRequest as its sender sent it.
type sentReq struct {
	at  time.Time
	to  wire.NodeID
	req BundleRequest
}

// sendTap is a node's context that shows every BundleRequest it sends to
// onRequest first.
type sendTap struct {
	env.Context
	onRequest func(s sentReq)
}

func (s sendTap) Send(to wire.NodeID, m wire.Message) {
	if req, ok := m.(*BundleRequest); ok {
		s.onRequest(sentReq{s.Now(), to, *req})
	}
	s.Context.Send(to, m)
}

// planeRig is one fetch plane on node 200's mempool, n_c = 4, whose holder
// order is a fake list: the named first holder, then ring, minus avoid and
// whatever the test quarantined.
type planeRig struct {
	net         *simnet.Network
	plane       *FetchPlane
	ring        []wire.NodeID
	quarantined map[wire.NodeID]bool
	sent        []sentReq
	now         time.Duration
}

func newPlaneRig(t *testing.T) *planeRig {
	t.Helper()
	RegisterMessages()
	mp, err := NewMempool(Params{NC: 4, F: 1, BundleSize: 1, Signer: crypto.NewSimSuite(4, 23).Signer(0)})
	if err != nil {
		t.Fatal(err)
	}
	r := &planeRig{
		net:         simnet.New(simnet.Config{Latency: simnet.UniformLatency(time.Millisecond)}),
		ring:        []wire.NodeID{300, 1, 2, 3},
		quarantined: map[wire.NodeID]bool{},
	}
	r.plane = NewFetchPlane(mp, env.DefaultBackoff(500*time.Millisecond),
		func(_, first, avoid wire.NodeID) []wire.NodeID {
			var out []wire.NodeID
			for _, id := range append([]wire.NodeID{first}, r.ring...) {
				if id != wire.NoNode && id != avoid && !r.quarantined[id] && !slices.Contains(out, id) {
					out = append(out, id)
				}
			}
			return out
		})
	r.net.AddNode(200, &env.HandlerFunc{OnStart: func(ctx env.Context) {
		r.plane.Start(sendTap{ctx, func(s sentReq) { r.sent = append(r.sent, s) }})
	}})
	for _, id := range []wire.NodeID{0, 1, 2, 3, 300} {
		r.net.AddNode(id, &env.HandlerFunc{})
	}
	r.net.Start()
	return r
}

// step runs the network 10 ms on: everything in flight lands.
func (r *planeRig) step() {
	r.now += 10 * time.Millisecond
	r.net.Run(r.now)
}

// TestFetchPlaneResetAndDropHolder: a reset forgets every fetch (after a
// restart its timers died with the crash); dropping the holder of an
// outstanding request re-states the need to a rotation without it, takes it
// out of the rotations it has not been asked in yet, and leaves requests
// outstanding elsewhere alone.
func TestFetchPlaneResetAndDropHolder(t *testing.T) {
	r := newPlaneRig(t)
	fp := r.plane
	fp.Need(1, 5, wire.NoNode, wire.NoNode) // a guess: the ring's first
	fp.Need(2, 7, 2, wire.NoNode)           // a known holder: the producer
	r.step()
	if len(r.sent) != 2 || r.sent[0].to != 300 || r.sent[1].to != 2 {
		t.Fatalf("requests %+v, want producer 1 asked of 300 and producer 2 of 2", r.sent)
	}

	r.quarantined[300] = true
	fp.DropHolder(300)
	r.step()
	if len(r.sent) != 3 || r.sent[2].to == 300 || r.sent[2].req != (BundleRequest{Producer: 1, From: 1, To: 5}) {
		t.Fatalf("after dropping the holder: requests %+v, want bundles (1, 1..5) asked of someone else", r.sent)
	}
	if st := fp.fetches[1]; st.asked != 5 || st.attempt != 0 || st.holders[0] == 300 {
		t.Fatalf("producer 1 after the drop: %+v", st)
	}
	if st := fp.fetches[2]; st.asked != 7 || st.holders[0] != 2 || slices.Contains(st.holders, 300) {
		t.Fatalf("producer 2 after the drop: %+v, want its request to 2 left alone and 300 out of its rotation", st)
	}

	fp.Reset()
	for p, st := range fp.fetches {
		if st.want != 0 || st.asked != 0 || st.holders != nil || st.attempt != 0 || st.silent != 0 || st.sure || st.timer != nil {
			t.Fatalf("fetch state of producer %d survived the reset: %+v", p, st)
		}
	}
	before := len(r.sent)
	r.now += 5 * time.Second // past every backoff delay: no retry timer may fire
	r.net.Run(r.now)
	if len(r.sent) != before {
		t.Fatalf("a fetch timer fired after the reset: %+v", r.sent[before:])
	}
}

// TestConsensusServesHeldPrefix: a consensus node asked for more of a chain
// than it holds answers with the prefix it has, as a full node does, so the
// requester need not wait out a retry delay for what is there.
func TestConsensusServesHeldPrefix(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	var got []*Bundle
	pn.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, _ time.Time) {
		if resp, ok := m.(*BundleResponse); ok && from == 1 && to == 0 {
			got = append(got, resp.Bundles...)
		}
	}
	pn.net.Start()
	suite := crypto.NewSimSuite(4, 23)
	var parent *BundleHeader
	for h := 1; h <= 3; h++ { // node 1 holds heights 1–3 of producer 2's chain
		tips := make(TipList, 4)
		tips[2] = uint64(h)
		b := PackBundle(suite.Signer(2), 2, parent, []*types.Transaction{types.NewTransaction(9, uint64(h), 512, 0)}, tips)
		pn.peers[1].Receive(2, &BundleMsg{Bundle: b})
		parent = &b.Header
	}
	pn.peers[1].Receive(0, &BundleRequest{Producer: 2, From: 2, To: 5})
	pn.net.Run(50 * time.Millisecond)
	if len(got) != 2 || got[0].Header.Height != 2 || got[1].Header.Height != 3 {
		heights := make([]uint64, len(got))
		for i, b := range got {
			heights[i] = b.Header.Height
		}
		t.Fatalf("asked for heights 2–5 of a chain held to 3, node 1 answered %v; want [2 3]", heights)
	}
}

// TestRestartedConsensusNodeFetchesOnePerProducer: consensus node 0 is down
// for 500 ms while the other three each seal 200 bundles a second, so it
// restarts ~100 bundles behind on every chain, under load, with 64-bundle
// answers (≈ 26 ms each on its 100 Mbps downlink) queueing behind the live
// bundles. It must never have two BundleRequests outstanding for one
// producer — a request is settled by its holder's answer, by every height
// it asked for being held, or by a backoff delay of silence — it must reach
// the live tips, and PullStats must account for every request it sent.
func TestRestartedConsensusNodeFetchesOnePerProducer(t *testing.T) {
	pn := newPredisNet(t, 4, 1)
	victim := pn.peers[0]
	type answer struct {
		at             time.Time
		from, producer wire.NodeID
	}
	var answers []answer
	pn.net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
		if resp, ok := m.(*BundleResponse); ok && to == 0 && len(resp.Bundles) > 0 {
			answers = append(answers, answer{at, from, resp.Bundles[0].Header.Producer})
		}
	}
	// Before each request is sent, the previous one for its producer must
	// be settled.
	minDelay := time.Duration(float64(victim.retry.Base) * (1 - victim.retry.Jitter))
	var sent []sentReq
	last := map[wire.NodeID]sentReq{}
	onRequest := func(s sentReq) {
		p := s.req.Producer
		if prev, ok := last[p]; ok && victim.Mempool().Tip(p) < prev.req.To && s.at.Sub(prev.at) < minDelay &&
			!slices.ContainsFunc(answers, func(a answer) bool {
				return a.from == prev.to && a.producer == p && !a.at.Before(prev.at)
			}) {
			t.Errorf("at %v node 0 asked %d for %+v while its request to %d for %+v (sent at %v) was outstanding",
				s.at.Sub(simnet.Epoch), s.to, s.req, prev.to, prev.req, prev.at.Sub(simnet.Epoch))
		}
		last[p] = s
		sent = append(sent, s)
	}
	pn.net.Start()
	tap := sendTap{victim.ctx, onRequest}
	victim.ctx = tap
	victim.fetch.Start(tap)

	const tick, loadEnd = 10 * time.Millisecond, 1500 * time.Millisecond
	for at := time.Duration(0); at < loadEnd; at += tick {
		base := uint64(at / tick * 20)
		pn.net.At(at, func() {
			for i := 1; i < 4; i++ {
				pn.submit(i, 20, uint64(i)<<32+base)
			}
		})
	}
	pn.net.At(200*time.Millisecond, func() { pn.net.Crash(0) })
	pn.net.At(700*time.Millisecond, func() { pn.net.Restart(0) })
	pn.net.Run(3 * time.Second)

	if len(sent) < 6 {
		t.Fatalf("node 0 sent %d requests: it did not miss a run on every chain", len(sent))
	}
	// Heartbeats keep every chain growing, so the live tip of chain j is
	// what the peers that never crashed, producer j aside, hold of it.
	for j := 1; j < 4; j++ {
		live := uint64(0)
		for k := 1; k < 4; k++ {
			if tip := pn.peers[k].Mempool().Tip(wire.NodeID(j)); k != j && (live == 0 || tip < live) {
				live = tip
			}
		}
		if got := victim.Mempool().Tip(wire.NodeID(j)); got < live {
			t.Errorf("node 0 reached height %d of chain %d, live tip %d", got, j, live)
		}
	}
	var bundles uint64
	for _, s := range sent {
		bundles += s.req.To - s.req.From + 1
	}
	requests, asked, suppressed, retries := victim.PullStats()
	if requests != uint64(len(sent)) || asked != bundles {
		t.Errorf("PullStats counts %d requests for %d bundles; node 0 sent %d for %d", requests, asked, len(sent), bundles)
	}
	t.Logf("%d requests for %d bundles, %d needs suppressed, %d retries, %d answers", requests, asked, suppressed, retries, len(answers))
}
