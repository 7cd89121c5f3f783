package simnet

import (
	"math/rand"
	"testing"
	"time"

	"predis/internal/wire"
)

// vote is a test message under the PBFT type range: small ones take the
// consensus lane, large ones (a batch-carrying proposal) stay bulk.
type vote struct{ Size uint32 }

const voteType = wire.TypeRangePBFT + 0x7e

func (v *vote) Type() wire.Type            { return voteType }
func (v *vote) WireSize() int              { return wire.FrameOverhead + int(v.Size) }
func (v *vote) EncodeBody(e *wire.Encoder) { e.Raw(make([]byte, v.Size)) }

// bundlePing is a ping the size of one Predis bundle copy (50 × 220 B).
func bundlePing(seq uint64) *ping { return &ping{Seq: seq, Size: 11_000} }

// TestDownlinkServesArrivalOrder is the artefact the arrival-ordered
// downlink removes: a small frame from a 1 ms neighbour, sent 2 ms after a
// bulk frame from a peer 20 ms away, reaches the receiver 17 ms before the
// bulk frame's first bit and must not wait for it.
func TestDownlinkServesArrivalOrder(t *testing.T) {
	registerTestTypes()
	const far, near, recv = 0, 1, 2
	n := New(Config{Uplink: Mbps100, Downlink: Mbps100, Latency: func(from, to wire.NodeID) time.Duration {
		if from == far {
			return 20 * time.Millisecond
		}
		return time.Millisecond
	}})
	a, b, c := &recorder{}, &recorder{}, &recorder{}
	n.AddNode(far, a)
	n.AddNode(near, b)
	n.AddNode(recv, c)
	n.Start()
	bulk, small := bundlePing(1), &ping{Seq: 2, Size: 100}
	a.ctx.Send(recv, bulk)
	n.At(2*time.Millisecond, func() { b.ctx.Send(recv, small) })
	n.Run(time.Second)

	if len(c.got) != 2 || c.got[0].from != near || c.got[1].from != far {
		t.Fatalf("deliveries %+v, want the near sender's frame first", c.got)
	}
	wantSmall := 2*time.Millisecond + time.Millisecond + txTime(small.WireSize(), Mbps100)
	wantBulk := 20*time.Millisecond + txTime(bulk.WireSize(), Mbps100)
	if got := c.got[0].at.Sub(Epoch); got != wantSmall {
		t.Errorf("small frame delivered at %v, want %v (an idle downlink must not make it wait)", got, wantSmall)
	}
	if got := c.got[1].at.Sub(Epoch); got != wantBulk {
		t.Errorf("bulk frame delivered at %v, want %v", got, wantBulk)
	}
}

// TestDownlinkWorkConserving checks the queueing discipline on random
// traffic: senders at random distances with unlimited uplinks (so a frame
// has fully arrived `latency` after its Send) feed one 100 Mbps downlink.
// A frame whose reception starts later than it arrived must start exactly
// when the previous reception ends — the link never idles over a waiting
// frame — and frames are served in arrival order.
func TestDownlinkWorkConserving(t *testing.T) {
	registerTestTypes()
	const senders, frames, recv = 6, 200, 100
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lat := make([]time.Duration, senders)
		for i := range lat {
			lat[i] = time.Duration(1+rng.Intn(40)) * time.Millisecond
		}
		n := New(Config{Latency: func(from, to wire.NodeID) time.Duration { return lat[from] }})
		src := make([]*recorder, senders)
		for i := range src {
			src[i] = &recorder{}
			n.AddNodeRates(wire.NodeID(i), src[i], 0, 0)
		}
		sink := &recorder{}
		n.AddNodeRates(recv, sink, 0, Mbps100)
		n.Start()

		arrival := make(map[uint64]time.Duration, frames)
		for seq := uint64(0); seq < frames; seq++ {
			from := rng.Intn(senders)
			at := time.Duration(rng.Intn(100_000)) * time.Microsecond
			msg := &ping{Seq: seq, Size: uint32(50 + rng.Intn(12_000))}
			arrival[seq] = at + lat[from]
			n.At(at, func() { src[from].ctx.Send(recv, msg) })
		}
		n.Run(10 * time.Second)
		if len(sink.got) != frames {
			t.Fatalf("seed %d: %d of %d frames delivered", seed, len(sink.got), frames)
		}
		var busy, prevEnd, prevArrival time.Duration
		for i, g := range sink.got {
			p := g.m.(*ping)
			tx := txTime(p.WireSize(), Mbps100)
			end := g.at.Sub(Epoch)
			start, arrived := end-tx, arrival[p.Seq]
			switch {
			case start < arrived:
				t.Fatalf("seed %d frame %d: reception starts at %v, before it arrived at %v", seed, i, start, arrived)
			case start > arrived && start != prevEnd:
				t.Fatalf("seed %d frame %d: arrived %v, reception starts %v, previous ended %v: the downlink idled over a waiting frame",
					seed, i, arrived, start, prevEnd)
			case arrived < prevArrival:
				t.Fatalf("seed %d frame %d: served out of arrival order (%v after %v)", seed, i, arrived, prevArrival)
			}
			busy += tx
			prevEnd, prevArrival = end, arrived
		}
		if _, down := n.NICBusy(recv); down != busy {
			t.Fatalf("seed %d: downlink busy %v, want %v", seed, down, busy)
		}
	}
}

// TestConsensusLane pins the uplink's lane rule on the burst every Predis
// producer emits: 15 bundle copies queued at once, then a vote. The vote
// leaves at once and is not charged the burst; two votes serialise against
// each other; bulk already queued keeps its slot; and the next bulk frame
// queues behind the burst and the votes' bytes.
func TestConsensusLane(t *testing.T) {
	registerTestTypes()
	const lat = 5 * time.Millisecond
	n := New(Config{Latency: UniformLatency(lat)})
	send := &recorder{}
	n.AddNodeRates(0, send, Mbps100, 0)
	peers := make([]*recorder, 17)
	for i := range peers {
		peers[i] = &recorder{}
		n.AddNodeRates(wire.NodeID(1+i), peers[i], 0, 0)
	}
	n.Start()

	bulk, v := bundlePing(1), &vote{Size: 112}
	bulkTx, voteTx := txTime(bulk.WireSize(), Mbps100), txTime(v.WireSize(), Mbps100)
	for i := 0; i < 15; i++ {
		send.ctx.Send(wire.NodeID(1+i), bulk)
	}
	send.ctx.Send(16, v)
	send.ctx.Send(16, v)
	send.ctx.Send(17, bulk)
	n.Run(time.Second)

	at := func(r *recorder, i int) time.Duration {
		t.Helper()
		if len(r.got) <= i {
			t.Fatalf("peer got %d messages, want more than %d", len(r.got), i)
		}
		return r.got[i].at.Sub(Epoch)
	}
	if got, want := at(peers[15], 0), lat+voteTx; got != want {
		t.Errorf("first vote delivered at %v, want %v: it must leave at once, not behind the 15-copy burst (%v)",
			got, want, 15*bulkTx)
	}
	if got, want := at(peers[15], 1), lat+2*voteTx; got != want {
		t.Errorf("second vote delivered at %v, want %v: lane frames serialise among themselves", got, want)
	}
	if got, want := at(peers[14], 0), lat+15*bulkTx; got != want {
		t.Errorf("last queued bundle copy delivered at %v, want %v: reserved bulk keeps its slot", got, want)
	}
	if got, want := at(peers[16], 0), lat+16*bulkTx+2*voteTx; got != want {
		t.Errorf("next bulk frame delivered at %v, want %v: it pays for the lane frames", got, want)
	}

	up, _ := n.NICBusy(0)
	if want := 16*bulkTx + 2*voteTx; up != want {
		t.Errorf("uplink busy %v, want %v", up, want)
	}
	st := n.LaneStats()
	laneBytes := uint64(2 * v.WireSize())
	if st.Frames != 2 || st.Bytes != laneBytes {
		t.Errorf("LaneStats = %+v, want 2 frames, %d bytes", st, laneBytes)
	}
	if want := float64(laneBytes) / float64(laneBytes+16*uint64(bulk.WireSize())); st.MaxShare != want {
		t.Errorf("LaneStats.MaxShare = %v, want %v", st.MaxShare, want)
	}

	// A proposal that carries its batch is bulk whatever its type tag.
	big := &vote{Size: 400_000}
	send.ctx.Send(16, big)
	send.ctx.Send(16, v)
	start := n.Elapsed()
	n.Run(2 * time.Second)
	if got, want := at(peers[15], 2), start+lat+voteTx; got != want {
		t.Errorf("vote behind a batch-carrying proposal delivered at %v, want %v", got, want)
	}
	if got, want := at(peers[15], 3), start+lat+txTime(big.WireSize(), Mbps100); got != want {
		t.Errorf("batch-carrying proposal delivered at %v, want %v", got, want)
	}
	if st := n.LaneStats(); st.Frames != 3 {
		t.Errorf("lane frames = %d, want 3: a 400 kB frame is not a lane frame", st.Frames)
	}
}

// TestCrashAroundArrival covers the two sides of the arrival stage: a
// receiver that is down when the first bit arrives is charged nothing, one
// that goes down between arrival and delivery keeps the downlink charge,
// and either way the message is one Crashed drop.
func TestCrashAroundArrival(t *testing.T) {
	msg := &ping{Seq: 1, Size: 125_000} // ≈10 ms at 100 Mbps: arrives at 5 ms, delivered at 15 ms
	for _, c := range []struct {
		name      string
		crashAt   time.Duration
		wantBytes uint64
	}{
		{"before arrival", 2 * time.Millisecond, 0},
		{"between arrival and delivery", 8 * time.Millisecond, uint64(msg.WireSize())},
	} {
		n, a, b := sendProbe(t, Config{Latency: UniformLatency(5 * time.Millisecond)})
		a.ctx.Send(1, msg)
		n.At(c.crashAt, func() { n.Crash(1) })
		n.Run(time.Second)
		if len(b.got) != 0 {
			t.Fatalf("%s: crashed receiver got %d messages", c.name, len(b.got))
		}
		if got := n.Dropped(); got != (DropCounts{Crashed: 1}) {
			t.Fatalf("%s: Dropped = %+v, want Crashed:1", c.name, got)
		}
		_, recvd := n.NodeBytes(1)
		_, down := n.NICBusy(1)
		if recvd != c.wantBytes || (down > 0) != (c.wantBytes > 0) {
			t.Fatalf("%s: receiver charged %d bytes, %v busy; want %d bytes", c.name, recvd, down, c.wantBytes)
		}
		if n.Sends() != n.Delivered()+n.Dropped().Total() {
			t.Fatalf("%s: invariant broken: sends=%d delivered=%d drops=%d",
				c.name, n.Sends(), n.Delivered(), n.Dropped().Total())
		}
	}
}

// TestLaneAndBulkInvariant drives mixed lane and bulk traffic with loss and
// a mid-run crash and checks the accounting identity after quiesce.
func TestLaneAndBulkInvariant(t *testing.T) {
	registerTestTypes()
	n := New(Config{Uplink: Mbps100, Downlink: Mbps100, Latency: UniformLatency(3 * time.Millisecond), Seed: 3})
	loss := rand.New(rand.NewSource(3))
	n.SetDropFilter(func(from, to wire.NodeID, m wire.Message) bool { return loss.Float64() < 0.1 })
	nodes := make([]*recorder, 4)
	for i := range nodes {
		nodes[i] = &recorder{}
		n.AddNode(wire.NodeID(i), nodes[i])
	}
	n.Start()
	for round := 0; round < 50; round++ {
		n.At(time.Duration(round)*time.Millisecond, func() {
			for i, from := range nodes {
				for to := range nodes {
					if to != i {
						from.ctx.Send(wire.NodeID(to), bundlePing(uint64(round)))
						from.ctx.Send(wire.NodeID(to), &vote{Size: 112})
					}
				}
			}
		})
	}
	n.At(20*time.Millisecond, func() { n.Crash(3) })
	n.RunUntilIdle(0)
	if n.Sends() == 0 || n.Sends() != n.Delivered()+n.Dropped().Total() {
		t.Fatalf("invariant broken: sends=%d delivered=%d drops=%+v", n.Sends(), n.Delivered(), n.Dropped())
	}
	if d := n.Dropped(); d.Crashed == 0 || d.Filtered == 0 {
		t.Fatalf("want crash and loss drops, got %+v", d)
	}
}
