package simnet

import (
	"testing"
	"time"

	"predis/internal/wire"
)

// TestDenseIndexStableUnderChurn pins the interning contract: a node's
// dense index is assigned once at registration and survives any amount
// of crash/restart churn — obs samplers key on it across the whole run.
func TestDenseIndexStableUnderChurn(t *testing.T) {
	registerTestTypes()
	n := New(Config{
		Uplink: Mbps100, Downlink: Mbps100,
		Latency: UniformLatency(time.Millisecond),
	})
	const nodes = 50
	// Register out of ID order so index order ≠ ID order.
	for i := nodes - 1; i >= 0; i-- {
		n.AddNode(wire.NodeID(i), &recorder{})
	}
	n.Start()

	before := make(map[wire.NodeID]int32)
	for i := 0; i < nodes; i++ {
		idx, ok := n.Index(wire.NodeID(i))
		if !ok {
			t.Fatalf("node %d has no index", i)
		}
		before[wire.NodeID(i)] = idx
	}

	// Churn: crash and restart every other node, twice.
	for round := 0; round < 2; round++ {
		for i := 0; i < nodes; i += 2 {
			n.Crash(wire.NodeID(i))
		}
		n.RunUntilIdle(0)
		for i := 0; i < nodes; i += 2 {
			n.Restart(wire.NodeID(i))
		}
		n.RunUntilIdle(0)
	}

	for id, want := range before {
		got, ok := n.Index(id)
		if !ok || got != want {
			t.Fatalf("node %d index changed across churn: %d -> %d (ok=%v)", id, want, got, ok)
		}
		if back, _, _, _, _ := n.NodeStatsAt(got); back != id {
			t.Fatalf("NodeStatsAt(%d) resolves to node %d, want %d", got, back, id)
		}
		if n.Crashed(id) {
			t.Fatalf("node %d still marked crashed after restart", id)
		}
	}

	// SortedIndexes must walk ascending IDs even though registration was
	// descending — it is the replay-critical Start/sampler sweep order.
	idxs := n.SortedIndexes()
	if len(idxs) != nodes {
		t.Fatalf("SortedIndexes returned %d entries, want %d", len(idxs), nodes)
	}
	for i, idx := range idxs {
		if id, _, _, _, _ := n.NodeStatsAt(idx); id != wire.NodeID(i) {
			t.Fatalf("SortedIndexes[%d] resolves to node %d, want %d", i, id, i)
		}
	}
}

// TestSendZeroAllocLargePopulation pins steady-state Send+drain at zero
// allocations above 1 024 nodes: the simulator keeps no per-link state, so
// no population size changes what a Send costs.
func TestSendZeroAllocLargePopulation(t *testing.T) {
	registerTestTypes()
	n := New(Config{
		Uplink: Mbps100, Downlink: Mbps100,
		Latency: UniformLatency(time.Millisecond),
	})
	const nodes = 1100
	recs := make([]*recorder, nodes)
	for i := range recs {
		recs[i] = &recorder{}
		n.AddNode(wire.NodeID(i), recs[i])
	}
	n.Start()
	msg := &ping{Seq: 1, Size: 64}
	ring := func() {
		for f := 0; f < nodes; f++ {
			recs[f].ctx.Send(wire.NodeID((f+1)%nodes), msg)
		}
		n.RunUntilIdle(0)
		for _, r := range recs {
			r.got = r.got[:0]
		}
	}
	// Warm-up: the event free list and the receivers' slices stop growing.
	for i := 0; i < 4; i++ {
		ring()
	}
	if allocs := testing.AllocsPerRun(20, ring); allocs != 0 {
		t.Fatalf("steady-state Send+drain over %d nodes allocates %v allocs/op, want 0", nodes, allocs)
	}
}

// TestFanOutZeroAlloc pins the population fan-out path: one sender
// unicasting to many registered receivers (the tree-relay shape) stays
// allocation-free in steady state, independent of population size.
func TestFanOutZeroAlloc(t *testing.T) {
	registerTestTypes()
	n := New(Config{
		Uplink: Mbps100, Downlink: Mbps100,
		Latency: UniformLatency(time.Millisecond),
	})
	const fanout = 32
	src := &recorder{}
	n.AddNode(0, src)
	sinks := make([]*recorder, fanout)
	for i := range sinks {
		sinks[i] = &recorder{}
		n.AddNode(wire.NodeID(1+i), sinks[i])
	}
	n.Start()
	msg := &ping{Seq: 1, Size: 1024}

	for i := 0; i < 64; i++ {
		for k := 0; k < fanout; k++ {
			src.ctx.Send(wire.NodeID(1+k), msg)
		}
		n.RunUntilIdle(0)
		for _, s := range sinks {
			s.got = s.got[:0]
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < fanout; k++ {
			src.ctx.Send(wire.NodeID(1+k), msg)
		}
		n.RunUntilIdle(0)
		for _, s := range sinks {
			s.got = s.got[:0]
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state %d-way fan-out allocates %v allocs/op, want 0", fanout, allocs)
	}
}
