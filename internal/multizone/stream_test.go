package multizone

import (
	"testing"
	"time"

	"predis/internal/pbft"
	"predis/internal/wire"
)

// TestViewChangeMidStream runs a streaming Multi-Zone cluster and crashes
// the PBFT view-0 leader mid-stream. Every full node must complete blocks
// both before the crash and after the view change, on a gap-free chain
// whose block hashes and state roots agree across full nodes. Under paced
// proposals a clean crash leaves no proposal half-ordered — every in-flight
// pre-prepare has reached all replicas, and the three survivors are a
// quorum — so the starved variant makes one: for the last 50 ms before the
// crash the leader's pre-prepares reach replica 1 only, and the view
// change abandons proposals that could never gather a quorum.
func TestViewChangeMidStream(t *testing.T) {
	const crashAt = 3 * time.Second
	for _, starve := range []bool{false, true} {
		name := map[bool]string{false: "clean_crash", true: "starved_pre-prepares"}[starve]
		t.Run(name, func(t *testing.T) {
			cfg := zoneConfig{
				nc: 4, f: 1, zones: 1, perZone: 6,
				rate: 300, duration: 8 * time.Second,
				stream: true, exec: true,
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
			zc.net.Crash(0)
			zc.net.SetDropFilter(nil)
			atCrash := make(map[wire.NodeID]int, len(zc.fulls))
			for _, fn := range zc.fulls {
				atCrash[fn.ID()] = len(zc.completed[fn.ID()])
			}
			zc.net.Run(cfg.duration)

			if _, changes := zc.hosts[1].Node.Engine().(*pbft.Engine).Stats(); changes == 0 {
				t.Fatal("the leader crash caused no view change")
			}
			ref := zc.ledgers[zc.fulls[0].ID()]
			for _, fn := range zc.fulls {
				id := fn.ID()
				heights := zc.completed[id]
				if atCrash[id] == 0 || len(heights) == atCrash[id] {
					t.Fatalf("full node %d completed %d blocks before the crash and %d after the view change; want both > 0",
						id, atCrash[id], len(heights)-atCrash[id])
				}
				for i, h := range heights {
					if h != uint64(i+1) {
						t.Fatalf("full node %d completed heights %v (gap at %d)", id, heights[:i+1], i)
					}
				}
				led := zc.ledgers[id]
				for h := uint64(1); h <= uint64(min(led.Len(), ref.Len())); h++ {
					got, err := led.Get(h)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Get(h)
					if err != nil {
						t.Fatal(err)
					}
					if got.Hash != want.Hash || got.StateRoot != want.StateRoot {
						t.Fatalf("full node %d height %d: block %s root %s, full node %d has block %s root %s",
							id, h, got.Hash.Short(), got.StateRoot.Short(),
							zc.fulls[0].ID(), want.Hash.Short(), want.StateRoot.Short())
					}
				}
			}
			t.Logf("head %d on full node %d", ref.Len(), zc.fulls[0].ID())
		})
	}
}
