package harness

import (
	"fmt"
	"testing"
	"time"

	"predis/internal/node"
	"predis/internal/pbft"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// refZoneMajor is the full-node loop quickstart, recovery and contention
// each carried before the builder (zone-major IDs, one cross-zone backup,
// 20 ms joins), kept verbatim as the reference the builder must equal.
func refZoneMajor(zones, perZone int) []wiring {
	var out []wiring
	fullID := func(z, k int) wire.NodeID { return wire.NodeID(100 + z*100 + k) }
	join := 0
	for z := 0; z < zones; z++ {
		for k := 0; k < perZone; k++ {
			id := fullID(z, k)
			peers := make([]wire.NodeID, 0, perZone-1)
			for p := 0; p < perZone; p++ {
				if p != k {
					peers = append(peers, fullID(z, p))
				}
			}
			var backups []wire.NodeID
			if zones > 1 {
				backups = append(backups, fullID((z+1)%zones, k%perZone))
			}
			out = append(out, wiring{Slot{id, z}, peers, backups, time.Duration(join) * 20 * time.Millisecond})
			join++
		}
	}
	return out
}

// refRoundRobin is the full-node loop of fig7 (20 ms joins) and fig8
// (15 ms), verbatim.
func refRoundRobin(fullNodes, zones int, spacing time.Duration) []wiring {
	var out []wiring
	fullIDs := make([]wire.NodeID, fullNodes)
	for i := range fullIDs {
		fullIDs[i] = wire.NodeID(100 + i)
	}
	perZone := make([][]wire.NodeID, zones)
	for i, id := range fullIDs {
		z := i % zones
		perZone[z] = append(perZone[z], id)
	}
	for i, id := range fullIDs {
		z := i % zones
		peers := make([]wire.NodeID, 0, len(perZone[z])-1)
		for _, p := range perZone[z] {
			if p != id {
				peers = append(peers, p)
			}
		}
		var backups []wire.NodeID
		if zones > 1 {
			other := perZone[(z+1)%zones]
			if len(other) > 0 {
				backups = append(backups, other[i%len(other)])
			}
		}
		out = append(out, wiring{Slot{id, z}, peers, backups, time.Duration(i) * spacing})
	}
	return out
}

// TestZoneWiring: one wiring rule over a join-ordered list reproduces both
// hand-written layouts, including the uneven full-mode fig8 shapes that
// only a ten-minute run exercises. A wiring's index is its JoinSeq.
func TestZoneWiring(t *testing.T) {
	render := func(ws []wiring) []string {
		out := make([]string, len(ws))
		for join, w := range ws {
			out[join] = fmt.Sprintf("join %d: id %d zone %d peers %v backups %v delay %v",
				join, w.ID, w.Zone, w.Peers, w.Backups, w.Delay)
		}
		return out
	}
	ms := time.Millisecond
	for _, c := range []struct {
		name      string
		got, want []wiring
	}{
		{"zone-major 2x3", zoneWiring(zoneMajor(2, 3), 20*ms), refZoneMajor(2, 3)},
		{"zone-major 8x12", zoneWiring(zoneMajor(8, 12), 20*ms), refZoneMajor(8, 12)},
		{"zone-major 1x2", zoneWiring(zoneMajor(1, 2), 20*ms), refZoneMajor(1, 2)},
		{"round-robin 24/4", zoneWiring(roundRobin(24, 4), 20*ms), refRoundRobin(24, 4, 20*ms)},
		{"round-robin 36/3", zoneWiring(roundRobin(36, 3), 15*ms), refRoundRobin(36, 3, 15*ms)},
		{"round-robin 100/3", zoneWiring(roundRobin(100, 3), 15*ms), refRoundRobin(100, 3, 15*ms)},
		{"round-robin 100/12", zoneWiring(roundRobin(100, 12), 15*ms), refRoundRobin(100, 12, 15*ms)},
	} {
		got, want := render(c.got), render(c.want)
		if len(got) != len(want) || len(got) == 0 {
			t.Errorf("%s: %d full nodes wired, want %d", c.name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: wiring diverges from the loop it replaces:\n  want %s\n  got  %s", c.name, want[i], got[i])
				break
			}
		}
	}
}

// TestBuildTimeline: the clients start 200 ms after the last join, the
// run ends with the load, and the collector measures the last three
// quarters of the load.
func TestBuildTimeline(t *testing.T) {
	const spacing, load = 20 * time.Millisecond, 4 * time.Second
	for _, fulls := range [][]Slot{nil, zoneMajor(2, 3), zoneMajor(8, 12)} {
		dep, err := Deploy{
			Engine: node.EnginePBFT, NC: 4, Fulls: fulls,
			ViewTimeout: time.Second, AliveInterval: 300 * time.Millisecond,
			JoinSpacing: spacing, Offered: 100, Load: load, Seed: 1,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Duration(len(fulls))*spacing + 200*time.Millisecond
		if dep.LoadStart != start || dep.End != start+load {
			t.Errorf("%d full nodes: load runs %v–%v, want %v–%v", len(fulls), dep.LoadStart, dep.End, start, start+load)
		}
		if warm, end := dep.Col.WarmupEnd.Sub(simnet.Epoch), dep.Col.MeasureEnd.Sub(simnet.Epoch); warm != start+load/4 || end != start+load {
			t.Errorf("%d full nodes: collector measures %v–%v, want %v–%v", len(fulls), warm, end, start+load/4, start+load)
		}
		if len(dep.Hosts) != 4 || len(dep.Fulls) != len(fulls) || dep.Net.NodeCount() != 4+len(fulls)+4 {
			t.Errorf("%d full nodes: built %d hosts, %d full nodes, %d nodes in all", len(fulls), len(dep.Hosts), len(dep.Fulls), dep.Net.NodeCount())
		}
	}
}

// TestDeployStreamPBFT: a stream-mode P-PBFT deployment runs the 16-slot
// paced window. Deploy never passed a window, so before the window
// followed from Stream it ran single-slot PBFT with per-arrival sealing.
func TestDeployStreamPBFT(t *testing.T) {
	for _, stream := range []bool{false, true} {
		dep, err := Deploy{
			Engine: node.EnginePBFT, NC: 4, Fulls: zoneMajor(1, 2), Stream: stream,
			ViewTimeout: time.Second, AliveInterval: 250 * time.Millisecond,
			JoinSpacing: 20 * time.Millisecond, Offered: 400, Load: time.Second, Seed: 1,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if stream {
			want = 16
		}
		for i, h := range dep.Hosts {
			if w := h.Node.Engine().(*pbft.Engine).Window(); w != want {
				t.Fatalf("stream %v: host %d PBFT window %d, want %d", stream, i, w, want)
			}
		}
		dep.Net.Start()
		dep.Net.Run(dep.End)
		if _, confirmed, _, _ := dep.Col.Counts(); confirmed == 0 {
			t.Fatalf("stream %v: nothing confirmed", stream)
		}
	}
}
