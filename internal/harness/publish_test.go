package harness

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"predis/internal/node"
	"predis/internal/obs"
	"predis/internal/pbft"
	"predis/internal/wire"
)

// TestPublishMatchesAccessors: publish is the one path from the
// components' counters to a registry. After a small P-PBFT stream run with
// two zones of full nodes, the registry holds exactly one row per counter
// an accessor exposes, under its name and with its value: a counter
// published twice, under a wrong name, or not at all fails.
func TestPublishMatchesAccessors(t *testing.T) {
	dep, err := Deploy{
		Engine: node.EnginePBFT, NC: 4, Fulls: zoneMajor(2, 2), Stream: true,
		ViewTimeout: 2 * time.Second, AliveInterval: 300 * time.Millisecond,
		JoinSpacing: 20 * time.Millisecond,
		Offered:     1000, Load: time.Second, Seed: 1,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep.Net.Start()
	dep.Net.Run(dep.End)
	nodes := make([]*node.Node, len(dep.Hosts))
	for i, host := range dep.Hosts {
		nodes[i] = host.Node
	}
	reg := obs.NewRegistry()
	publish(reg, dep.Net, nodes, dep.Fulls)

	// want maps "metric,node" to the value its accessor reports.
	want := map[string]float64{}
	put := func(metric string, id wire.NodeID, v float64) {
		node := "-"
		if id != wire.NoNode {
			node = strconv.FormatUint(uint64(id), 10)
		}
		want[metric+","+node] = v
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var committed, sealed uint64
	for i, n := range nodes {
		id := wire.NodeID(i)
		produced, accepted, txs := n.Predis().Stats()
		seals, wait := n.Predis().Seals()
		put("bundle_produced", id, float64(produced))
		put("bundle_accepted", id, float64(accepted))
		put("txs_committed", id, float64(txs))
		put("bundle_sealed", id, float64(seals))
		put("bundle_seal_wait_ms", id, ms(wait))
		committed, sealed = committed+txs, sealed+seals
		gap, delayed, delay := n.Engine().(*pbft.Engine).Pace()
		put("pbft.pace_gap_ms", id, ms(gap))
		put("pbft.pace_delayed", id, float64(delayed))
		put("pbft.pace_delay_ms", id, ms(delay))
	}
	for _, fn := range dep.Fulls {
		requests, bundles, _, _ := fn.PullStats()
		parked, resolved, expired, wait := fn.ParkStats()
		put("multizone.pull_requests", fn.ID(), float64(requests))
		put("multizone.pull_bundles", fn.ID(), float64(bundles))
		put("multizone.parked", fn.ID(), float64(parked))
		put("multizone.park_resolved", fn.ID(), float64(resolved))
		put("multizone.park_expired", fn.ID(), float64(expired))
		put("multizone.park_wait_max_ms", fn.ID(), ms(wait))
	}
	lane := dep.Net.LaneStats()
	put("simnet.lane_frames", wire.NoNode, float64(lane.Frames))
	put("simnet.lane_bytes", wire.NoNode, float64(lane.Bytes))
	put("simnet.lane_max_share", wire.NoNode, lane.MaxShare)
	if committed == 0 || sealed == 0 || lane.Frames == 0 {
		t.Fatalf("%d transactions committed, %d bundles sealed, %d lane frames: the run did nothing",
			committed, sealed, lane.Frames)
	}

	var buf bytes.Buffer
	if err := reg.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "metric,node,field,value" {
		t.Fatalf("header %q", lines[0])
	}
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 4 || f[2] != "value" {
			t.Errorf("row %q: want one value field", line)
			continue
		}
		key := f[0] + "," + f[1]
		w, ok := want[key]
		switch v, err := strconv.ParseFloat(f[3], 64); {
		case seen[key]:
			t.Errorf("row %q published twice", key)
		case !ok:
			t.Errorf("row %q has no accessor", line)
		case err != nil || math.Abs(v-w) > 1e-4:
			t.Errorf("row %q: accessor says %v", line, w)
		}
		seen[key] = true
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("%s not published", key)
		}
	}
}
