package harness

import (
	"testing"
	"time"

	"predis/internal/obs"
	"predis/internal/wire"
)

// TestConsensusLaneWAN runs the rung the NIC model was sized on: P-HS at
// nc = 16 on the four-region WAN, 18 000 tx/s. With votes and proposals on
// the consensus lane and a downlink served in arrival order the load is
// confirmed inside the 450 ms limit (613 ms before on this point, 631 ms on
// the benchmark's rung, with the consensus uplinks only 85 % busy); the
// lane's over-commit of any uplink stays
// under 1 % of its bytes; and the schedule replays.
func TestConsensusLaneWAN(t *testing.T) {
	run := func() (PointResult, *obs.Registry, string) {
		tr, reg := NewReplayTrace(), obs.NewRegistry()
		dep, err := Deploy{
			System: SysPHS, NC: 16, WAN: true,
			Offered: 18000, Load: 3 * time.Second, Seed: 1, Replay: tr,
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := dep.Run()
		dep.publish(reg)
		return res, reg, tr.Sum()
	}
	res, reg, sum := run()
	if res.Latency.P99 > 450*time.Millisecond {
		t.Errorf("confirmed p99 %v at 18 000 tx/s, want at most 450ms", res.Latency.P99)
	}
	if res.ClientThroughput < 0.97*18000 {
		t.Errorf("confirmed %.0f tx/s of 18 000 offered", res.ClientThroughput)
	}
	frames := reg.Counter("simnet.lane_frames", wire.NoNode).Value()
	share := reg.Gauge("simnet.lane_max_share", wire.NoNode).Value()
	if frames == 0 || share <= 0 || share >= 0.01 {
		t.Errorf("%d lane frames, largest lane share of an uplink %.4f; want a share in (0, 1%%)", frames, share)
	}
	if _, _, again := run(); again != sum {
		t.Errorf("replay %s, then %s", sum, again)
	}
	t.Logf("p50 %v p99 %v, confirmed %.0f tx/s, %d lane frames, lane share %.4f",
		res.Latency.P50, res.Latency.P99, res.ClientThroughput, frames, share)
}
