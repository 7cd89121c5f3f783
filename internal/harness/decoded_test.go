package harness

import (
	"testing"
	"time"

	"predis/internal/wire"
)

// TestDecodedDeliveryMatchesShared: a deployment whose every delivery is
// decoded afresh from its frame (wire.Roundtrip as the network's mutator)
// replays exactly as the simulator's shared pointers do, under P-PBFT and
// P-HS in block and stream mode. Decoded messages start with every memo
// empty at every receiver, so a check-once memo that changed what a node
// accepts, stores or sends would show here as a digest mismatch.
func TestDecodedDeliveryMatchesShared(t *testing.T) {
	for _, sys := range []System{SysPPBFT, SysPHS} {
		for _, stream := range []bool{false, true} {
			run := func(decoded bool) (string, uint64) {
				tr := NewReplayTrace()
				dep, err := Deploy{
					System: sys, NC: 4, Fulls: ZoneMajor(2, 3), Stream: stream,
					Offered: 1000, Load: time.Second, Seed: 3, Replay: tr,
				}.Build()
				if err != nil {
					t.Fatal(err)
				}
				if decoded {
					dep.Net.SetMutator(func(_, _ wire.NodeID, m wire.Message) wire.Message {
						out, err := wire.Roundtrip(m)
						if err != nil {
							t.Fatalf("%s: %v", wire.TypeName(m.Type()), err)
						}
						return out
					})
				}
				dep.Run()
				for _, fn := range dep.Fulls {
					if _, _, blocks := fn.Stats(); blocks == 0 {
						t.Fatalf("%s stream=%v decoded=%v: full node %d completed no block", sys, stream, decoded, fn.ID())
					}
				}
				return tr.Sum(), tr.Deliveries()
			}
			shared, n := run(false)
			decoded, m := run(true)
			if shared != decoded || n != m {
				t.Errorf("%s stream=%v: shared pointers %s over %d deliveries, decoded %s over %d",
					sys, stream, shared, n, decoded, m)
			}
		}
	}
}
