package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"predis/internal/core"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// TestReplayQuickstartDeterministic runs the quickstart-style experiment
// twice with the same seed and asserts the delivery traces — and the
// measured results — are byte-identical. This is the runtime backstop
// behind the predis-lint determinism analyzers: anything they cannot see
// statically (a wall clock smuggled through a new dependency, goroutine
// scheduling, map-order emission) shows up here as a hash mismatch.
func TestReplayQuickstartDeterministic(t *testing.T) {
	run := func() (string, uint64, string) {
		tr := NewReplayTrace()
		res, err := measure(Deploy{
			System: SysPHS, NC: 4,
			Offered: 1000, Load: 1500 * time.Millisecond, Seed: 42, Replay: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Sum(), tr.Deliveries(), fmt.Sprintf("%+v", res)
	}

	h1, n1, r1 := run()
	h2, n2, r2 := run()
	if n1 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed runs diverged: %d deliveries %s vs %d deliveries %s",
			n1, h1, n2, h2)
	}
	if r1 != r2 {
		t.Fatalf("same-seed results diverged:\n  %s\n  %s", r1, r2)
	}
}

// replayHashOnce runs the canonical replay workload once and returns its
// delivery-trace digest (shared by the in-process and cross-process
// determinism tests).
func replayHashOnce(t *testing.T) (string, uint64) {
	t.Helper()
	tr := NewReplayTrace()
	if _, err := measure(Deploy{
		System: SysPHS, NC: 4,
		Offered: 1000, Load: 1500 * time.Millisecond, Seed: 42, Replay: tr,
	}); err != nil {
		t.Fatal(err)
	}
	return tr.Sum(), tr.Deliveries()
}

// replayChildEnv marks a re-exec'd child process that should run the
// replay workload once and print its digest instead of the full test.
const replayChildEnv = "PREDIS_REPLAY_CHILD"

// TestReplayCrossProcessDeterministic re-executes the test binary twice
// — two separate OS processes, hence two different Go map-hash seeds and
// scheduler histories — and asserts both produce the same delivery-trace
// digest as an in-process run. This pins the strongest form of the
// determinism contract: simulations are byte-identical across process
// runs, not merely within one process.
func TestReplayCrossProcessDeterministic(t *testing.T) {
	if os.Getenv(replayChildEnv) == "1" {
		h, n := replayHashOnce(t)
		fmt.Printf("REPLAY %s %d\n", h, n)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	child := func() string {
		cmd := exec.Command(exe, "-test.run=^TestReplayCrossProcessDeterministic$", "-test.v")
		cmd.Env = append(os.Environ(), replayChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child run failed: %v\n%s", err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "REPLAY "); ok {
				return rest
			}
		}
		t.Fatalf("child produced no REPLAY line:\n%s", out)
		return ""
	}
	h0, n0 := replayHashOnce(t)
	local := fmt.Sprintf("%s %d", h0, n0)
	c1 := child()
	c2 := child()
	if n0 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if c1 != local || c2 != local {
		t.Fatalf("cross-process runs diverged:\n  in-process: %s\n  child 1:    %s\n  child 2:    %s",
			local, c1, c2)
	}
}

// TestReplayRecoveryDeterministic does the same for the crash-recovery
// experiment: the fault injector, catch-up protocol, and Multi-Zone
// relays must all be replay-deterministic under a fixed seed.
func TestReplayRecoveryDeterministic(t *testing.T) {
	run := func() (string, uint64, string) {
		tr := NewReplayTrace()
		d := recoveryDeploy(3, 1500, 6*time.Second, 7)
		d.Replay = tr
		res, err := runRecovery(recoverySpec{
			Deploy: d, bucket: 500 * time.Millisecond,
			crashFrom: 2 * time.Second, crashTo: 3500 * time.Millisecond,
			victimConsensus: false,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := fmt.Sprintf("buckets=%v trace=%q victim=%d live=%d catchingUp=%v",
			res.buckets, res.trace, res.victimHead, res.liveHead, res.catchingUp)
		return tr.Sum(), tr.Deliveries(), state
	}

	h1, n1, s1 := run()
	h2, n2, s2 := run()
	if n1 == 0 {
		t.Fatal("replay trace recorded no deliveries")
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed recovery runs diverged: %d deliveries %s vs %d deliveries %s",
			n1, h1, n2, h2)
	}
	if s1 != s2 {
		t.Fatalf("same-seed recovery state diverged:\n  %s\n  %s", s1, s2)
	}
}

// TestReplayTraceRecordAllocs: record runs once per delivered message on
// every workload, so it must not allocate — and holding its scratch in
// the struct must not change the digest.
func TestReplayTraceRecordAllocs(t *testing.T) {
	tr := NewReplayTrace()
	m := &core.BundleRequest{Producer: 1, From: 2, To: 3}
	at := simnet.Epoch.Add(time.Second)
	if a := testing.AllocsPerRun(100, func() { tr.record(4, 5, m, at) }); a != 0 {
		t.Errorf("ReplayTrace.record allocates %.1f per delivery, want 0", a)
	}
	a, b := NewReplayTrace(), NewReplayTrace()
	a.record(4, 5, m, at)
	b.record(4, 5, m, at)
	if a.Sum() != b.Sum() || a.Deliveries() != 1 {
		t.Fatal("identical deliveries must fold to identical digests")
	}
	b.record(5, 4, m, at)
	if a.Sum() == b.Sum() {
		t.Fatal("digest ignored a delivery")
	}
}

// stubMsg is a message with a chosen type and wire size, for feeding
// ReplayTrace arbitrary deliveries.
type stubMsg struct {
	typ  wire.Type
	size int
}

func (m stubMsg) Type() wire.Type          { return m.typ }
func (m stubMsg) WireSize() int            { return m.size }
func (m stubMsg) EncodeBody(*wire.Encoder) {}

// TestReplayTraceBatchesRecords: the buffered trace hashes to exactly the
// digest of its 28-byte records written one by one, over a random stream
// that crosses the buffer boundary several times, with a Sum taken midway
// (a partial buffer hashed early must not change what follows).
func TestReplayTraceBatchesRecords(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 55))
	tr, ref := NewReplayTrace(), sha256.New()
	var rec [replayRecord]byte
	n := 3*replayBatch + replayBatch/2 + 3
	for i := range n {
		from, to := wire.NodeID(rng.Uint32N(200)), wire.NodeID(rng.Uint32N(200))
		m := stubMsg{typ: wire.Type(rng.Uint32N(1 << 16)), size: int(rng.Uint32N(1 << 20))}
		at := simnet.Epoch.Add(time.Duration(rng.Int64N(int64(time.Hour))))
		tr.record(from, to, m, at)
		binary.LittleEndian.PutUint32(rec[0:], uint32(from))
		binary.LittleEndian.PutUint32(rec[4:], uint32(to))
		binary.LittleEndian.PutUint16(rec[8:], uint16(m.typ))
		binary.LittleEndian.PutUint64(rec[10:], uint64(m.size))
		binary.LittleEndian.PutUint64(rec[18:], uint64(at.Sub(simnet.Epoch)))
		ref.Write(rec[:])
		if i == replayBatch+replayBatch/3 || i == n-1 {
			if got, want := tr.Sum(), hex.EncodeToString(ref.Sum(nil)); got != want {
				t.Fatalf("after %d records: buffered digest %s, per-record digest %s", i+1, got, want)
			}
		}
	}
	if tr.Deliveries() != uint64(n) {
		t.Fatalf("Deliveries() = %d, want %d", tr.Deliveries(), n)
	}
}
