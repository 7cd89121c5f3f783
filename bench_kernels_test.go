// Kernel micro-benchmarks for the hot paths on the simulator's profile:
// event scheduling and delivery (simnet), message framing (wire),
// Reed–Solomon striping (erasure), Merkle tree construction, signature
// checking, and the execution plane's block commit. Plain `go test -bench`
// benchmarks: `make smoke ROW=bench` runs each once so they keep
// building; the tracked kernel numbers are predis-perf's kernel pass.
//
// Sizes follow the paper's configuration: 512-byte transactions
// (§V "every transaction has a size of 512 B"), 50-tx bundles, and the
// largest consensus group in the sweeps (n_c = 25, f = 3) for the
// erasure kernels.
package predis

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/erasure"
	"predis/internal/exec"
	"predis/internal/merkle"
	"predis/internal/simnet"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// benchBlob is a minimal registered message carrying an opaque payload,
// sized like a sealed 50-tx bundle. It keeps the kernel benchmarks
// self-contained: codec and simulator costs are measured without
// dragging protocol state machines into the loop.
type benchBlob struct {
	Seq     uint64
	Payload []byte
}

const benchBlobType = wire.TypeRangeTest + 0x40

func (m *benchBlob) Type() wire.Type { return benchBlobType }
func (m *benchBlob) WireSize() int {
	return wire.FrameOverhead + 8 + 4 + len(m.Payload)
}
func (m *benchBlob) EncodeBody(e *wire.Encoder) {
	e.U64(m.Seq)
	e.VarBytes(m.Payload)
}

func decodeBenchBlob(d *wire.Decoder) (wire.Message, error) {
	m := &benchBlob{}
	m.Seq = d.U64()
	m.Payload = d.VarBytes()
	return m, d.Err()
}

var benchRegisterOnce sync.Once

func registerBenchBlob() {
	benchRegisterOnce.Do(func() {
		wire.Register(benchBlobType, "bench.blob", decodeBenchBlob)
	})
}

func benchPayload(n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(42))
	rng.Read(p)
	return p
}

const bundleBytes = 50 * types.DefaultTxSize // one sealed bundle

// BenchmarkSimnetSendDrain measures one Send plus the full event-queue
// cycle behind it (schedule, 4-ary heap push/pop, NIC serialization
// bookkeeping, the arrival and delivery stages, event recycle). Steady
// state is allocation-free; the benchmark's allocs/op pins that.
func BenchmarkSimnetSendDrain(b *testing.B) {
	registerBenchBlob()
	n := simnet.New(simnet.Config{
		Uplink:   simnet.Mbps100,
		Downlink: simnet.Mbps100,
		Latency:  simnet.UniformLatency(time.Millisecond),
	})
	var sctx env.Context
	received := 0
	n.AddNode(0, &env.HandlerFunc{OnStart: func(ctx env.Context) { sctx = ctx }})
	n.AddNode(1, &env.HandlerFunc{OnReceive: func(from wire.NodeID, m wire.Message) { received++ }})
	n.Start()
	msg := &benchBlob{Seq: 1, Payload: benchPayload(bundleBytes)}
	// Warm-up: grow the heap slice, free list, and link-byte map.
	for i := 0; i < 64; i++ {
		sctx.Send(1, msg)
		n.RunUntilIdle(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sctx.Send(1, msg)
		n.RunUntilIdle(0)
	}
	if received == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkSimnetTimerChurn measures arming and firing one timer through
// the event queue — the other high-frequency scheduling path (bundle
// intervals, view timeouts, alive probes).
func BenchmarkSimnetTimerChurn(b *testing.B) {
	n := simnet.New(simnet.Config{})
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		n.At(n.Elapsed()+time.Microsecond, fn)
		n.RunUntilIdle(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.At(n.Elapsed()+time.Microsecond, fn)
		n.RunUntilIdle(0)
	}
	if fired == 0 {
		b.Fatal("timer never fired")
	}
}

// BenchmarkWireMarshal frames a bundle-sized message.
func BenchmarkWireMarshal(b *testing.B) {
	registerBenchBlob()
	msg := &benchBlob{Seq: 7, Payload: benchPayload(bundleBytes)}
	b.SetBytes(int64(msg.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame := wire.Marshal(msg)
		if len(frame) != msg.WireSize() {
			b.Fatal("frame size mismatch")
		}
	}
}

// BenchmarkWireUnmarshal decodes the same frame back.
func BenchmarkWireUnmarshal(b *testing.B) {
	registerBenchBlob()
	msg := &benchBlob{Seq: 7, Payload: benchPayload(bundleBytes)}
	frame := wire.Marshal(msg)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, n, err := wire.Unmarshal(frame)
		if err != nil || n != len(frame) || out == nil {
			b.Fatalf("unmarshal: %v", err)
		}
	}
}

// BenchmarkWireRoundtrip is the simulator's copy-on-deliver path
// (marshal into pooled scratch, decode with copying).
func BenchmarkWireRoundtrip(b *testing.B) {
	registerBenchBlob()
	msg := &benchBlob{Seq: 7, Payload: benchPayload(bundleBytes)}
	b.SetBytes(int64(msg.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Roundtrip(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErasureEncode stripes one bundle at the paper's largest sweep
// point: n_c = 25, f = 3 → (22, 3) Reed–Solomon.
func BenchmarkErasureEncode(b *testing.B) {
	c, err := erasure.New(22, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(bundleBytes)
	shards := c.Split(payload)
	b.SetBytes(bundleBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErasureReconstruct recovers f lost shards from the survivors,
// hitting the memoized decode matrix after the first iteration — the
// steady state Multi-Zone sees when the same relayer subset keeps
// answering.
func BenchmarkErasureReconstruct(b *testing.B) {
	c, err := erasure.New(22, 3)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPayload(bundleBytes)
	full := c.Split(payload)
	if err := c.Encode(full); err != nil {
		b.Fatal(err)
	}
	work := make([][]byte, len(full))
	b.SetBytes(bundleBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, full)
		work[0], work[5], work[23] = nil, nil, nil // two data + one parity
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot50 builds the transaction-list Merkle root of one
// 50-tx bundle, the per-bundle hashing cost on the sealing path.
func BenchmarkMerkleRoot50(b *testing.B) {
	leaves := make([][]byte, 50)
	for i := range leaves {
		leaves[i] = benchPayload(types.DefaultTxSize)
	}
	b.SetBytes(bundleBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if merkle.Root(leaves).IsZero() {
			b.Fatal("zero root")
		}
	}
}

// BenchmarkEd25519SignVerify measures one real signature issue+check,
// the unit cost behind full-crypto (non-Sim) deployments.
func BenchmarkEd25519SignVerify(b *testing.B) {
	s := crypto.NewEd25519Suite(4, 1).Signer(0)
	h := crypto.HashBytes([]byte("bench digest"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := s.Sign(h)
		if !s.Verify(0, h, sig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkHashConcatShort measures the Merkle node combiner's digest
// path (two 32-byte children plus domain prefix — the stack-buffer fast
// path in crypto.HashConcat).
func BenchmarkHashConcatShort(b *testing.B) {
	l := crypto.HashBytes([]byte("left"))
	r := crypto.HashBytes([]byte("right"))
	prefix := []byte{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if crypto.HashConcat(prefix, l[:], r[:]).IsZero() {
			b.Fatal("zero digest")
		}
	}
}

// BenchmarkExecCommit executes one 256-transaction Zipf(0.9) block —
// levelize, kernels, cache merge, incremental state root — on a machine
// whose 16 384 accounts have all been written, the exec_skew shape.
// hashes/op is the digests the commitment computed for the block: it
// scales with the block's distinct writes, not with the 16 k accounts.
func BenchmarkExecCommit(b *testing.B) {
	const accounts, blockTxs = 16384, 256
	ops := workload.NewZipfOps(workload.ZipfConfig{
		Accounts: accounts, Theta: 0.9, RMWFrac: 0.1, Amount: 50, Seed: 1,
	})
	seq := uint64(0)
	block := func(op func() types.Op) []*types.Transaction {
		txs := make([]*types.Transaction, blockTxs)
		for i := range txs {
			txs[i] = types.NewTransaction(1, seq, types.DefaultTxSize, 0).WithOp(op())
			seq++
		}
		return txs
	}
	m := exec.NewMachine(1 << 40) // no account drains: every iteration writes alike
	h := uint64(0)
	for m.Touched() < accounts { // write every account once
		h++
		m.ExecuteBlock(nil, h, block(func() types.Op {
			return types.Op{Kind: types.OpRMW, Writes: []uint64{seq}, Delta: 1}
		}))
	}
	blocks := make([][]*types.Transaction, 64)
	for i := range blocks {
		blocks[i] = block(func() types.Op { return ops.Op(1, seq) })
		h++
		m.ExecuteBlock(nil, h, blocks[i])
	}
	hashes := m.Stats().Hashes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h++
		if m.ExecuteBlock(nil, h, blocks[i%len(blocks)]).StateRoot.IsZero() {
			b.Fatal("zero state root")
		}
	}
	b.ReportMetric(float64(m.Stats().Hashes-hashes)/float64(b.N), "hashes/op")
}
