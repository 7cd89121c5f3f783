package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"predis/internal/core"
	"predis/internal/crypto"
	"predis/internal/erasure"
	"predis/internal/exec"
	"predis/internal/ledger"
	"predis/internal/merkle"
	"predis/internal/multizone"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

// The kernel pass times leaf-layer public functions directly on
// workload-shaped inputs: a 50 × 512 B bundle, nc=4 f=1 and nc=16 f=5
// striping, and the exec_skew Zipf stream.

// kernelSink keeps measured results alive.
var kernelSink int

// nsPerOp times fn: batches sized to about 5 ms each, median of five.
func nsPerOp(fn func()) float64 {
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	n := 1
	if once > 0 && once < 5*time.Millisecond {
		n = int(5 * time.Millisecond / once)
	}
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches)
}

func kernelTxs(n int, ops func(wire.NodeID, uint64) types.Op, firstSeq uint64) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		seq := firstSeq + uint64(i)
		txs[i] = types.NewTransaction(clientBase, seq, types.DefaultTxSize, 0)
		if ops != nil {
			txs[i].WithOp(ops(clientBase, seq))
		}
	}
	return txs
}

// kernelMetrics runs every kernel and returns metric name → value.
// blockTxs is the workload's measured consensus.txs_per_block, the
// block size the exec kernels replay at.
func kernelMetrics(seed int64, blockTxs int) (map[string]float64, error) {
	out := map[string]float64{}
	us := func(name string, fn func()) { out[name] = nsPerOp(fn) / 1e3 }
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, bundleSize*types.DefaultTxSize)
	rng.Read(payload)

	// wire: one sealed bundle through the codec.
	signer := crypto.NewSimSuite(4, uint64(seed)+7).Signer(0)
	txs := kernelTxs(bundleSize, nil, 1)
	msg := &core.BundleMsg{Bundle: core.PackBundle(signer, 0, nil, txs, make(core.TipList, 4))}
	frame := wire.Marshal(msg)
	us("wire.marshal_bundle_us", func() { kernelSink += len(wire.Marshal(msg)) })
	var decodeErr error
	us("wire.unmarshal_bundle_us", func() {
		if _, _, err := wire.Unmarshal(frame); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("kernel wire.unmarshal: %w", decodeErr)
	}
	out["wire.size_bundle_ns"] = nsPerOp(func() { kernelSink += msg.WireSize() })

	// crypto and merkle: the signer the deployments use, bundle-sized hashing.
	digest := crypto.HashBytes(payload[:64])
	sig := signer.Sign(digest)
	us("crypto.sign_us", func() { kernelSink += len(signer.Sign(digest)) })
	us("crypto.verify_us", func() {
		if !signer.Verify(0, digest, sig) {
			kernelSink++
		}
	})
	us("crypto.hash_25k_us", func() { kernelSink += int(crypto.HashBytes(payload)[0]) })
	leaves := make([][]byte, bundleSize)
	for i := range leaves {
		leaves[i] = payload[i*types.DefaultTxSize : (i+1)*types.DefaultTxSize]
	}
	us("merkle.root50_us", func() { kernelSink += int(merkle.Root(leaves)[0]) })
	tree := merkle.NewTree(leaves)
	root := tree.Root()
	var proofErr error
	us("merkle.prove_verify_us", func() {
		proof, err := tree.Proof(17)
		if err != nil || !merkle.Verify(root, leaves[17], 17, len(leaves), proof) {
			proofErr = fmt.Errorf("kernel merkle: proof 17 rejected (%v)", err)
		}
	})
	if proofErr != nil {
		return nil, proofErr
	}

	// erasure: the nc=4 f=1 code on one bundle body.
	coder, err := erasure.New(3, 1)
	if err != nil {
		return nil, err
	}
	shards := coder.Split(payload)
	var codeErr error
	us("erasure.encode_25k_us", func() {
		if err := coder.Encode(shards); err != nil {
			codeErr = err
		}
	})
	work := make([][]byte, len(shards))
	us("erasure.reconstruct_25k_us", func() {
		copy(work, shards)
		work[0] = nil
		if err := coder.Reconstruct(work); err != nil {
			codeErr = err
		}
	})
	if codeErr != nil {
		return nil, fmt.Errorf("kernel erasure: %w", codeErr)
	}

	// multizone: stripe encode at both group sizes, reassembly at nc=4.
	for _, g := range []struct{ nc, f int }{{4, 1}, {16, 5}} {
		striper, err := multizone.NewStriper(g.nc, g.f)
		if err != nil {
			return nil, err
		}
		var set *multizone.StripeSet
		us(fmt.Sprintf("multizone.stripe_encode_us_nc%d", g.nc), func() {
			if set, err = striper.Encode(txs); err != nil {
				codeErr = err
			}
		})
		if codeErr != nil {
			return nil, fmt.Errorf("kernel stripe encode: %w", codeErr)
		}
		if g.nc != 4 {
			continue
		}
		b := core.PackBundleStriped(signer, 0, nil, txs, make(core.TipList, g.nc), set.Root)
		// Stripe 0 is missing, so reassembly pays a real reconstruct.
		// Each op gets fresh copies: Reassemble memoizes on the messages.
		pristine := make([]*multizone.StripeMsg, g.nc)
		for i := 1; i < g.nc; i++ {
			if pristine[i], err = set.Stripe(b.Header, i); err != nil {
				return nil, err
			}
		}
		stripes := make([]*multizone.StripeMsg, g.nc)
		us("multizone.stripe_reassemble_us_nc4", func() {
			for i := 1; i < g.nc; i++ {
				cp := *pristine[i]
				stripes[i] = &cp
			}
			if _, err := striper.Reassemble(b.Header, stripes); err != nil {
				codeErr = err
			}
		})
		if codeErr != nil {
			return nil, fmt.Errorf("kernel stripe reassemble: %w", codeErr)
		}
	}

	// exec: replay the Zipf stream in block-sized pieces.
	if blockTxs < bundleSize {
		blockTxs = bundleSize
	}
	ops := workload.NewZipfOps(zipfConfig(seed)).Op
	const execBlocks = 64
	blocks := make([][]*types.Transaction, execBlocks)
	for i := range blocks {
		blocks[i] = kernelTxs(blockTxs, ops, uint64(1+i*blockTxs))
	}
	for _, k := range []struct {
		name   string
		serial bool
	}{{"exec.block_us_per_tx", false}, {"exec.serial_block_us_per_tx", true}} {
		m := exec.NewMachine(execGenesis)
		h := uint64(0)
		step := func() {
			blk := blocks[h%execBlocks]
			h++
			if k.serial {
				kernelSink += m.ExecuteBlockSerial(h, blk).Applied
			} else {
				kernelSink += m.ExecuteBlock(nil, h, blk).Applied
			}
		}
		for i := 0; i < execBlocks; i++ { // touch the working set first
			step()
		}
		out[k.name] = nsPerOp(step) / 1e3 / float64(blockTxs)
		if !k.serial {
			us("exec.state_root_us_16k", func() { kernelSink += int(m.StateRoot()[0]) })
		}
	}

	// ledger: appends to an in-memory chain and to a file-backed one.
	dir, err := os.MkdirTemp(scratchDir(), "ledger")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	file, err := ledger.Open(filepath.Join(dir, "chain"))
	if err != nil {
		return nil, err
	}
	defer func() { _ = file.Close() }() // error paths; the success path checks Close below
	for _, k := range []struct {
		name string
		l    *ledger.Ledger
	}{{"ledger.append_mem_us", ledger.New()}, {"ledger.append_file_us", file}} {
		var parent crypto.Hash
		var appendErr error
		h := uint64(0)
		us(k.name, func() {
			h++
			e := ledger.Entry{Height: h, Parent: parent, TxCount: uint32(blockTxs)}
			e.Hash = crypto.HashBytes([]byte(fmt.Sprint(k.name, h)))
			if err := k.l.Append(e); err != nil {
				appendErr = err
			}
			parent = e.Hash
		})
		if appendErr != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, appendErr)
		}
	}
	if err := file.Close(); err != nil {
		return nil, fmt.Errorf("kernel ledger: %w", err)
	}
	return out, nil
}

// scratchDir is where the benchmark may write: .bench_build under the
// working directory, which the repository ignores.
func scratchDir() string {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}
