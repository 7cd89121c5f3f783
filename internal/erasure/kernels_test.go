package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelPaths lists the row-kernel paths this machine runs: the table
// loop always, and AVX2 when the CPU has it.
func kernelPaths() []bool {
	tablesOnce.Do(initTables)
	if haveAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// onPath runs f with the AVX2 kernels on or off, then restores the CPU's
// choice.
func onPath(useSIMD bool, f func()) {
	defer func() { simd = haveAVX2() }()
	simd = useSIMD
	f()
}

func pathName(useSIMD bool) string {
	if useSIMD {
		return "avx2"
	}
	return "table"
}

// checkKernels compares mulAndAdd and mulSet with the scalar log/exp
// reference (mulRowAdd/mulRowSet) for one coefficient on one source.
func checkKernels(t *testing.T, src, base []byte, c byte) {
	t.Helper()
	want := append([]byte(nil), base...)
	got := append([]byte(nil), base...)
	mulRowAdd(want, src, c)
	mulAndAdd(got, src, c)
	if !bytes.Equal(want, got) {
		t.Fatalf("mulAndAdd(c=%d, n=%d) diverges from scalar reference", c, len(src))
	}
	copy(want, base)
	copy(got, base)
	mulRowSet(want, src, c)
	mulSet(got, src, c)
	if !bytes.Equal(want, got) {
		t.Fatalf("mulSet(c=%d, n=%d) diverges from scalar reference", c, len(src))
	}
}

// TestKernelsMatchScalar cross-checks the mulAndAdd/mulSet kernels on
// every path against the scalar log/exp reference, over every coefficient,
// every length up to 130 (the AVX2 blocks, the word and byte tails), a
// 25.6 kB body's stripe at n_c = 16 and at n_c = 4, and start offsets 0–31
// (unaligned source and destination). Each length runs every coefficient,
// and the offset turns with the coefficient, so each length also runs
// every offset.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	lengths := []int{2328, 8534}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	const maxOff = 31
	src := make([]byte, 8534+maxOff)
	base := make([]byte, 8534+maxOff)
	rng.Read(src)
	rng.Read(base)
	for _, useSIMD := range kernelPaths() {
		onPath(useSIMD, func() {
			for _, n := range lengths {
				for c := 0; c < 256; c++ {
					off := (c + n) % (maxOff + 1)
					checkKernels(t, src[off:off+n], base[maxOff-off:maxOff-off+n], byte(c))
				}
			}
		})
	}
}

// TestCodecPathsAgree checks that Encode, DecodeData and Reconstruct give
// byte-equal output on every kernel path, at shard lengths with and
// without a tail, and that DecodeData into a dirty reused buffer matches a
// fresh decode.
func TestCodecPathsAgree(t *testing.T) {
	for _, p := range []struct{ data, parity int }{{3, 1}, {11, 5}, {2, 2}} {
		c, err := New(p.data, p.parity)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 97, 25600} {
			rng := rand.New(rand.NewSource(int64(size)))
			payload := make([]byte, size)
			rng.Read(payload)
			lost := rng.Perm(c.TotalShards())[:p.parity]
			// outputs[path] is the encoded shards, the decoded payload,
			// then the reconstructed shards.
			var outputs [][][]byte
			for _, useSIMD := range kernelPaths() {
				onPath(useSIMD, func() {
					shards := c.Split(payload)
					if err := c.Encode(shards); err != nil {
						t.Fatal(err)
					}
					out := clone2D(shards)
					for _, i := range lost {
						shards[i] = nil
					}
					fresh, err := c.DecodeData(shards, len(payload), nil)
					if err != nil {
						t.Fatal(err)
					}
					dirty := make([]byte, 0, len(payload)+c.TotalShards())
					rng.Read(dirty[:cap(dirty)])
					reused, err := c.DecodeData(shards, len(payload), dirty)
					if err != nil {
						t.Fatal(err)
					}
					if &reused[:1][0] != &dirty[:1][0] {
						t.Fatalf("(%d,%d) n=%d: DecodeData allocated despite a large enough buffer",
							p.data, p.parity, size)
					}
					if !bytes.Equal(fresh, payload) || !bytes.Equal(reused, payload) {
						t.Fatalf("(%d,%d) n=%d %s: DecodeData does not return the payload",
							p.data, p.parity, size, pathName(useSIMD))
					}
					if err := c.Reconstruct(shards); err != nil {
						t.Fatal(err)
					}
					outputs = append(outputs, append(append(out, fresh), shards...))
				})
			}
			for _, out := range outputs[1:] {
				for i := range out {
					if !bytes.Equal(outputs[0][i], out[i]) {
						t.Fatalf("(%d,%d) n=%d: output %d (shards, payload, rebuilt shards) differs between kernel paths",
							p.data, p.parity, size, i)
					}
				}
			}
		}
	}
}

func clone2D(in [][]byte) [][]byte {
	out := make([][]byte, len(in))
	for i, b := range in {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// FuzzGFKernels checks both row kernels on every path against the scalar
// reference for an arbitrary coefficient, start offset and row.
func FuzzGFKernels(f *testing.F) {
	f.Add(byte(2), uint8(0), []byte("split-nibble kernels need at least one 32-byte block"))
	f.Add(byte(1), uint8(5), make([]byte, 200))
	f.Add(byte(0x8e), uint8(31), []byte{0xff, 0x10, 0x01})
	f.Fuzz(func(t *testing.T, c byte, off uint8, row []byte) {
		o := min(int(off)%32, len(row))
		src := row[o:]
		base := make([]byte, len(src))
		for i := range base {
			base[i] = row[len(row)-1-i] ^ byte(i)
		}
		for _, useSIMD := range kernelPaths() {
			onPath(useSIMD, func() { checkKernels(t, src, base, c) })
		}
	})
}

// scalarReconstruct is the pre-cache, pre-kernel reference decoder: it
// rebuilds and inverts the decode matrix on every call and uses the
// scalar row operations. The fast path must agree with it bit-for-bit.
func scalarReconstruct(c *Coder, shards [][]byte) error {
	size := -1
	for _, s := range shards {
		if s != nil {
			size = len(s)
			break
		}
	}
	sub := newMatrix(c.data, c.data)
	srcRows := make([][]byte, 0, c.data)
	for i, got := 0, 0; i < c.TotalShards() && got < c.data; i++ {
		if shards[i] == nil {
			continue
		}
		copy(sub.row(got), c.enc.row(i))
		srcRows = append(srcRows, shards[i])
		got++
	}
	dec, ok := sub.invert()
	if !ok {
		return ErrTooFewShards
	}
	for d := 0; d < c.data; d++ {
		if shards[d] != nil {
			continue
		}
		out := make([]byte, size)
		for k := 0; k < c.data; k++ {
			mulRowAdd(out, srcRows[k], dec.row(d)[k])
		}
		shards[d] = out
	}
	for p := 0; p < c.parity; p++ {
		i := c.data + p
		if shards[i] != nil {
			continue
		}
		out := make([]byte, size)
		for k := 0; k < c.data; k++ {
			mulRowAdd(out, shards[k], c.enc.row(i)[k])
		}
		shards[i] = out
	}
	return nil
}

// lossSubsets enumerates every subset of {0..n-1} of size k.
func lossSubsets(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// TestReconstructAllLossSubsets decodes with every possible (n−k)-subset
// of losses at small n and cross-checks the cached fast path against the
// scalar reference decoder.
func TestReconstructAllLossSubsets(t *testing.T) {
	for _, p := range []struct{ data, parity int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3},
	} {
		c, err := New(p.data, p.parity)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(p.data*100 + p.parity)))
		payload := make([]byte, 257) // odd length exercises padding
		rng.Read(payload)
		full := c.Split(payload)
		if err := c.Encode(full); err != nil {
			t.Fatal(err)
		}
		n := c.TotalShards()
		for lost := 1; lost <= p.parity; lost++ {
			for _, subset := range lossSubsets(n, lost) {
				fast := make([][]byte, n)
				ref := make([][]byte, n)
				for i := range full {
					fast[i] = append([]byte(nil), full[i]...)
					ref[i] = append([]byte(nil), full[i]...)
				}
				for _, i := range subset {
					fast[i], ref[i] = nil, nil
				}
				if err := c.Reconstruct(fast); err != nil {
					t.Fatalf("(%d,%d) lose %v: %v", p.data, p.parity, subset, err)
				}
				if err := scalarReconstruct(c, ref); err != nil {
					t.Fatalf("(%d,%d) scalar lose %v: %v", p.data, p.parity, subset, err)
				}
				for i := range full {
					if !bytes.Equal(fast[i], ref[i]) {
						t.Fatalf("(%d,%d) lose %v: shard %d diverges from scalar reference",
							p.data, p.parity, subset, i)
					}
					if !bytes.Equal(fast[i], full[i]) {
						t.Fatalf("(%d,%d) lose %v: shard %d not recovered", p.data, p.parity, subset, i)
					}
				}
			}
		}
	}
}

// TestReconstructRandomizedCrossCheck hammers the matrix cache with
// randomized (seeded) loss patterns at paper-scale parameters, checking
// the cached fast path against the scalar reference each round. Repeats
// of the same survivor set exercise cache hits; fresh sets exercise
// misses.
func TestReconstructRandomizedCrossCheck(t *testing.T) {
	c, err := New(22, 3) // n_c = 25, f = 3 — the paper's largest sweep point
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 4096)
	rng.Read(payload)
	full := c.Split(payload)
	if err := c.Encode(full); err != nil {
		t.Fatal(err)
	}
	n := c.TotalShards()
	for round := 0; round < 200; round++ {
		lost := 1 + rng.Intn(c.parity)
		fast := make([][]byte, n)
		ref := make([][]byte, n)
		for i := range full {
			fast[i] = append([]byte(nil), full[i]...)
			ref[i] = append([]byte(nil), full[i]...)
		}
		for k := 0; k < lost; k++ {
			i := rng.Intn(n)
			fast[i], ref[i] = nil, nil
		}
		if err := c.Reconstruct(fast); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := scalarReconstruct(c, ref); err != nil {
			t.Fatalf("round %d scalar: %v", round, err)
		}
		for i := range full {
			if !bytes.Equal(fast[i], ref[i]) {
				t.Fatalf("round %d: shard %d diverges from scalar reference", round, i)
			}
		}
	}
}

// TestDecodeMatrixCacheReuse pins that repeated reconstructions with the
// same survivor set hit the cache (same *matrix) and different sets do
// not collide.
func TestDecodeMatrixCacheReuse(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := c.decodeMatrix([]byte{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.decodeMatrix([]byte{0, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("same survivor set did not hit the decode-matrix cache")
	}
	m3, err := c.decodeMatrix([]byte{0, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("different survivor sets shared a cache entry")
	}
}
