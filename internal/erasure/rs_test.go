package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustCoder(t testing.TB, data, parity int) *Coder {
	t.Helper()
	c, err := New(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestNewInvalidParams(t *testing.T) {
	cases := []struct{ data, parity int }{
		{0, 1}, {-1, 2}, {3, -1}, {200, 57},
	}
	for _, c := range cases {
		if _, err := New(c.data, c.parity); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("New(%d,%d) err = %v, want ErrInvalidParams", c.data, c.parity, err)
		}
	}
	if _, err := New(200, 56); err != nil {
		t.Fatalf("New(200,56) should be valid: %v", err)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	tablesOnce.Do(initTables)
	// Inverses and distributivity over a sample of the field.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		left := gfMul(a, b^c)
		right := gfMul(a, b) ^ gfMul(a, c)
		if left != right {
			t.Fatalf("distributivity failed for %d,%d,%d", a, b, c)
		}
		if b != 0 && gfMul(gfDiv(a, b), b) != a {
			t.Fatalf("div/mul inverse failed for %d/%d", a, b)
		}
	}
}

func TestGFExpPow(t *testing.T) {
	tablesOnce.Do(initTables)
	if gfExpPow(0, 0) != 1 || gfExpPow(0, 5) != 0 || gfExpPow(7, 0) != 1 {
		t.Fatal("gfExpPow edge cases wrong")
	}
	// a^n computed by repeated multiplication must match.
	for _, a := range []byte{2, 3, 29, 255} {
		acc := byte(1)
		for n := 0; n < 300; n++ {
			if got := gfExpPow(a, n); got != acc {
				t.Fatalf("gfExpPow(%d,%d) = %d, want %d", a, n, got, acc)
			}
			acc = gfMul(acc, a)
		}
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	tablesOnce.Do(initTables)
	m := identity(5)
	inv, ok := m.invert()
	if !ok {
		t.Fatal("identity reported singular")
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if inv.at(r, c) != want {
				t.Fatalf("inv(I)[%d][%d] = %d", r, c, inv.at(r, c))
			}
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	tablesOnce.Do(initTables)
	m := newMatrix(2, 2) // all zeros
	if _, ok := m.invert(); ok {
		t.Fatal("zero matrix reported invertible")
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := mustCoder(t, 4, 2)
	r := rand.New(rand.NewSource(2))
	orig := randBytes(r, 1000)
	shards := c.Split(orig)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	joined, err := c.Join(shards, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined, orig) {
		t.Fatal("systematic property violated: data shards must hold the payload")
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c := mustCoder(t, 4, 2)
	shards := c.Split(randBytes(rand.New(rand.NewSource(3)), 512))
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	shards[1][7] ^= 0x55
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("corrupted shard passed Verify")
	}
}

func TestReconstructAllLossPatterns(t *testing.T) {
	// n_c = 8, f = 2 → data 6, parity 2: every loss pattern of ≤2 shards
	// must reconstruct.
	c := mustCoder(t, 6, 2)
	r := rand.New(rand.NewSource(4))
	orig := randBytes(r, 3000)
	base := c.Split(orig)
	if err := c.Encode(base); err != nil {
		t.Fatal(err)
	}
	n := c.TotalShards()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			shards := make([][]byte, n)
			for k := range shards {
				shards[k] = append([]byte(nil), base[k]...)
			}
			shards[i] = nil
			shards[j] = nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("loss {%d,%d}: %v", i, j, err)
			}
			for k := range shards {
				if !bytes.Equal(shards[k], base[k]) {
					t.Fatalf("loss {%d,%d}: shard %d wrong after reconstruct", i, j, k)
				}
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c := mustCoder(t, 4, 2)
	base := c.Split(randBytes(rand.New(rand.NewSource(5)), 100))
	if err := c.Encode(base); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, len(base))
	copy(shards, base)
	shards[0], shards[1], shards[2] = nil, nil, nil // only 3 left, need 4
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructNoMissing(t *testing.T) {
	c := mustCoder(t, 3, 2)
	base := c.Split([]byte("hello reed solomon"))
	if err := c.Encode(base); err != nil {
		t.Fatal(err)
	}
	if err := c.Reconstruct(base); err != nil {
		t.Fatalf("Reconstruct with nothing missing: %v", err)
	}
}

func TestShardCountAndSizeErrors(t *testing.T) {
	c := mustCoder(t, 3, 2)
	if err := c.Encode(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("short shard list: %v", err)
	}
	shards := [][]byte{{1, 2}, {3, 4}, {5, 6}, {7}, {9, 10}}
	if err := c.Encode(shards); !errors.Is(err, ErrShardSize) {
		t.Fatalf("uneven shards: %v", err)
	}
	if err := c.Reconstruct(make([][]byte, 3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("reconstruct wrong count: %v", err)
	}
}

func TestSplitTinyPayload(t *testing.T) {
	c := mustCoder(t, 4, 2)
	shards := c.Split([]byte{0xab})
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	out, err := c.Join(shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 0xab {
		t.Fatalf("tiny payload roundtrip: % x", out)
	}
}

func TestStripeSize(t *testing.T) {
	c := mustCoder(t, 4, 2)
	cases := []struct{ in, want int }{{0, 1}, {1, 1}, {4, 1}, {5, 2}, {100, 25}, {101, 26}}
	for _, tc := range cases {
		if got := c.StripeSize(tc.in); got != tc.want {
			t.Errorf("StripeSize(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	c := mustCoder(t, 3, 1)
	if _, err := c.Join([][]byte{{1}}, 3); !errors.Is(err, ErrShardCount) {
		t.Fatalf("Join with too few shards: %v", err)
	}
	shards := c.Split([]byte("abcdef"))
	shards[1] = nil
	if _, err := c.Join(shards, 6); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("Join with missing data shard: %v", err)
	}
	shards2 := c.Split([]byte("abcdef"))
	if _, err := c.Join(shards2, 100); err == nil {
		t.Fatal("Join demanding more bytes than shards hold must fail")
	}
}

// TestQuickRoundtrip is the core property: for random payloads, parameters,
// and loss patterns of ≤ parity shards, decode(encode(x)) == x. This mirrors
// Multi-Zone's requirement that any n_c−f of n_c stripes rebuild a bundle.
func TestQuickRoundtrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}
	f := func(payload []byte, dataRaw, parityRaw, lossSeed uint8) bool {
		data := 1 + int(dataRaw)%10
		parity := 1 + int(parityRaw)%5
		c, err := New(data, parity)
		if err != nil {
			return false
		}
		shards := c.Split(payload)
		if err := c.Encode(shards); err != nil {
			return false
		}
		// Drop up to `parity` random shards.
		r := rand.New(rand.NewSource(int64(lossSeed)))
		for _, i := range r.Perm(c.TotalShards())[:parity] {
			shards[i] = nil
		}
		// DecodeData rebuilds the payload and fills in no shard.
		direct, err := c.DecodeData(shards, len(payload), nil)
		if err != nil || !bytes.Equal(direct, payload) || slices.IndexFunc(shards, func(b []byte) bool { return b == nil }) < 0 {
			return false
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		out, err := c.Join(shards, len(payload))
		if err != nil {
			return false
		}
		return bytes.Equal(out, payload)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Benchmarks for the §V-B claim that encoding/decoding a bundle costs
// microseconds. A bundle is 50 transactions × 512 B = 25,600 B; with
// n_c = 8 (data 6, parity 2) stripes are ~4.3 KB.
func BenchmarkEncodeBundle(b *testing.B) {
	c := mustCoder(b, 6, 2)
	payload := randBytes(rand.New(rand.NewSource(7)), 50*512)
	shards := c.Split(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructBundle(b *testing.B) {
	c := mustCoder(b, 6, 2)
	payload := randBytes(rand.New(rand.NewSource(8)), 50*512)
	base := c.Split(payload)
	if err := c.Encode(base); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(base))
		copy(shards, base)
		shards[0], shards[5] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
