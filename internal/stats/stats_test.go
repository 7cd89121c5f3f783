package stats

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileEdges(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty sample must yield 0")
	}
	one := []time.Duration{7}
	for _, p := range []float64{-5, 0, 50, 100, 120} {
		if Percentile(one, p) != 7 {
			t.Fatalf("p=%v of singleton = %v", p, Percentile(one, p))
		}
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(sorted, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

// TestPercentileNearestRank pins the nearest-rank definition
// (rank = ceil(p/100·n)) for odd, even, and single-element samples.
// The P85-of-12 case is the regression the round-half-up bug understated:
// ceil(10.2) = rank 11 (value 11), where int(10.2+0.5) gave rank 10.
func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	cases := []struct {
		name string
		n    int
		p    float64
		want time.Duration
	}{
		{"single-p50", 1, 50, 1},
		{"single-p99", 1, 99, 1},
		{"odd-p50", 5, 50, 3},    // ceil(2.5) = 3
		{"odd-p90", 5, 90, 5},    // ceil(4.5) = 5
		{"odd-p99", 5, 99, 5},    // ceil(4.95) = 5
		{"even-p50", 4, 50, 2},   // ceil(2.0) = 2 (exact integer stays put)
		{"even-p90", 4, 90, 4},   // ceil(3.6) = 4
		{"even-p99", 4, 99, 4},   // ceil(3.96) = 4
		{"even-p85", 12, 85, 11}, // ceil(10.2) = 11; round-half-up said 10
		{"even-p25", 12, 25, 3},  // ceil(3.0) = 3
		{"ten-p50", 10, 50, 5},   // ceil(5.0) = 5
		{"ten-p90", 10, 90, 9},   // ceil(9.0) = 9
		{"ten-p99", 10, 99, 10},  // ceil(9.9) = 10
		{"hundred-p99", 100, 99, 99},
		{"hundred-p90", 100, 90, 90},
	}
	for _, tc := range cases {
		if got := Percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("%s: Percentile(1..%d, %v) = %v, want %v",
				tc.name, tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatal("empty summary must be zero")
	}
	sample := []time.Duration{30, 10, 20}
	s := Summarize(sample)
	if s.Count != 3 || s.Min != 10 || s.Max != 30 || s.Mean != 20 {
		t.Fatalf("summary: %+v", s)
	}
	// Input must not be reordered.
	if sample[0] != 30 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	f := func(raw []int16) bool {
		a := make([]time.Duration, len(raw))
		b := make([]time.Duration, len(raw))
		for i, v := range raw {
			d := time.Duration(int(v)) + 40000
			a[i] = d
			b[len(raw)-1-i] = d
		}
		return Summarize(a) == Summarize(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	if Throughput(100, 0) != 0 {
		t.Fatal("zero window must yield 0")
	}
	if got := Throughput(500, 2*time.Second); got != 250 {
		t.Fatalf("Throughput = %v", got)
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "alpha"}
	a.Add(1, 10)
	a.Add(2, 20.5)
	b := &Series{Name: "beta"}
	b.Add(2, 7)
	b.Add(3, 9)
	tbl := &Table{Title: "demo", XLabel: "x", Series: []*Series{a, b}}
	out := tbl.Render()
	for _, want := range []string{"demo", "alpha", "beta", "20.5", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + 3 distinct X values.
	if len(lines) != 5 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

// TestTableKeepsEveryPoint pins that a second point of one series at an X
// already seen gets a row of its own instead of vanishing.
func TestTableKeepsEveryPoint(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(1, 10)
	a.Add(2, 20)
	a.Add(1, 30)
	b := &Series{Name: "b"}
	b.Add(1, 5)
	tbl := &Table{XLabel: "x", Series: []*Series{a, b}}
	want := "" +
		"x   a  b\n" +
		"1  10  5\n" +
		"1  30   \n" +
		"2  20   \n"
	if got := tbl.Render(); got != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", got, want)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:       "1",
		1.5:     "1.5",
		1.25:    "1.25",
		1.10:    "1.1",
		0:       "0",
		-2.50:   "-2.5",
		1000.00: "1000",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
