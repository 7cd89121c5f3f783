// Package stats provides the small statistics toolkit the benchmark
// harness uses: duration summaries, percentiles, and plain-text series
// tables that mirror the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary describes a sample of durations.
type Summary struct {
	Count         int
	Min, Max      time.Duration
	Mean          time.Duration
	P50, P90, P99 time.Duration
}

// Percentile returns the p-th percentile (0..100) of a sorted sample using
// the nearest-rank definition: the value at rank ceil(p/100·n), 1-based.
// Empty samples yield zero.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	// Nearest-rank is ceil, not round-half-up: P85 of 12 samples is rank
	// ceil(10.2) = 11, where rounding would understate it as rank 10. The
	// tiny epsilon absorbs float error when p/100·n is an exact integer.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Summarize computes a Summary; the input is not modified.
func Summarize(sample []time.Duration) Summary {
	if len(sample) == 0 {
		return Summary{}
	}
	sorted := append([]time.Duration(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  sum / time.Duration(len(sorted)),
		P50:   Percentile(sorted, 50),
		P90:   Percentile(sorted, 90),
		P99:   Percentile(sorted, 99),
	}
}

// Point is one measurement in a series (e.g. one offered-load step of a
// throughput-latency curve).
type Point struct {
	X float64 // independent variable (offered load, node count, block MB…)
	Y float64 // dependent variable (throughput, latency…)
}

// Series is a named sequence of points, one line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Table renders series as an aligned text table with one column per series
// and one row per X value, for terminal output and EXPERIMENTS.md. An X at
// which some series has k points gets k rows, the i-th holding each
// series' i-th point there, so no point is dropped.
type Table struct {
	Title  string
	XLabel string
	Series []*Series
}

// Render formats the table.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	// Collect the union of X values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	header := []string{t.XLabel}
	for _, s := range t.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		// ys[j] holds series j's points at x in the order they were added;
		// x gets as many rows as the longest of them has points.
		ys := make([][]string, len(t.Series))
		k := 0
		for j, s := range t.Series {
			for _, p := range s.Points {
				if p.X == x {
					ys[j] = append(ys[j], trimFloat(p.Y))
				}
			}
			k = max(k, len(ys[j]))
		}
		for i := 0; i < k; i++ {
			row := []string{trimFloat(x)}
			for _, cells := range ys {
				cell := ""
				if i < len(cells) {
					cell = cells[i]
				}
				row = append(row, cell)
			}
			rows = append(rows, row)
		}
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

// Throughput converts a transaction count over a window into tx/s.
func Throughput(txs int, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(txs) / window.Seconds()
}
