package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"predis/internal/harness"
	"predis/internal/obs"
	"predis/internal/stats"
)

// TestRunAllContinuesPastFailure: a failing experiment is reported and
// counted, and the experiments after it still run (`all` used to stop at
// the first failure, which in full mode hid everything after recovery).
func TestRunAllContinuesPastFailure(t *testing.T) {
	var ran []string
	stub := func(id string, err error) harness.Experiment {
		return harness.Experiment{ID: id, Title: id, Run: func(harness.Options) ([]*stats.Table, error) {
			ran = append(ran, id)
			return nil, err
		}}
	}
	var errw bytes.Buffer
	code := runAll([]harness.Experiment{
		stub("first", nil), stub("broken", errors.New("victim stuck")), stub("last", nil),
	}, harness.Options{}, cli{}, &errw)
	if code != 1 {
		t.Errorf("exit code %d with one failure, want 1", code)
	}
	if len(ran) != 3 || ran[2] != "last" {
		t.Errorf("ran %v, want all three", ran)
	}
	if want := "FAILED broken: victim stuck\npredis-bench: 1 of 3 experiments failed: broken\n"; errw.String() != want {
		t.Errorf("reported %q, want %q", errw.String(), want)
	}

	errw.Reset()
	if code := runAll([]harness.Experiment{stub("first", nil), stub("last", nil)}, harness.Options{}, cli{}, &errw); code != 0 || errw.Len() != 0 {
		t.Errorf("exit code %d and %q with no failure, want 0 and nothing", code, errw.String())
	}
}

// TestTraceMetricsExport runs `-quick quickstart -trace -metrics` and reads
// back what it exports: the metrics CSV has its header and a non-zero
// txs_committed for consensus node 0 (a counter the harness publishes after
// the run), the per-link CSV has its header and a link that carried bytes,
// the stage CSV has its header and one row per stage with
// p50 ≤ p90 ≤ p99 ≤ max, and the Chrome trace parses and has a complete
// ("X") span for every pipeline stage.
func TestTraceMetricsExport(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "smoke")
	tracePath := filepath.Join(dir, "trace.json")
	c, ids, err := parse([]string{"-quick", "quickstart", "-trace", "-metrics",
		"-trace-out", tracePath, "-metrics-out", prefix})
	if err != nil || len(ids) != 1 {
		t.Fatalf("parse: ids %v, err %v", ids, err)
	}
	e, err := harness.Lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := runOne(e, harness.Options{Quick: c.quick, Seed: c.seed, Parallel: c.parallel}, c); err != nil {
		t.Fatal(err)
	}

	// readCSV returns a CSV file's rows after checking its header.
	readCSV := func(suffix, header string) [][]string {
		t.Helper()
		f, err := os.Open(prefix + suffix)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		r := csv.NewReader(f)
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		if len(rows) == 0 || strings.Join(rows[0], ",") != header {
			t.Fatalf("%s: no %q header", suffix, header)
		}
		return rows[1:]
	}
	positive := func(cell string) bool {
		v, err := strconv.ParseFloat(cell, 64)
		return err == nil && v > 0
	}

	committed := false
	for _, row := range readCSV("-metrics.csv", "metric,node,field,value") {
		if len(row) == 4 && row[0] == "txs_committed" && row[1] == "0" && row[2] == "value" && positive(row[3]) {
			committed = true
		}
	}
	if !committed {
		t.Error("metrics CSV: no non-zero txs_committed for node 0")
	}

	carried := false
	for _, row := range readCSV("-links.csv", "from,to,bytes") {
		if len(row) == 3 && positive(row[2]) {
			carried = true
		}
	}
	if !carried {
		t.Error("links CSV: no link carried bytes")
	}

	stages := readCSV("-stages.csv", "stage,count,mean_ms,p50_ms,p90_ms,p99_ms,max_ms")
	if len(stages) != len(obs.StageNames) {
		t.Errorf("stage CSV has %d rows, want %d", len(stages), len(obs.StageNames))
	}
	for _, row := range stages {
		if len(row) != 7 {
			t.Errorf("stage CSV row %v: %d cells, want 7", row, len(row))
			continue
		}
		var q [4]float64 // p50, p90, p99, max
		for i := range q {
			if q[i], err = strconv.ParseFloat(row[3+i], 64); err != nil {
				t.Errorf("stage %s: %v", row[0], err)
			}
		}
		if q[0] > q[1] || q[1] > q[2] || q[2] > q[3] {
			t.Errorf("stage %s: p50 %v, p90 %v, p99 %v, max %v out of order", row[0], q[0], q[1], q[2], q[3])
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse as Chrome trace JSON: %v", err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans[ev.Name]++
		}
	}
	for _, name := range obs.StageNames {
		if spans[name] == 0 {
			t.Errorf("trace: stage %q has no span", name)
		}
	}
}
