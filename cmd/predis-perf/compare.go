package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// resultSet is what -workload all writes and -compare reads: one
// end-to-end record and one per-layer record per workload.
type resultSet struct {
	Runs []record `json:"runs"`
}

// runAll runs every workload in sequence, each pass in a fresh child
// process (so peak_rss_mb is the workload's own and tracing's memory
// never reaches an end-to-end number), and writes the result set.
func runAll(seed int64, seconds int, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			rec, err := parseRecord(stdout)
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", w.name, trace, err)
			}
			set.Runs = append(set.Runs, rec)
			fmt.Fprintf(os.Stderr, "%-13s trace %d  replay_hash %s\n", w.name, trace, rec.ReplayHash)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// parseRecord finds the "record: {...}" line a single-workload run prints.
func parseRecord(stdout []byte) (record, error) {
	var rec record
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "record: "); ok {
			return rec, json.Unmarshal([]byte(line), &rec)
		}
	}
	return rec, fmt.Errorf("no record line in the run's output")
}

func readResultSet(path string) (map[string]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	e2e := map[string]record{}
	for _, r := range set.Runs {
		if r.Trace == 0 {
			e2e[r.Workload] = r
		}
	}
	return e2e, nil
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory
// and its parents (the benchmark runs from the repository root, its
// tests from the package directory).
func findBenchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil {
			return path, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// compareFiles applies the bounds of BENCHMARK.json to two result sets,
// a the base and b the candidate. Virtual metrics must be identical: a
// difference is a changed model, never noise. Host metrics must stay
// within their bound; where a run's own spread is wider than the bound
// the row is unresolved, not ok. It reports whether any row is worse.
func compareFiles(aPath, bPath string, w io.Writer) (worse bool, err error) {
	benchPath, err := findBenchmarkFile()
	if err != nil {
		return false, err
	}
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readResultSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(bPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)

	counts := map[string]int{}
	fmt.Fprintf(w, "%-13s %-19s %14s %14s  %-22s %s\n", "workload", "metric", "a", "b", "b/a (base a)", "verdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		if rb.Workload == "" {
			fmt.Fprintf(w, "%-13s missing from %s\n", name, bPath)
			counts["worse"]++
			continue
		}
		if ra.Seed == rb.Seed && ra.ReplayHash != rb.ReplayHash {
			fmt.Fprintf(w, "%-13s replay hash differs: model changed\n", name)
			counts["model-changed"]++
		}
		for _, decl := range bench.EndToEnd {
			va, vb := ra.Metrics[decl.Name].Value, rb.Metrics[decl.Name].Value
			verdict := judge(decl, va, vb, max(ra.Spread[decl.Name], rb.Spread[decl.Name]), ra.Seed == rb.Seed)
			counts[verdict]++
			ratio := "n/a"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f (of %.6g)", vb/va, va)
			}
			fmt.Fprintf(w, "%-13s %-19s %14.6g %14.6g  %-22s %s\n", name, decl.Name, va, vb, ratio, verdict)
		}
	}
	fmt.Fprintf(w, "ok %d, worse %d, unresolved %d, model-changed %d\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["model-changed"])
	return counts["worse"] > 0, nil
}

// judge classifies one workload × metric row.
func judge(decl metricDecl, a, b, spread float64, sameSeed bool) string {
	worseBy := (b - a) / a // share of the base by which b is worse
	if decl.Better == "higher" {
		worseBy = -worseBy
	}
	if e2eMetrics[decl.Name].virtual && sameSeed {
		switch {
		case a == b:
			return "ok"
		case worseBy > decl.Bound:
			return "worse"
		}
		return "model-changed"
	}
	switch {
	case worseBy > max(decl.Bound, spread):
		return "worse"
	case spread > decl.Bound:
		return "unresolved"
	}
	return "ok"
}
