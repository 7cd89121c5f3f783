package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// e2eMetrics names the thirteen end-to-end metrics; BENCHMARK.json
// carries direction and bound. The virtual ones are computed by the
// simnet model: they repeat exactly for a seed, and -compare reports any
// difference in them as a changed model.
var e2eMetrics = map[string]struct {
	unit    string
	virtual bool
}{
	"committed_tps":      {"tx/s", true},
	"slo_rate_tps":       {"tx/s", true},
	"confirmed_p50_ms":   {"ms", true},
	"confirmed_p99_ms":   {"ms", true},
	"propagation_p50_ms": {"ms", true},
	"propagation_p99_ms": {"ms", true},
	"max_commit_gap_ms":  {"ms", true},
	"confirmed_frac":     {"fraction", true},
	"host_s_per_sim_s":   {"ratio", false},
	"allocs_per_tx":      {"count", false},
	"alloc_bytes_per_tx": {"B", false},
	"peak_rss_mb":        {"MB", false},
	"setup_s":            {"s", false},
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// peakRSSMB is this process's resident-set high-water mark. It reads
// VmHWM itself because env.HostMeter rounds to whole megabytes, which
// is a tenth of block_lan's footprint.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
