// Command predis-perf is the repository's benchmark (ISSUE 11): six
// workloads over one simulated deployment shape, thirteen end-to-end
// metrics on two clocks — virtual (outputs of the simnet model, exact
// for a seed) and host (what the run costs this machine) — and a
// per-layer attribution taken from outside the layers, by timing calls
// into their public functions and reading their public counters.
//
//	predis-perf -workload block_lan -seed 1 -seconds 10 -trace 0
//	predis-perf -workload all -seed 1 -out results/seed1.json
//	predis-perf -compare a.json b.json
//
// A single-workload run prints, as its last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. See README.md for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one single-workload run learned; result sets
// (-workload all, -compare) are lists of records.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
	GoVersion  string `json:"go"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Correct    bool     `json:"correct"`
	Errors     []string `json:"errors,omitempty"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	ReplayHash string   `json:"replay_hash"`
	// Reps is the number of timed repetitions behind each host median;
	// Spread is the interquartile range of their values over the median.
	Reps    int                `json:"reps,omitempty"`
	Spread  map[string]float64 `json:"spread,omitempty"`
	Samples map[string]int     `json:"samples,omitempty"`
	// Ladder is the confirmed p99 (ms) at each ladder rate.
	Ladder  map[string]float64     `json:"ladder_p99_ms,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("predis-perf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed for simnet, keys, Zipf operations, fault draws and arrival phases")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the host-clock spans as Chrome trace JSON")
	out := fs.String("out", "", "with -workload all: write the result set here instead of standard output")
	smoke := fs.Bool("smoke", false, "shrink every workload to well under a second (tests)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: predis-perf -compare a.json b.json")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predis-perf:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "predis-perf: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if *name == "all" {
		if err := runAll(*seed, *seconds, *smoke, *out); err != nil {
			fmt.Fprintln(os.Stderr, "predis-perf:", err)
			return 1
		}
		return 0
	}
	spec, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-perf:", err)
		return 2
	}
	// E2E runs use no compute pool and at most two Ps, so the numbers
	// mean the same on a larger box.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	rec := record{
		Workload: spec.name, Seed: *seed, Trace: *trace, Seconds: *seconds, Smoke: *smoke,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		err = measureE2E(spec, &rec, budget, *smoke)
	} else {
		err = measureLayers(spec, &rec, budget, *smoke, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predis-perf:", err)
		return 1
	}
	rec.Correct = len(rec.Errors) == 0
	for _, e := range rec.Errors {
		fmt.Fprintln(os.Stderr, "predis-perf: incorrect:", e)
	}
	if !rec.Correct {
		return 1
	}
	printRecord(&rec)
	return 0
}

// printRecord writes the human-readable lines, the full record, and the
// contract object last.
func printRecord(rec *record) {
	fmt.Printf("workload %s seed %d: %s, cpus %d, gomaxprocs %d, reps %d\n",
		rec.Workload, rec.Seed, rec.GoVersion, rec.CPUs, rec.GOMAXPROCS, rec.Reps)
	fmt.Printf("replay_hash %s %s\n", rec.Workload, rec.ReplayHash)
	for _, k := range []string{"confirmed_ms", "propagation_ms"} {
		if n, ok := rec.Samples[k]; ok {
			fmt.Printf("samples %s %d\n", k, n)
		}
	}
	full, _ := json.Marshal(rec)
	fmt.Printf("record: %s\n", full)
	last, _ := json.Marshal(contractLine{
		Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	})
	fmt.Printf("%s\n", last)
}

// loadOf is the workload's load-phase length at the requested scale.
func loadOf(spec workloadSpec, smoke bool) time.Duration {
	if smoke {
		return spec.smokeLoad
	}
	return spec.load
}

// measureE2E is the untraced pass: five set-ups with a warm-up run at a
// tenth of the simulated length, then identical timed repetitions until
// the budget is spent (at least three). Host metrics are medians over
// repetitions; virtual metrics and the replay hash must agree across
// them.
func measureE2E(spec workloadSpec, rec *record, budget time.Duration, smoke bool) error {
	load := loadOf(spec, smoke)
	opts := runOpts{seed: rec.Seed, rate: spec.rate, load: load}

	// Set-up, five times over: bring a deployment up and prove it serves
	// load with a run at a tenth of the simulated length. It doubles as
	// the warm-up of the timed repetitions.
	host := map[string][]float64{}
	warm := opts
	warm.load = load / 10
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := runOnce(spec, warm, nil); err != nil {
			return err
		}
		host["setup_s"] = append(host["setup_s"], time.Since(t0).Seconds())
	}

	minReps := 3
	if smoke {
		minReps = 2
	}
	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || (!smoke && time.Since(start) < budget) {
		r, err := runOnce(spec, opts, nil)
		if err != nil {
			return err
		}
		if len(reps) > 0 {
			if err := sameVirtual(&reps[0], &r); err != nil {
				rec.Errors = append(rec.Errors, err.Error())
			}
		}
		reps = append(reps, r)
	}
	ref := &reps[0]
	rec.Errors = append(rec.Errors, ref.errs...)
	rec.Attempted, rec.Failed, rec.ReplayHash, rec.Reps = ref.attempted, ref.failed, ref.replay, len(reps)
	rec.Samples = map[string]int{
		"confirmed_ms":   ref.confirmedSamples,
		"propagation_ms": ref.propagationSamples,
	}
	if ref.committed == 0 {
		rec.Errors = append(rec.Errors, "no transaction committed")
		return nil
	}

	// The SLO ladder: the reference run answers its own rate; every
	// other rung runs once (virtual metrics are exact).
	slo, err := sloRate(spec, rec, ref, smoke)
	if err != nil {
		return err
	}

	for i := range reps {
		r := &reps[i]
		tx := float64(r.committed)
		host["host_s_per_sim_s"] = append(host["host_s_per_sim_s"], r.wall.Seconds()/r.loadSecs)
		host["allocs_per_tx"] = append(host["allocs_per_tx"], float64(r.mallocs)/tx)
		host["alloc_bytes_per_tx"] = append(host["alloc_bytes_per_tx"], float64(r.bytes)/tx)
	}
	rec.Spread = map[string]float64{}
	rec.Metrics = map[string]metricValue{
		"slo_rate_tps": {slo, e2eMetrics["slo_rate_tps"].unit},
		"peak_rss_mb":  {peakRSSMB(), e2eMetrics["peak_rss_mb"].unit},
	}
	for k, v := range ref.virtual {
		rec.Metrics[k] = metricValue{v, e2eMetrics[k].unit}
	}
	for k, xs := range host {
		rec.Spread[k] = relSpread(xs)
		rec.Metrics[k] = metricValue{median(xs), e2eMetrics[k].unit}
	}
	return nil
}

// sloRate walks the ladder upward and returns the highest rate whose
// rung, and every lower rung, meets the SLO (0 if the first fails). It
// records each rung's p99 and correctness errors on rec.
func sloRate(spec workloadSpec, rec *record, ref *repResult, smoke bool) (float64, error) {
	rates := spec.ladder
	if len(rates) == 0 {
		rates = []float64{spec.rate}
	}
	best := 0.0
	rec.Ladder = map[string]float64{}
	failedBelow := false
	for _, rate := range rates {
		var r *repResult
		if rate == spec.rate {
			r = ref
		} else {
			load := spec.ladderLoad
			if smoke {
				load = spec.smokeLoad
			}
			rr, err := runOnce(spec, runOpts{seed: rec.Seed, rate: rate, load: load}, nil)
			if err != nil {
				return 0, err
			}
			rec.Errors = append(rec.Errors, rr.errs...)
			r = &rr
		}
		rec.Ladder[fmt.Sprintf("%.0f", rate)] = r.virtual["confirmed_p99_ms"]
		if !failedBelow && r.meetsSLO(spec) {
			best = rate
		} else {
			failedBelow = true
		}
	}
	return best, nil
}
