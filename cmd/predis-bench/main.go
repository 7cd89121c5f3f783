// Command predis-bench regenerates the paper's evaluation figures
// (§V, Figs. 4–8) from the simulated testbed, plus the crash-recovery
// experiment (scripted relayer and leader crash/restart) and the
// quickstart pipeline walkthrough.
//
// Usage:
//
//	predis-bench [-quick] [-seed N] list
//	predis-bench [-quick] [-seed N] run <experiment-id>...
//	predis-bench [-quick] [-seed N] all
//	predis-bench [-quick] [-seed N] <experiment-id>... [-trace] [-metrics]
//
// Experiment ids: quickstart fig4a fig4b fig4c fig4d fig5wan fig5lan fig6
// fig7 fig8 recovery byzantine contention scale latfloor quickstream. The scale
// experiment sweeps 10²..5·10⁴-node populations (one client per 1000
// logical clients, k-ary multicast trees); its latency/depth/throughput
// tables are deterministic while its machine-cost table (wall-clock,
// peak RSS) is inherently host-dependent, so scale does not participate
// in -replay.
// The latfloor experiment contrasts block-granularity commit with
// streaming commit on the same P-PBFT deployment; see EXPERIMENTS.md
// "Latency floor". quickstream is quickstart in streaming commit.
//
// Observability (experiments that support it: quickstart, quickstream,
// recovery; latfloor: -metrics only):
//
//	-trace        write Chrome trace-event JSON (<id>-trace.json; open in
//	              chrome://tracing or https://ui.perfetto.dev) plus the
//	              per-stage latency breakdown CSV (<id>-stages.csv)
//	-trace-out    override the trace output path
//	-metrics      write CSVs: per-stage latency breakdown (<id>-stages.csv),
//	              metric registry (<id>-metrics.csv), NIC/queue samples
//	              (<id>-samples.csv), and per-link bytes (<id>-links.csv)
//	-metrics-out  override the CSV path prefix
//
// Flags and experiment ids can be interleaved, so
// `predis-bench -quick quickstart -trace` works.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"predis/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// cli holds the parsed command line.
type cli struct {
	quick      bool
	seed       int64
	parallel   int
	replay     bool
	trace      bool
	traceOut   string
	metrics    bool
	metricsOut string
	cpuProfile string
	memProfile string
}

// parse accepts flags and positionals in any order: the flag package
// stops at the first non-flag argument, so parsing resumes after each
// positional until the argument list is exhausted.
func parse(argv []string) (cli, []string, error) {
	var c cli
	fs := flag.NewFlagSet("predis-bench", flag.ContinueOnError)
	fs.BoolVar(&c.quick, "quick", false, "shrink durations and sweeps (~1 minute total)")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed")
	fs.IntVar(&c.parallel, "parallel", 1, "run up to N independent experiment points concurrently (results are identical to -parallel 1)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&c.replay, "replay", false, "print the delivery replay hash for supporting experiments (listed at harness.Options.Replay); identical for any -parallel setting")
	fs.BoolVar(&c.trace, "trace", false, "write Chrome trace-event JSON for supporting experiments")
	fs.StringVar(&c.traceOut, "trace-out", "", "trace output path (default <id>-trace.json)")
	fs.BoolVar(&c.metrics, "metrics", false, "write stage/metric/sample CSVs for supporting experiments")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "CSV path prefix (default <id>)")
	fs.Usage = usage
	var positionals []string
	for {
		if err := fs.Parse(argv); err != nil {
			return c, nil, err
		}
		rest := fs.Args()
		if len(rest) == 0 {
			return c, positionals, nil
		}
		positionals = append(positionals, rest[0])
		argv = rest[1:]
	}
}

func run(argv []string) int {
	c, args, err := parse(argv)
	if err != nil {
		return 2
	}
	if len(args) == 0 {
		usage()
		return 2
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "predis-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "predis-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "predis-bench: memprofile: %v\n", err)
			}
		}()
	}
	opts := harness.Options{Quick: c.quick, Seed: c.seed, Parallel: c.parallel}

	var exps []harness.Experiment
	switch args[0] {
	case "list":
		for _, e := range harness.Registry() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return 0
	case "all":
		exps = harness.Registry()
	case "run":
		args = args[1:]
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "predis-bench: run needs at least one experiment id")
			return 2
		}
		fallthrough
	default:
		// Bare experiment ids: `predis-bench -quick quickstart -trace`.
		exps = make([]harness.Experiment, len(args))
		for i, id := range args {
			if exps[i], err = harness.Lookup(id); err != nil {
				fmt.Fprintln(os.Stderr, "predis-bench:", err)
				return 2
			}
		}
	}
	return runAll(exps, opts, c, os.Stderr)
}

// runAll runs the experiments in order. A failure does not hide the
// experiments after it: each is reported on errw as it happens, the rest
// still run, and the exit code is 1 if any failed.
func runAll(exps []harness.Experiment, opts harness.Options, c cli, errw io.Writer) int {
	var failed []string
	for _, e := range exps {
		if err := runOne(e, opts, c); err != nil {
			fmt.Fprintf(errw, "FAILED %s: %v\n", e.ID, err)
			failed = append(failed, e.ID)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(errw, "predis-bench: %d of %d experiments failed: %s\n",
			len(failed), len(exps), strings.Join(failed, " "))
		return 1
	}
	return 0
}

func runOne(e harness.Experiment, opts harness.Options, c cli) error {
	fmt.Printf("### %s — %s\n", e.ID, e.Title)
	var sink *harness.ObsSink
	if c.trace || c.metrics {
		sink = &harness.ObsSink{}
		opts.Obs = sink
	}
	var replay *harness.ReplayTrace
	if c.replay {
		replay = harness.NewReplayTrace()
		opts.Replay = replay
	}
	start := time.Now()
	tables, err := e.Run(opts)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	if replay != nil {
		if n := replay.Deliveries(); n > 0 {
			fmt.Printf("replay %s %s %d\n", e.ID, replay.Sum(), n)
		} else {
			fmt.Printf("replay %s unsupported\n", e.ID)
		}
	}
	if sink != nil {
		if err := export(e.ID, sink, c); err != nil {
			return err
		}
	}
	fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	return nil
}

// export writes the observability artifacts an experiment deposited in
// the sink. Experiments without observability leave the sink empty.
func export(id string, sink *harness.ObsSink, c cli) error {
	if sink.Trace == nil && (sink.Metrics == nil || !c.metrics) {
		fmt.Printf("(%s does not support -trace/-metrics; nothing exported)\n", id)
		return nil
	}
	writeFile := func(path string, write func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := write(f); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	prefix := c.metricsOut
	if prefix == "" {
		prefix = id
	}
	if c.trace && sink.Trace != nil {
		path := c.traceOut
		if path == "" {
			path = id + "-trace.json"
		}
		if err := writeFile(path, func(f *os.File) error {
			return sink.Trace.WriteChrome(f, sink.Sampler)
		}); err != nil {
			return err
		}
	}
	// The per-stage latency breakdown accompanies both flags: it is the
	// CSV companion to the trace as well as the headline metrics table.
	if sink.Trace != nil {
		if err := writeFile(prefix+"-stages.csv", func(f *os.File) error {
			return sink.Trace.WriteStageCSV(f)
		}); err != nil {
			return err
		}
	}
	if c.metrics {
		if sink.Metrics != nil {
			if err := writeFile(prefix+"-metrics.csv", func(f *os.File) error {
				return sink.Metrics.WriteCSV(f)
			}); err != nil {
				return err
			}
		}
		if sink.Sampler != nil {
			if err := writeFile(prefix+"-samples.csv", func(f *os.File) error {
				return sink.Sampler.WriteCSV(f)
			}); err != nil {
				return err
			}
			if err := writeFile(prefix+"-links.csv", func(f *os.File) error {
				return sink.Sampler.WriteLinkCSV(f)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `predis-bench regenerates the paper's evaluation figures.

Usage:
  predis-bench [-quick] [-seed N] list
  predis-bench [-quick] [-seed N] run <id>...
  predis-bench [-quick] [-seed N] all
  predis-bench [-quick] [-seed N] <id>... [-trace] [-metrics]

Observability (quickstart, quickstream, recovery; latfloor: -metrics only):
  -trace writes Chrome trace-event JSON plus the stage-latency CSV;
  -metrics writes stage-latency, metric, NIC/queue-sample, and per-link
  byte CSVs (latfloor: the metric CSV of its busiest LAN stream point,
  with the PBFT proposal pace). Flags and ids may be interleaved.

Flags:
  -quick         shrink durations and sweeps (~1 minute total)
  -seed N        simulation seed (default 1)
  -parallel N    run up to N experiment points concurrently (wall-clock
                 only; every point owns its own simulation, so results
                 and replay hashes match -parallel 1 exactly)
  -trace         write Chrome trace-event JSON + stage-latency CSV
  -trace-out P   trace output path (default <id>-trace.json)
  -metrics       write stage/metric/sample/link CSVs
  -metrics-out P CSV path prefix (default <id>)
  -replay        print "replay <id> <sha256> <deliveries>" for supporting
                 experiments (listed at harness.Options.Replay); the hash is
                 identical for any -parallel setting
  -cpuprofile P  write a CPU profile (inspect with go tool pprof)
  -memprofile P  write a heap profile at exit
`)
}
