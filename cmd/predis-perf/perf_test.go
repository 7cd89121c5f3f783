package main

import (
	"sort"
	"testing"
	"time"

	"predis/internal/compute"
	"predis/internal/env"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/wire"
)

func smokeOpts(spec workloadSpec) runOpts {
	return runOpts{seed: 1, rate: spec.rate, load: spec.smokeLoad}
}

// Tracing is transparent: on every workload, a run under the span
// decorator with the layers' obs tracer and registry attached delivers
// exactly the messages of the plain run, passes the correctness gate
// (for crash_lan that includes the decorated leader resuming commits
// after its restart), and books every span to exactly one layer inside
// the run's wall time.
func TestTracingTransparent(t *testing.T) {
	for _, spec := range workloads {
		base := smokeOpts(spec)
		plain, err := runOnce(spec, base, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if len(plain.errs) > 0 {
			t.Errorf("%s: plain run incorrect: %v", spec.name, plain.errs)
		}
		if plain.committed == 0 || plain.failed != 0 {
			t.Errorf("%s: committed %d, failed %d of %d", spec.name, plain.committed, plain.failed, plain.attempted)
		}

		opts := base
		opts.spans = newSpanRecorder()
		opts.obsTrace = obs.NewTracer(simnet.Epoch)
		opts.obsReg = obs.NewRegistry()
		var viewChanges uint64
		traced, err := runOnce(spec, opts, func(d *deployment) {
			if e, ok := d.hosts[spec.observer].Node.Engine().(interface{ Stats() (uint64, uint64) }); ok {
				_, viewChanges = e.Stats()
			}
		})
		if err != nil {
			t.Fatalf("%s traced: %v", spec.name, err)
		}
		if len(traced.errs) > 0 {
			t.Errorf("%s: traced run incorrect: %v", spec.name, traced.errs)
		}
		if err := sameVirtual(&plain, &traced); err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
		if spec.crashes() && viewChanges == 0 {
			t.Errorf("%s: the leader crash caused no view change", spec.name)
		}

		split := opts.spans.split()
		sum := 0.0
		for l := layer(0); l < numLayers; l++ {
			sum += split.ns[l]
		}
		if sum != split.total || split.total <= 0 {
			t.Errorf("%s: layers sum to %v ns, spans to %v ns", spec.name, sum, split.total)
		}
		// simnet's self time is the remainder, so the identity
		// Σ layers + simnet = wall holds when the spans fit in the wall.
		if wall := float64(traced.runWall); split.total > wall*1.02 {
			t.Errorf("%s: spans cover %v ns of a %v ns run", spec.name, split.total, wall)
		}
	}
}

type fakeNode struct {
	pool     *compute.Pool
	restarts int
	timers   int
}

func (f *fakeNode) Start(ctx env.Context) {
	f.pool = compute.PoolOf(ctx)
	ctx.After(time.Millisecond, func() { f.timers++ })
}
func (f *fakeNode) Receive(wire.NodeID, wire.Message) {}
func (f *fakeNode) OnRestart()                        { f.restarts++ }

// The decorator forwards env.Restartable and compute.PoolProvider, and
// claims Restartable only for handlers that are.
func TestDecoratorForwards(t *testing.T) {
	pool := compute.NewPool(1)
	defer pool.Close()
	net := simnet.New(simnet.Config{Compute: pool})
	rec := newSpanRecorder()
	node := &fakeNode{}
	net.AddNode(0, rec.wrap(roleHost, node))
	net.Start()
	net.Run(10 * time.Millisecond)
	if node.pool != pool {
		t.Error("ComputePool not forwarded through the traced context")
	}
	if node.timers != 1 {
		t.Errorf("timer fired %d times through the traced context, want 1", node.timers)
	}
	net.Crash(0)
	net.Restart(0)
	net.Run(20 * time.Millisecond)
	if node.restarts != 1 {
		t.Errorf("OnRestart forwarded %d times, want 1", node.restarts)
	}
	if _, ok := rec.wrap(roleClient, &env.HandlerFunc{}).(env.Restartable); ok {
		t.Error("a handler that is not Restartable was wrapped into one")
	}
	if rec.n != 3 { // start, timer, restart
		t.Errorf("recorded %d spans, want 3", rec.n)
	}
}

// The emitted JSON lists exactly the metric and workload names of
// BENCHMARK.json.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	path, err := findBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	bench, err := readBenchmarkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := func(decls []metricDecl) []string {
		out := make([]string, len(decls))
		for i, d := range decls {
			out[i] = d.Name
		}
		sort.Strings(out)
		return out
	}
	emitted := func(rec *record) []string {
		out := make([]string, 0, len(rec.Metrics))
		for name := range rec.Metrics {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	equal := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d names %v, BENCHMARK.json has %d %v", what, len(got), got, len(want), want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: emitted %q where BENCHMARK.json has %q", what, got[i], want[i])
			}
		}
	}

	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	equal("workloads", have, listed)

	spec, _ := findWorkload("block_lan")
	e2e := record{Seed: 1}
	if err := measureE2E(spec, &e2e, time.Second, true); err != nil {
		t.Fatal(err)
	}
	if len(e2e.Errors) > 0 {
		t.Errorf("block_lan incorrect: %v", e2e.Errors)
	}
	equal("end_to_end", emitted(&e2e), names(bench.EndToEnd))
	for _, d := range bench.EndToEnd {
		if got := e2e.Metrics[d.Name].Unit; got != d.Unit {
			t.Errorf("%s: emitted unit %q, BENCHMARK.json has %q", d.Name, got, d.Unit)
		}
		if e2e.Metrics[d.Name].Value == 0 {
			t.Errorf("%s is 0", d.Name)
		}
	}

	spec, _ = findWorkload("stream_lan")
	layers := record{Seed: 1}
	if err := measureLayers(spec, &layers, time.Second, true, ""); err != nil {
		t.Fatal(err)
	}
	if len(layers.Errors) > 0 {
		t.Errorf("stream_lan incorrect: %v", layers.Errors)
	}
	equal("per_layer", emitted(&layers), names(bench.PerLayer))
	for _, d := range bench.PerLayer {
		if got := layers.Metrics[d.Name].Unit; got != d.Unit {
			t.Errorf("%s: emitted unit %q, BENCHMARK.json has %q", d.Name, got, d.Unit)
		}
	}
}

func TestJudge(t *testing.T) {
	host := metricDecl{Name: "host_s_per_sim_s", Better: "lower", Bound: 0.10}
	virt := metricDecl{Name: "committed_tps", Better: "higher", Bound: 0.01}
	for _, c := range []struct {
		decl         metricDecl
		a, b, spread float64
		want         string
	}{
		{host, 1.0, 1.05, 0.02, "ok"},
		{host, 1.0, 0.50, 0.02, "ok"},
		{host, 1.0, 1.15, 0.02, "worse"},
		{host, 1.0, 1.15, 0.20, "unresolved"},
		{host, 1.0, 1.30, 0.20, "worse"},
		{virt, 4000, 4000, 0, "ok"},
		{virt, 4000, 4001, 0, "model-changed"},
		{virt, 4000, 3990, 0, "model-changed"},
		{virt, 4000, 3900, 0, "worse"},
	} {
		if got := judge(c.decl, c.a, c.b, c.spread, true); got != c.want {
			t.Errorf("judge(%s, %v→%v, spread %v) = %s, want %s", c.decl.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}
