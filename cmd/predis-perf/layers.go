package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"predis/internal/compute"
	"predis/internal/obs"
	"predis/internal/simnet"
	"predis/internal/wire"
)

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// carries the direction. They have no regression bound: they say where
// an end-to-end number came from (README, "How the metrics interact").
var layerUnits = map[string]string{
	"simnet.self_host_ns_per_tx":          "ns",
	"simnet.events_per_tx":                "count",
	"simnet.msgs_per_tx":                  "count",
	"simnet.bytes_per_tx":                 "B",
	"simnet.max_uplink_busy_frac":         "fraction",
	"simnet.leader_uplink_busy_frac":      "fraction",
	"simnet.dropped":                      "count",
	"core.host_ns_per_tx":                 "ns",
	"core.calls_per_tx":                   "count",
	"core.txs_per_bundle":                 "count",
	"core.bundle_sealed_p50_ms":           "ms",
	"consensus.host_ns_per_tx":            "ns",
	"consensus.msgs_per_block":            "count",
	"consensus.txs_per_block":             "count",
	"consensus.block_proposed_p50_ms":     "ms",
	"consensus.prepare_commit_p50_ms":     "ms",
	"consensus.view_changes":              "count",
	"consensus.spec_evictions":            "count",
	"multizone.dist_host_ns_per_tx":       "ns",
	"multizone.fullnode_host_ns_per_tx":   "ns",
	"multizone.stripe_distributed_p50_ms": "ms",
	"multizone.fullnode_delivered_p50_ms": "ms",
	"multizone.fullnode_delivered_p99_ms": "ms",
	"multizone.relayer_uplink_busy_frac":  "fraction",
	"multizone.stripes_per_bundle":        "count",
	"multizone.spec_hit_frac":             "fraction",
	"multizone.refetches":                 "count",
	"multizone.stripe_encode_us_nc4":      "us",
	"multizone.stripe_encode_us_nc16":     "us",
	"multizone.stripe_reassemble_us_nc4":  "us",
	"exec.block_us_per_tx":                "us",
	"exec.serial_block_us_per_tx":         "us",
	"exec.state_root_us_16k":              "us",
	"exec.mean_width":                     "count",
	"exec.abort_frac":                     "fraction",
	"ledger.append_mem_us":                "us",
	"ledger.append_file_us":               "us",
	"wire.marshal_bundle_us":              "us",
	"wire.unmarshal_bundle_us":            "us",
	"wire.size_bundle_ns":                 "ns",
	"crypto.sign_us":                      "us",
	"crypto.verify_us":                    "us",
	"crypto.hash_25k_us":                  "us",
	"merkle.root50_us":                    "us",
	"merkle.prove_verify_us":              "us",
	"erasure.encode_25k_us":               "us",
	"erasure.reconstruct_25k_us":          "us",
	"compute.offload_speedup":             "ratio",
	"workload.gen_host_ns_per_tx":         "ns",
	"workload.resubmits":                  "count",
	"harness.other_host_ns_per_tx":        "ns",
	"harness.trace_overhead_frac":         "fraction",
	"harness.gc_cycles":                   "count",
	"harness.gc_pause_ms":                 "ms",
}

// tracedLoad is the simulated length of the traced pass: about a sixth
// of the workload's.
func tracedLoad(spec workloadSpec, smoke bool) time.Duration {
	if smoke {
		return spec.smokeLoad
	}
	return spec.load / 6
}

// tracedRun is one run under the benchmark's own span decorator.
type tracedRun struct {
	res   repResult
	split layerSplit
	spans *spanRecorder
}

func runTraced(spec workloadSpec, base runOpts) (tracedRun, error) {
	opts := base
	opts.spans = newSpanRecorder()
	t := tracedRun{spans: opts.spans}
	var err error
	t.res, err = runOnce(spec, opts, nil)
	t.split = t.spans.split()
	return t, err
}

// measureLayers is the traced pass. Plain and span-traced runs of the
// same simulation alternate until the budget's larger half is spent;
// host numbers are medians over the pairs. Then one run each with the
// layers' obs tracer and registry attached (virtual stage timings and
// the public counters, exact for the seed) and with the compute pool on
// (offload speed-up), and the kernel pass. Every instrumented run must
// reproduce the plain run's replay hash and virtual metrics.
func measureLayers(spec workloadSpec, rec *record, budget time.Duration, smoke bool, traceOut string) error {
	base := runOpts{seed: rec.Seed, rate: spec.rate, load: tracedLoad(spec, smoke)}
	if _, err := runOnce(spec, base, nil); err != nil { // warm-up
		return err
	}

	var plain []repResult
	var traced []tracedRun
	start := time.Now()
	for len(traced) == 0 || (!smoke && time.Since(start) < budget*6/10) {
		p, err := runOnce(spec, base, nil)
		if err != nil {
			return err
		}
		t, err := runTraced(spec, base)
		if err != nil {
			return err
		}
		if err := sameVirtual(&p, &t.res); err != nil {
			rec.Errors = append(rec.Errors, "tracing is not transparent: "+err.Error())
		}
		plain = append(plain, p)
		if n := len(traced); n > 0 {
			traced[n-1].spans = nil // only the last run keeps its spans
		}
		traced = append(traced, t)
	}
	last := &traced[len(traced)-1]
	ref := &last.res
	rec.Errors = append(rec.Errors, ref.errs...)
	rec.Attempted, rec.Failed, rec.ReplayHash, rec.Reps = ref.attempted, ref.failed, ref.replay, len(traced)
	if ref.committed == 0 {
		rec.Errors = append(rec.Errors, "no transaction committed")
		return nil
	}

	var d *deployment
	obsOpts := base
	obsOpts.obsTrace = obs.NewTracer(simnet.Epoch)
	obsOpts.obsReg = obs.NewRegistry()
	observed, err := runOnce(spec, obsOpts, func(dep *deployment) { d = dep })
	if err != nil {
		return err
	}
	if err := sameVirtual(&plain[0], &observed); err != nil {
		rec.Errors = append(rec.Errors, "obs tracing is not transparent: "+err.Error())
	}

	pool := compute.NewPool(runtime.GOMAXPROCS(0))
	pooledOpts := base
	pooledOpts.pool = pool
	pooled, err := runOnce(spec, pooledOpts, nil)
	pool.Close()
	if err != nil {
		return err
	}
	if err := sameVirtual(&plain[0], &pooled); err != nil {
		rec.Errors = append(rec.Errors, "compute pool is not transparent: "+err.Error())
	}

	m := map[string]float64{}
	tx := float64(ref.committed)
	med := func(f func(i int) float64) float64 {
		xs := make([]float64, len(traced))
		for i := range xs {
			xs[i] = f(i)
		}
		return median(xs)
	}

	// Host clock: the span split of each traced run, and what is left of
	// its wall time is the simulator's own.
	perTx := func(l layer) float64 { return med(func(i int) float64 { return traced[i].split.ns[l] }) / tx }
	m["core.host_ns_per_tx"] = perTx(layerCore)
	m["consensus.host_ns_per_tx"] = perTx(layerConsensus)
	m["multizone.dist_host_ns_per_tx"] = perTx(layerDist)
	m["multizone.fullnode_host_ns_per_tx"] = perTx(layerFullNode)
	m["workload.gen_host_ns_per_tx"] = perTx(layerWorkload)
	m["harness.other_host_ns_per_tx"] = perTx(layerOther)
	m["simnet.self_host_ns_per_tx"] = med(func(i int) float64 {
		return float64(traced[i].res.runWall) - traced[i].split.total
	}) / tx
	plainWall := median(mapReps(plain, func(r *repResult) float64 { return float64(r.runWall) }))
	m["harness.trace_overhead_frac"] = med(func(i int) float64 { return float64(traced[i].res.runWall) })/plainWall - 1
	m["harness.gc_cycles"] = median(mapReps(plain, func(r *repResult) float64 { return float64(r.gcCycles) }))
	m["harness.gc_pause_ms"] = median(mapReps(plain, func(r *repResult) float64 { return ms(r.gcPause) }))
	m["compute.offload_speedup"] = plainWall / float64(pooled.runWall)

	// Counts repeat exactly, so one run speaks for all.
	blocks := float64(d.probe.totalBlocks)
	m["core.calls_per_tx"] = last.split.calls[layerCore] / tx
	m["consensus.msgs_per_block"] = last.split.consensusMsgs / blocks
	m["consensus.txs_per_block"] = tx / blocks
	if d.probe.bundles > 0 {
		m["core.txs_per_bundle"] = float64(d.probe.bundleTxs) / float64(d.probe.bundles)
	}
	m["simnet.events_per_tx"] = float64(ref.events) / tx
	m["simnet.msgs_per_tx"] = float64(d.net.Sends()) / tx
	m["simnet.bytes_per_tx"] = float64(d.net.BytesSent()) / tx
	m["simnet.dropped"] = float64(d.net.Dropped().Total())
	busy := func(up time.Duration) float64 { return float64(up) / float64(d.horizon) }
	for i := range d.hosts {
		up, _ := d.net.NICBusy(wire.NodeID(i))
		if i == 0 {
			m["simnet.leader_uplink_busy_frac"] = busy(up)
		}
		m["simnet.max_uplink_busy_frac"] = max(m["simnet.max_uplink_busy_frac"], busy(up))
	}
	var stripes, bundles, hits, waste uint64
	for _, fn := range d.fulls {
		up, _ := d.net.NICBusy(fn.ID())
		m["multizone.relayer_uplink_busy_frac"] = max(m["multizone.relayer_uplink_busy_frac"], busy(up))
		m["simnet.max_uplink_busy_frac"] = max(m["simnet.max_uplink_busy_frac"], busy(up))
		s, b, _ := fn.Stats()
		stripes, bundles = stripes+s, bundles+b
		h, w := fn.SpecStats()
		hits, waste = hits+h, waste+w
		_, refetches, _, _ := fn.ByzStats()
		m["multizone.refetches"] += float64(refetches)
	}
	if bundles > 0 {
		m["multizone.stripes_per_bundle"] = float64(stripes) / float64(bundles)
	}
	if hits+waste > 0 {
		m["multizone.spec_hit_frac"] = float64(hits) / float64(hits+waste)
	}
	for _, h := range d.hosts {
		if e, ok := h.Node.Engine().(interface{ Stats() (uint64, uint64) }); ok {
			_, changes := e.Stats()
			m["consensus.view_changes"] = max(m["consensus.view_changes"], float64(changes))
		}
		_, discards := h.Dist.SpecStats()
		m["consensus.spec_evictions"] += float64(discards)
	}
	for _, cl := range d.clients {
		m["workload.resubmits"] += float64(cl.Resubmitted())
	}
	if spec.semantic {
		st := d.machines[spec.observer].Stats()
		m["exec.mean_width"] = st.MeanWidth()
		if st.Txs > 0 {
			m["exec.abort_frac"] = float64(st.Aborted) / float64(st.Txs)
		}
	}

	// Virtual clock: the layers' own stage tracer.
	p50 := func(s obs.Stage) float64 { return ms(d.opts.obsTrace.StageSummary(s).P50) }
	m["core.bundle_sealed_p50_ms"] = p50(obs.StageBundleSealed)
	m["consensus.block_proposed_p50_ms"] = p50(obs.StageBlockProposed)
	m["consensus.prepare_commit_p50_ms"] = p50(obs.StagePrepareCommit)
	m["multizone.stripe_distributed_p50_ms"] = p50(obs.StageStripeDistributed)
	m["multizone.fullnode_delivered_p50_ms"] = p50(obs.StageFullNodeDelivered)
	m["multizone.fullnode_delivered_p99_ms"] = ms(d.opts.obsTrace.StageSummary(obs.StageFullNodeDelivered).P99)

	kernels, err := kernelMetrics(rec.Seed, int(tx/blocks))
	if err != nil {
		return err
	}
	for k, v := range kernels {
		m[k] = v
	}

	rec.Metrics = map[string]metricValue{}
	for name, unit := range layerUnits {
		rec.Metrics[name] = metricValue{m[name], unit}
	}
	for name := range m {
		if _, ok := layerUnits[name]; !ok {
			return fmt.Errorf("internal: metric %s has no unit", name)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := last.spans.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func mapReps(rs []repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = f(&rs[i])
	}
	return out
}
