// obs.go — observability-flavoured fixture cases. The obs package is
// deliberately in scope for the determinism analyzer (it is sim-visible
// even though it only observes): recorders must take the virtual clock
// as an argument, never read a wall clock themselves, and exporters must
// emit in sorted order so trace/metric files are byte-identical across
// same-seed runs.
package direct

import (
	"sort"
	"time"
)

// obsTracer stands in for the obs package's lifecycle tracer: recorders
// are Record*-prefixed so map-order emission into them is flagged.
type obsTracer struct{}

func (obsTracer) RecordSpan(stage int, key uint64, at time.Time) {}

// obsRegistry stands in for the metrics registry.
type obsRegistry struct{}

func (obsRegistry) RecordGauge(node uint32, v float64) {}

func obsWallClockSpan(tr obsTracer, c ctx) {
	tr.RecordSpan(1, 7, time.Now()) // want "time.Now reads the wall clock"
	tr.RecordSpan(1, 7, c.Now())    // allowed: virtual clock from the context
}

func obsMapOrderExport(tr obsTracer, spans map[uint64]time.Time) {
	for key, at := range spans { // want "map iteration order feeds Record"
		tr.RecordSpan(1, key, at)
	}
	// Allowed: collect, sort, emit — the obs exporters' actual shape.
	keys := make([]uint64, 0, len(spans))
	for k := range spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		tr.RecordSpan(1, k, spans[k])
	}
}

func obsSamplerPublish(reg obsRegistry, c ctx, util map[uint32]float64) {
	for id, v := range util { // want "map iteration order feeds Record"
		reg.RecordGauge(id, v)
	}
	// Allowed: a sampler tick re-armed through the context's scheduler.
	c.After(100*time.Millisecond, func() {})
	// Allowed: sorted publication.
	ids := make([]uint32, 0, len(util))
	for id := range util {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		reg.RecordGauge(id, util[id])
	}
}
