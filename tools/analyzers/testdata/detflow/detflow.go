// Package detflow is the fixture for the determinism analyzer's
// call-graph rules: apart from the captured clock, which is a direct
// source reported where it is taken, no forbidden call is syntactically
// visible at a reported site, and each is caught only by following the
// call graph. Direct sources have their own fixture in ./direct.
package detflow

import (
	"sort"
	"time"

	fixenv "predis/tools/analyzers/testdata/detflow/env"
)

// --- wall clock smuggled as a captured function value ---

// useCapturedClock takes time.Now as a value: no call expression has a
// time.* selector, yet clock() reads the wall clock. The capture is the
// source and is reported where it is taken.
func useCapturedClock() int64 {
	clock := time.Now // want "time.Now \(captured as a function value\) reads the wall clock"
	return clock().UnixNano()
}

// --- taint through a cross-package helper ---

// stampViaHelper reaches the wall clock through a helper in the exempt
// env fixture package, which is never reported itself.
func stampViaHelper() int64 { // want "wall clock reaches sim-visible code"
	return fixenv.WallStamp()
}

// jitterViaHelper likewise reaches the global math/rand source.
func jitterViaHelper() int { // want "global math/rand reaches sim-visible code"
	return fixenv.Jitter()
}

// --- map-iteration order reaching emission through a helper ---

// Context mimics the runtime send surface.
type Context interface {
	Send(to int, payload string)
}

type node struct{ ctx Context }

// emit forwards to the context send; it is one call away from the
// emission, which is all it takes to hide from a syntactic range check.
func (n *node) emit(to int, payload string) {
	n.ctx.Send(to, payload)
}

// flushAll iterates a map and emits per key through the helper: map
// order becomes the send order, though no emission-named call is
// syntactically inside the range body.
func (n *node) flushAll(pending map[int]string) {
	for to, p := range pending {
		n.emit(to, p) // want "map iteration reaches emission"
	}
}

// flushSorted is the sanctioned pattern: collect, sort, emit — no map
// range encloses the emitting call.
func (n *node) flushSorted(pending map[int]string) {
	keys := make([]int, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		n.emit(k, pending[k])
	}
}

// --- sanctioned boundary: time through a trusted interface ---

// tick reads time through the Clock interface declared in the exempt
// env package: that is the sanctioned contract boundary (the analogue
// of env.Context.Now), so no taint flows and nothing is reported, even
// though the concrete implementation wraps the wall clock.
func tick(c fixenv.Clock) int64 {
	return c.Now()
}

var _ = useCapturedClock
var _ = stampViaHelper
var _ = jitterViaHelper
var _ = (*node).flushAll
var _ = (*node).flushSorted
var _ = tick
