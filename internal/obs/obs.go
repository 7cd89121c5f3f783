// Package obs is the deterministic observability layer: virtual-time
// metrics (counters, gauges, fixed-bucket histograms), a block/transaction
// lifecycle tracer, and a simnet NIC/queue sampler.
//
// Everything in this package obeys the simnet determinism contract
// (enforced statically by predis-lint):
//
//   - all timestamps come from the hosting runtime's virtual clock
//     (env.Context.Now / simnet.Network.Now) — never the wall clock;
//   - recording is allocation-light and purely passive: no sends, no
//     timers, no mutation of simulation state, so an instrumented run
//     delivers byte-for-byte the same messages as an uninstrumented one
//     (the replay hash of internal/harness does not change);
//   - every export (Chrome trace JSON, CSV) is emitted in sorted order,
//     so two same-seed runs produce byte-identical files.
//
// Like every protocol component, obs types are driven from the single
// simulator goroutine and are not safe for concurrent use.
//
// # Pipeline stages
//
// The tracer models the Predis data path as seven stages, each recorded
// as a span on the observing node's timeline:
//
//	submit             client submit → transaction arrives at a consensus node
//	bundle_sealed      first queued tx → bundle packed and signed (producer)
//	block_proposed     proposal learned → prepare quorum / QC (per replica)
//	prepare_commit     prepare quorum / QC → block executed (per replica)
//	executed           committed block applied by the execution plane (per node)
//	stripe_distributed first stripe sent → bundle reassembled (per full node)
//	fullnode_delivered block committed → block completed (per full node)
//
// The executed stage is a zero-width marker: execution happens inside
// the commit handler at a single virtual instant, so the span records
// when the state machine advanced, not a duration. The last two stages
// are cross-node: the start anchor is recorded by the distributor
// (Tracer.Mark) and each full node closes its own span against that
// anchor (Tracer.SpanSinceMark).
package obs

import (
	"time"

	"predis/internal/wire"
)

// Stage identifies one pipeline stage.
type Stage uint8

// The seven pipeline stages, in data-flow order. Both commit modes record
// all seven.
const (
	StageSubmit Stage = iota
	StageBundleSealed
	StageBlockProposed
	StagePrepareCommit
	StageExecuted
	StageStripeDistributed
	StageFullNodeDelivered
	numStages
)

// StageNames lists the stage names in declaration order (the order used in
// exports and tables).
var StageNames = [...]string{
	"submit",
	"bundle_sealed",
	"block_proposed",
	"prepare_commit",
	"executed",
	"stripe_distributed",
	"fullnode_delivered",
}

// String returns the export name of the stage.
func (s Stage) String() string {
	if int(s) < len(StageNames) {
		return StageNames[s]
	}
	return "unknown"
}

// Stages returns all pipeline stages in data-flow order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// TxKey builds a span key for a transaction: the submitting client's ID
// and its per-client sequence number.
func TxKey(client wire.NodeID, seq uint64) uint64 {
	return uint64(client)<<40 | seq&(1<<40-1)
}

// BundleKey builds a span key for a bundle: producer chain and height.
func BundleKey(producer wire.NodeID, height uint64) uint64 {
	return uint64(producer)<<40 | height&(1<<40-1)
}

// BlockKey builds a span key for a consensus block height.
func BlockKey(height uint64) uint64 { return height }

// durMS renders a duration as milliseconds with fixed precision, for
// deterministic CSV output.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
