// Package consensus defines the contract between BFT consensus engines
// (internal/pbft, internal/hotstuff) and the applications that feed them
// proposals (the baseline transaction-batch app in internal/txpool and the
// Predis app in internal/core).
//
// The engine owns ordering: it decides when the local node should propose,
// validates ordering-level rules (views, quorums, signatures), and delivers
// committed payloads in strict height order. The application owns content:
// it builds proposal payloads, validates their semantic rules, and executes
// them at commit.
package consensus

import (
	"errors"

	"predis/internal/crypto"
	"predis/internal/env"
	"predis/internal/wire"
)

// ErrPending signals that a proposal cannot be validated *yet* — typically
// because referenced bundles have not arrived (§III-B check 3). The engine
// must not vote, must not treat the proposal as invalid, and should retry
// validation when the application calls Poke on it.
var ErrPending = errors.New("consensus: proposal validation pending on missing data")

// Application supplies and consumes proposal payloads.
//
// All methods are called from the node's serialized executor, so
// implementations need no locking. Payload messages must be treated as
// immutable.
// Proposals form a chain: every payload at height h has a parent payload at
// height h−1 (nil at height 1). Sequential engines (PBFT) pass the last
// *executed* payload as the parent; pipelined engines (chained HotStuff)
// pass the payload of the parent block in their block tree, which may be
// uncommitted. Applications must therefore build and validate relative to
// the parent payload, not to committed state.
type Application interface {
	// BuildProposal asks the application for the payload of the block at
	// the given height extending parent (nil for the first block). It
	// returns the payload, its digest (the value replicas sign), and
	// ok=false when there is nothing to propose yet; the engine will
	// retry after Poke or on its re-proposal timer.
	BuildProposal(height uint64, parent wire.Message) (payload wire.Message, digest crypto.Hash, ok bool)

	// ValidateProposal checks a payload proposed by the leader for the
	// given height against its parent payload and returns its digest. A
	// nil error means the replica may vote. ErrPending means "cannot
	// decide yet"; any other error means the payload is invalid and must
	// not be voted for.
	ValidateProposal(height uint64, payload, parent wire.Message) (crypto.Hash, error)

	// OnCommit delivers a committed payload. Engines call it exactly once
	// per height, in strictly increasing height order.
	OnCommit(height uint64, payload wire.Message)
}

// WorkReporter is an optional Application extension. Engines use it to arm
// leader-suspicion timers only when the application actually has pending
// work (§III-D: a node suspects the leader when bundles arrive but no block
// follows). Without it, engines never suspect an idle leader.
type WorkReporter interface {
	// HasPendingWork reports whether uncommitted application work exists
	// (queued transactions or unconfirmed bundles).
	HasPendingWork() bool
}

// Engine is the surface a node uses to drive a consensus instance.
type Engine interface {
	env.Handler
	// Poke tells the engine that application state changed: a pending
	// validation may now succeed, or a proposal can now be built. Engines
	// must tolerate spurious pokes.
	Poke()
}

// FastForwarder is an optional Engine extension for crash recovery. When
// an application learns committed blocks out of band (the Predis catch-up
// protocol fetches them from f+1 peers after a restart), it fast-forwards
// the engine past those heights so the engine does not wait for commit
// quorums that finished while the node was down. payload is the payload
// executed at height, which becomes the parent link for height+1.
// Implementations must ignore calls with height ≤ their last executed
// height.
type FastForwarder interface {
	FastForward(height uint64, payload wire.Message)
}

// Cadence is an optional Engine extension that says how the engine clocks
// its blocks. Predis reads it in stream mode: producers seal on a paced
// engine's proposals, and a proposer drains under a chained one.
type Cadence interface {
	// Paced reports whether several instances run at once and the leader
	// spaces its proposals on a measured gap (pipelined PBFT).
	Paced() bool
	// Chained reports whether a block commits only once later blocks
	// extend it (chained HotStuff), so ordered payload needs follow-up
	// blocks, empty ones included, before it commits.
	Chained() bool
}

// LeaderOf returns the round-robin leader index for a view among n
// replicas. Both PBFT (view) and HotStuff (view/round) use this schedule.
func LeaderOf(view uint64, n int) wire.NodeID {
	return wire.NodeID(view % uint64(n))
}

// Quorum returns the vote quorum 2f+1 for n = 3f+1 replicas; more
// generally n − f with f = (n−1)/3.
func Quorum(n int) int {
	f := (n - 1) / 3
	return n - f
}

// FaultBound returns f = (n−1)/3, the number of Byzantine replicas the
// configuration tolerates.
func FaultBound(n int) int { return (n - 1) / 3 }
