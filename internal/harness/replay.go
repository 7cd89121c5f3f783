// Replay-hash backstop for the determinism contract enforced statically
// by predis-lint (tools/analyzers). The static suite forbids the usual
// nondeterminism sources (wall clocks, global rand, raw goroutines,
// map-order emission); this runtime check closes the loop: two runs of
// the same experiment with the same seed must produce byte-identical
// delivery traces. Any nondeterminism the analyzers cannot see — a new
// dependency, unsafe tricks, scheduler leakage — shows up here as a
// hash mismatch.
package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"time"

	"predis/internal/simnet"
	"predis/internal/wire"
)

// ReplayTrace folds every simnet delivery into a running SHA-256. The
// digest covers (from, to, message type, wire size, virtual delivery
// time), so two runs agree iff they delivered the same messages in the
// same order at the same virtual instants.
type ReplayTrace struct {
	h hash.Hash
	n uint64
	// buf holds the records not yet hashed, fill bytes of them: record
	// appends one and hashes the buffer whole when it is full, and Sum
	// hashes what is left. The digest is that of the records written one
	// by one, at a hash call per replayBatch deliveries instead of per
	// delivery. Held in the struct, since a local array would escape
	// through the hash.Hash interface.
	buf  [replayBatch * replayRecord]byte
	fill int
}

// replayRecord is one delivery's record: from and to (4 bytes each), the
// type (2), the wire size and the virtual delivery time (8 each), then two
// zero bytes, which every pinned digest includes.
const replayRecord = 28

// replayBatch is how many records ReplayTrace hashes at a time.
const replayBatch = 128

// NewReplayTrace returns an empty trace.
func NewReplayTrace() *ReplayTrace {
	return &ReplayTrace{h: sha256.New()}
}

// Attach installs the trace on net, chaining any OnDeliver hook already
// present so observation stays composable.
func (t *ReplayTrace) Attach(net *simnet.Network) {
	prev := net.OnDeliver
	net.OnDeliver = func(from, to wire.NodeID, m wire.Message, at time.Time) {
		t.record(from, to, m, at)
		if prev != nil {
			prev(from, to, m, at)
		}
	}
}

//predis:hotpath
func (t *ReplayTrace) record(from, to wire.NodeID, m wire.Message, at time.Time) {
	buf := t.buf[t.fill : t.fill+replayRecord]
	binary.LittleEndian.PutUint32(buf[0:], uint32(from))
	binary.LittleEndian.PutUint32(buf[4:], uint32(to))
	binary.LittleEndian.PutUint16(buf[8:], uint16(m.Type()))
	binary.LittleEndian.PutUint64(buf[10:], uint64(m.WireSize()))
	binary.LittleEndian.PutUint64(buf[18:], uint64(at.Sub(simnet.Epoch)))
	buf[26], buf[27] = 0, 0
	t.fill += replayRecord
	if t.fill == len(t.buf) {
		t.flush()
	}
	t.n++
}

// flush hashes the buffered records.
func (t *ReplayTrace) flush() {
	t.h.Write(t.buf[:t.fill])
	t.fill = 0
}

// Sum returns the hex digest of everything recorded so far.
func (t *ReplayTrace) Sum() string {
	t.flush()
	return hex.EncodeToString(t.h.Sum(nil))
}

// Deliveries returns how many deliveries were folded in.
func (t *ReplayTrace) Deliveries() uint64 { return t.n }
