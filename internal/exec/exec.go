// Package exec is the deterministic execution plane: an account state
// machine over the semantic operations carried by types.Transaction
// (transfer / read-modify-write with declared read and write sets) and a
// two-phase levelized committer in the Octopus/DAG style: the model of
// a parallel committer, run inline.
//
// Phase one runs on the event loop and is pure bookkeeping: the block's
// committed transactions are grouped into dependency levels by
// read/write-set conflict analysis (RAW, WAR, and WAW conflicts all
// order transactions into later levels; read-read sharing does not).
// The construction guarantees two properties inside any single level:
// no two transactions write the same key, and no transaction reads a
// key a level-mate writes. Every kernel of a level therefore sees
// exactly the pre-level state, and the level's write sets are disjoint
// — so the merge result is independent of execution order.
//
// Phase two executes each level's transactions as pure kernels: each
// kernel reads an immutable Snapshot and buffers its writes into its own
// output slot. At the level's join point the buffered writes merge into
// the block's multi-version state cache (MVCache), versioned by level;
// the cache flushes into the base state once per block. The resulting
// state root is identical to the serial reference committer's, which
// applies transactions strictly in commit order.
//
// The base state is a radix-4 Merkle tree over the account keys
// (commitment.go) that is its own commitment: the flush rehashes only
// the paths of the block's writes, so a commit costs O(writes · log n)
// digests whatever the ledger's size, and the state root is a cached
// value. Everything a commit needs — cache, leveler tables, effect slots
// and the write arena — is machine-owned scratch, so a steady-state
// block allocates nothing.
//
// Like every protocol component, a Machine is driven from the single
// simulator goroutine.
package exec

import (
	"predis/internal/compute"
	"predis/internal/crypto"
	"predis/internal/types"
)

// WriteOp is one buffered account write.
type WriteOp struct {
	Key, Val uint64
}

// effect is one transaction's buffered outcome: a window of the level's
// write arena (sized from the declared write set before the kernel runs,
// n of it filled by the kernel), or a deterministic abort (insufficient
// balance) with no writes.
type effect struct {
	off, n  int32
	aborted bool
}

// Snapshot is the read-only state view a level's kernels execute
// against: the committed base state plus the multi-version cache of all
// previously merged levels. It does not change while a level runs —
// merges happen only at the level's join point.
type Snapshot struct {
	base    *stateTree
	cache   map[uint64]versioned
	genesis uint64
}

// Get returns the balance of an account, falling back to the genesis
// default for accounts never written.
func (s Snapshot) Get(key uint64) uint64 {
	if e, ok := s.cache[key]; ok {
		return e.val
	}
	if v, ok := s.base.get(key); ok {
		return v
	}
	return s.genesis
}

// versioned is one cached balance and the level that wrote it.
type versioned struct {
	val   uint64
	level int
}

// MVCache is the multi-version state cache of one block's execution:
// each dependency level's writes merge into it at the level's join
// point, tagged with the level as their version, and the whole cache
// flushes into the base state once at block commit. A machine owns one
// and clears it per block. Kernels read it through Snapshot.
type MVCache struct {
	entries map[uint64]versioned
}

// NewMVCache builds an empty cache.
func NewMVCache() *MVCache {
	return &MVCache{entries: make(map[uint64]versioned)}
}

// Merge applies one level's buffered writes, recording the level as the
// written keys' version. Call only at the level's join point.
func (c *MVCache) Merge(level int, writes []WriteOp) {
	for _, w := range writes {
		c.entries[w.Key] = versioned{val: w.Val, level: level}
	}
}

// Version returns the level that last wrote key, or -1 when the cache
// holds no version for it.
func (c *MVCache) Version(key uint64) int {
	if e, ok := c.entries[key]; ok {
		return e.level
	}
	return -1
}

// Len returns the number of distinct keys written.
func (c *MVCache) Len() int { return len(c.entries) }

// Result summarizes one block's execution.
type Result struct {
	Height    uint64
	StateRoot crypto.Hash
	// Txs counts the block's semantic (non-opaque) transactions.
	Txs int
	// Applied and Aborted partition Txs; aborts are deterministic
	// (insufficient balance), never scheduling artifacts.
	Applied, Aborted int
	// Levels is the dependency-level count; MaxWidth the widest level.
	// Levels == 1 means the whole block was conflict-free; mean width
	// (Txs/Levels) is the committer's available parallelism, which is
	// the meaningful measure even on a 1-CPU host.
	Levels, MaxWidth int
}

// Stats aggregates execution counters across a machine's lifetime.
type Stats struct {
	Blocks, Txs, Applied, Aborted int
	Levels, MaxWidth              int
	// Gaps counts blocks whose height did not follow the machine's last
	// executed one — for a fresh machine, a first block above height 1.
	// After the first the machine's state is no longer the chain's, and it
	// reports a zero state root.
	Gaps int
	// Hashes counts the digests the state commitment computed.
	Hashes int
}

// MeanWidth returns the lifetime mean dependency-level width.
func (s Stats) MeanWidth() float64 {
	if s.Levels == 0 {
		return 0
	}
	return float64(s.Txs) / float64(s.Levels)
}

// lastAccess is the leveler's per-key record: one past the latest level
// that read and that wrote the key in the current unit, 0 for never.
type lastAccess struct {
	read, write int32
}

// Machine is the account state machine one node maintains. All methods
// run on the event loop; a machine is never shared between nodes (each
// replica executes its own copy of the committed sequence).
type Machine struct {
	genesis uint64
	// state holds every written account and its Merkle commitment.
	state  stateTree
	root   crypto.Hash // commitment to genesis and state; zero after a gap
	height uint64
	stats  Stats

	// cache is the block in flight; cleared at commit.
	cache *MVCache

	// Leveler scratch, reused across blocks: the semantic indices, the
	// per-key access record, each semantic transaction's level, and the
	// level-ordered index array that levels holds windows of.
	sem        []int
	last       map[uint64]lastAccess
	rbuf, wbuf []uint64
	levelOf    []int32
	levelEnd   []int
	order      []int
	levels     [][]int

	// The level being executed: kernels read txs, idxs and snap and
	// write their own effects slot and arena window.
	txs     []*types.Transaction
	idxs    []int
	snap    Snapshot
	effects []effect
	arena   []WriteOp
}

// NewMachine builds a machine whose accounts all start at the genesis
// balance.
func NewMachine(genesis uint64) *Machine {
	m := &Machine{
		genesis: genesis,
		cache:   NewMVCache(),
		last:    make(map[uint64]lastAccess),
	}
	m.snap = Snapshot{base: &m.state, cache: m.cache.entries, genesis: genesis}
	m.root = m.state.rootHash(genesis)
	return m
}

// Height returns the last executed block height.
func (m *Machine) Height() uint64 { return m.height }

// Balance returns an account's balance (genesis default when never
// written).
func (m *Machine) Balance(key uint64) uint64 {
	return m.snap.Get(key) // the cache is empty between blocks
}

// Touched returns how many accounts have been written since genesis.
func (m *Machine) Touched() int { return int(m.state.nl) }

// Stats returns the lifetime execution counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Hashes = m.state.hashes
	return s
}

// StateRoot returns the commitment to the full account state as of the
// last executed block: the genesis balance bound to the Merkle root of
// every written (account, balance) pair. Two machines agree on the root
// iff they agree on every balance. It is zero once the machine has
// executed across a height gap.
func (m *Machine) StateRoot() crypto.Hash { return m.root }

// semantic collects the indices of the block's non-opaque transactions.
func (m *Machine) semantic(txs []*types.Transaction) []int {
	m.sem = m.sem[:0]
	for i, tx := range txs {
		if !tx.Op.IsNoop() {
			m.sem = append(m.sem, i)
		}
	}
	return m.sem
}

// levelize groups the block's semantic transactions into dependency
// levels. A transaction lands one level past the latest conflicting
// predecessor in commit order: past the last writer of anything it
// reads (RAW), and past both the last writer (WAW) and the last reader
// (WAR) of anything it writes. Within a level, write sets are disjoint
// and no transaction reads a level-mate's writes, so level-internal
// execution order cannot matter. The returned levels alias machine
// scratch and are valid until the next call.
func (m *Machine) levelize(txs []*types.Transaction, sem []int) [][]int {
	clear(m.last)
	m.levelOf = m.levelOf[:0]
	m.levelEnd = m.levelEnd[:0]
	for _, ti := range sem {
		op := &txs[ti].Op
		m.rbuf = op.ReadKeys(m.rbuf[:0])
		m.wbuf = op.WriteKeys(m.wbuf[:0])
		var lvl int32
		for _, k := range m.rbuf {
			lvl = max(lvl, m.last[k].write)
		}
		for _, k := range m.wbuf {
			a := m.last[k]
			lvl = max(lvl, a.write, a.read)
		}
		for _, k := range m.rbuf {
			a := m.last[k]
			a.read = max(a.read, lvl+1)
			m.last[k] = a
		}
		for _, k := range m.wbuf {
			a := m.last[k]
			a.write = lvl + 1 // strictly increasing per key (WAW ordered)
			m.last[k] = a
		}
		m.levelOf = append(m.levelOf, lvl)
		for int(lvl) >= len(m.levelEnd) {
			m.levelEnd = append(m.levelEnd, 0)
		}
		m.levelEnd[lvl]++
	}
	// Counting sort by level, stable in commit order: levelEnd turns
	// from per-level counts into each level's fill position.
	pos := 0
	for l, n := range m.levelEnd {
		m.levelEnd[l] = pos
		pos += n
	}
	if cap(m.order) < len(sem) {
		m.order = make([]int, len(sem))
	}
	m.order = m.order[:len(sem)]
	for i, l := range m.levelOf {
		m.order[m.levelEnd[l]] = sem[i]
		m.levelEnd[l]++
	}
	m.levels = m.levels[:0]
	start := 0
	for _, end := range m.levelEnd {
		m.levels = append(m.levels, m.order[start:end])
		start = end
	}
	return m.levels
}

// writeCap is the most writes an operation can buffer: the size of its
// declared write set.
func writeCap(op *types.Op) int {
	switch op.Kind {
	case types.OpTransfer:
		return 2
	case types.OpRMW:
		return len(op.Writes)
	}
	return 0
}

// applyOp executes one semantic operation against the snapshot, buffers
// its writes into out (at least writeCap(op) long) and returns how many
// it wrote. It is a pure kernel: it reads only snap and the op and
// writes only out and its return values, so a level's kernels may run
// in any order. Both committers (levelized and serial) apply ops through
// this one function, so their per-op semantics cannot drift.
func applyOp(snap Snapshot, op *types.Op, out []WriteOp) (n int, aborted bool) {
	switch op.Kind {
	case types.OpTransfer:
		if op.From == op.To {
			return 0, false // self-transfer: applies, moves nothing
		}
		from := snap.Get(op.From)
		if from < op.Amount {
			return 0, true
		}
		out[0] = WriteOp{Key: op.From, Val: from - op.Amount}
		out[1] = WriteOp{Key: op.To, Val: snap.Get(op.To) + op.Amount}
		return 2, false
	case types.OpRMW:
		var fold uint64
		for _, k := range op.Reads {
			fold ^= snap.Get(k) // the read half: observe, don't write
		}
		_ = fold
		for i, k := range op.Writes {
			out[i] = WriteOp{Key: k, Val: snap.Get(k) + op.Delta}
		}
		return len(op.Writes), false
	}
	return 0, false
}

// stage sizes the current level's effect slots and arena windows from
// the declared write sets of txs[idxs...].
func (m *Machine) stage(txs []*types.Transaction, idxs []int) {
	m.txs, m.idxs = txs, idxs
	m.effects = m.effects[:0]
	off := 0
	for _, ti := range idxs {
		m.effects = append(m.effects, effect{off: int32(off)})
		off += writeCap(&txs[ti].Op)
	}
	if cap(m.arena) < off {
		m.arena = make([]WriteOp, off)
	}
	m.arena = m.arena[:off]
}

// kernel executes the i-th transaction of the staged level into its own
// effect slot and arena window.
func (m *Machine) kernel(i int) {
	e := &m.effects[i]
	n, aborted := applyOp(m.snap, &m.txs[m.idxs[i]].Op, m.arena[e.off:])
	e.n, e.aborted = int32(n), aborted
}

// join merges the staged level's effects into the block's cache in
// index order (order is immaterial — write sets are disjoint — but
// fixed order keeps the loop boring to reason about).
func (m *Machine) join(level int, res *Result) {
	for i := range m.effects {
		e := &m.effects[i]
		if e.aborted {
			res.Aborted++
		} else {
			res.Applied++
		}
		m.cache.Merge(level, m.arena[e.off:e.off+e.n])
	}
}

// ExecuteBlock runs the two-phase levelized committer over one committed
// block: levelize, then execute each level's kernels and merge their
// buffered writes through the multi-version cache at the level's join
// point. The returned state root is equal to ExecuteBlockSerial's on the
// same machine state and transaction sequence. The pool is ignored: the
// parameter is held for cmd/predis-perf (see package compute).
func (m *Machine) ExecuteBlock(_ *compute.Pool, height uint64, txs []*types.Transaction) Result {
	sem := m.semantic(txs)
	levels := m.levelize(txs, sem)
	res := Result{Height: height, Txs: len(sem), Levels: len(levels)}
	for lvl, idxs := range levels {
		if len(idxs) > res.MaxWidth {
			res.MaxWidth = len(idxs)
		}
		m.stage(txs, idxs)
		for i := range idxs {
			m.kernel(i)
		}
		m.join(lvl, &res)
	}
	m.commit(&res)
	return res
}

// ExecuteBlockSerial is the reference committer: it applies the block's
// semantic transactions strictly in commit order, one level each. It
// exists to pin the parallel committer's semantics (identical state
// roots) and as the contention experiment's baseline.
func (m *Machine) ExecuteBlockSerial(height uint64, txs []*types.Transaction) Result {
	sem := m.semantic(txs)
	res := Result{Height: height, Txs: len(sem), Levels: len(sem)}
	if len(sem) > 0 {
		res.MaxWidth = 1
	}
	for i := range sem {
		m.stage(txs, sem[i:i+1])
		m.kernel(0)
		m.join(i, &res)
	}
	m.commit(&res)
	return res
}

// commit flushes the block's cache into the state tree, rehashes the
// touched paths, and finalizes the result and lifetime stats.
//
//predis:hotpath
func (m *Machine) commit(res *Result) {
	if res.Height != m.height+1 {
		m.stats.Gaps++
	}
	m.height = res.Height
	for k, e := range m.cache.entries {
		m.state.set(k, e.val)
	}
	clear(m.cache.entries)
	if m.stats.Gaps == 0 {
		m.root = m.state.rootHash(m.genesis)
	} else {
		m.root = crypto.ZeroHash
	}
	res.StateRoot = m.root
	m.stats.Blocks++
	m.stats.Txs += res.Txs
	m.stats.Applied += res.Applied
	m.stats.Aborted += res.Aborted
	m.stats.Levels += res.Levels
	if res.MaxWidth > m.stats.MaxWidth {
		m.stats.MaxWidth = res.MaxWidth
	}
}
