// Package exec is the deterministic execution plane: an account state
// machine over the semantic operations carried by types.Transaction
// (transfer / read-modify-write with declared read and write sets).
//
// A Machine applies each committed block's semantic transactions once,
// strictly in commit order, through one per-block write cache: reads go
// cache, then the committed state, then the genesis default, and the
// cache flushes into the state once per block. Each operation's new
// values are computed from the state before that operation, and an
// insufficient balance aborts a transfer deterministically.
//
// Alongside, the levelizer measures the block's available parallelism
// without acting on it: it counts which dependency level each
// transaction would run in under a levelized (Octopus/DAG-style)
// committer — RAW, WAR and WAW conflicts order a transaction into a
// later level, read-read sharing does not — and how wide each level is.
// Execution costs no virtual time in the simulator, so the level widths
// are the only output such a committer would add; Result and Stats
// report them.
//
// The committed state is a radix-4 Merkle tree over the account keys
// (commitment.go) that is its own commitment: the flush rehashes only
// the paths of the block's writes, so a commit costs O(writes · log n)
// digests whatever the ledger's size, and the state root is a cached
// value. The cache and the levelizer's tables are machine-owned scratch,
// so a steady-state block allocates nothing.
//
// Like every protocol component, a Machine is driven from the single
// simulator goroutine.
package exec

import (
	"slices"

	"predis/internal/compute"
	"predis/internal/crypto"
	"predis/internal/types"
)

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
	// (Txs/Levels) is the parallelism a levelized committer would have
	// available.
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

// lastAccess is the levelizer's per-key record: one past the latest
// level that read and that wrote the key in the current block, 0 for
// never.
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

	// cache holds the writes of the block in flight; flushed and cleared
	// at commit.
	cache map[uint64]uint64

	// Levelizer scratch, reused across blocks: the per-key access record,
	// each semantic transaction's level, and each level's width.
	last       map[uint64]lastAccess
	rbuf, wbuf []uint64
	levelOf    []int32
	widths     []int
}

// NewMachine builds a machine whose accounts all start at the genesis
// balance.
func NewMachine(genesis uint64) *Machine {
	m := &Machine{
		genesis: genesis,
		cache:   make(map[uint64]uint64),
		last:    make(map[uint64]lastAccess),
	}
	m.root = m.state.rootHash(genesis)
	return m
}

// Height returns the last executed block height.
func (m *Machine) Height() uint64 { return m.height }

// Balance returns an account's balance (genesis default when never
// written).
func (m *Machine) Balance(key uint64) uint64 {
	return m.get(key) // the cache is empty between blocks
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

// get reads an account: the block's cache, then the committed state,
// then the genesis default.
func (m *Machine) get(key uint64) uint64 {
	if v, ok := m.cache[key]; ok {
		return v
	}
	if v, ok := m.state.get(key); ok {
		return v
	}
	return m.genesis
}

// levelize counts the block's dependency levels. A semantic transaction
// lands one level past the latest conflicting predecessor in commit
// order: past the last writer of anything it reads (RAW), and past both
// the last writer (WAW) and the last reader (WAR) of anything it writes.
// Within a level, write sets are disjoint and no transaction reads a
// level-mate's writes. It returns each level's width; m.levelOf holds
// each semantic transaction's level in commit order. Both alias machine
// scratch and are valid until the next call.
func (m *Machine) levelize(txs []*types.Transaction) []int {
	clear(m.last)
	m.levelOf = m.levelOf[:0]
	m.widths = m.widths[:0]
	for _, tx := range txs {
		op := &tx.Op
		if op.IsNoop() {
			continue
		}
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
		if int(lvl) == len(m.widths) {
			m.widths = append(m.widths, 0)
		}
		m.widths[lvl]++
	}
	return m.widths
}

// apply executes one semantic operation into the block's cache and
// reports whether it aborted. New values are computed from the state
// before the operation, so an RMW that names a key twice adds Delta
// once. The read set orders transactions (levelize) but moves no
// balance.
func (m *Machine) apply(op *types.Op) (aborted bool) {
	switch op.Kind {
	case types.OpTransfer:
		if op.From == op.To {
			return false // self-transfer: applies, moves nothing
		}
		from := m.get(op.From)
		if from < op.Amount {
			return true
		}
		to := m.get(op.To)
		m.cache[op.From] = from - op.Amount
		m.cache[op.To] = to + op.Amount
	case types.OpRMW:
		for i, k := range op.Writes {
			if !slices.Contains(op.Writes[:i], k) {
				m.cache[k] = m.get(k) + op.Delta
			}
		}
	}
	return false
}

// run applies the block's semantic transactions in commit order and
// counts them into res.
func (m *Machine) run(txs []*types.Transaction, res *Result) {
	for _, tx := range txs {
		if tx.Op.IsNoop() {
			continue
		}
		res.Txs++
		if m.apply(&tx.Op) {
			res.Aborted++
		} else {
			res.Applied++
		}
	}
}

// ExecuteBlock executes one committed block in commit order and reports
// its dependency-level shape. The pool is ignored: the parameter is held
// for cmd/predis-perf (see package compute).
//
//predis:hotpath
func (m *Machine) ExecuteBlock(_ *compute.Pool, height uint64, txs []*types.Transaction) Result {
	res := Result{Height: height}
	for _, w := range m.levelize(txs) {
		res.Levels++
		res.MaxWidth = max(res.MaxWidth, w)
	}
	m.run(txs, &res)
	m.commit(&res)
	return res
}

// ExecuteBlockSerial executes one committed block exactly as
// ExecuteBlock does but reports one level per transaction, the shape of
// a serial committer. It is held for cmd/predis-perf, which times it as
// exec.serial_block_us_per_tx.
func (m *Machine) ExecuteBlockSerial(height uint64, txs []*types.Transaction) Result {
	res := Result{Height: height}
	m.run(txs, &res)
	res.Levels, res.MaxWidth = res.Txs, min(res.Txs, 1)
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
	for k, v := range m.cache {
		m.state.set(k, v)
	}
	clear(m.cache)
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
