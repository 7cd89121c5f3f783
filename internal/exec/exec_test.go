package exec

import (
	"testing"
	"time"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/wire"
	"predis/internal/workload"
)

const genesis = 1000

func transfer(seq uint64, from, to, amount uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq)).
		WithOp(types.Op{Kind: types.OpTransfer, From: from, To: to, Amount: amount})
}

func rmw(seq uint64, reads, writes []uint64, delta uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq)).
		WithOp(types.Op{Kind: types.OpRMW, Reads: reads, Writes: writes, Delta: delta})
}

func opaque(seq uint64) *types.Transaction {
	return types.NewTransaction(wire.NodeID(1+seq%4), seq, types.DefaultTxSize, time.Duration(seq))
}

// levelsOf extracts each semantic transaction's level index for
// comparison.
func levelsOf(m *Machine, txs []*types.Transaction) map[uint64]int {
	m.levelize(txs)
	got := map[uint64]int{}
	i := 0
	for _, tx := range txs {
		if !tx.Op.IsNoop() {
			got[tx.Seq] = int(m.levelOf[i])
			i++
		}
	}
	return got
}

func TestLevelizeConflictFree(t *testing.T) {
	m := NewMachine(genesis)
	txs := []*types.Transaction{
		transfer(0, 1, 2, 5),
		transfer(1, 3, 4, 5),
		opaque(2),
		transfer(3, 5, 6, 5),
	}
	lv := levelsOf(m, txs)
	if lv[0] != 0 || lv[1] != 0 || lv[3] != 0 {
		t.Fatalf("disjoint transfers must share level 0: %v", lv)
	}
	if _, ok := lv[2]; ok {
		t.Fatal("opaque tx must not be leveled")
	}
}

func TestLevelizeConflictChain(t *testing.T) {
	m := NewMachine(genesis)
	txs := []*types.Transaction{
		transfer(0, 1, 2, 5),                 // writes {1,2}
		transfer(1, 2, 3, 5),                 // RAW+WAW on 2 -> level 1
		transfer(2, 3, 4, 5),                 // conflicts with seq 1 on 3 -> level 2
		transfer(3, 9, 10, 5),                // independent -> level 0
		rmw(4, []uint64{1}, []uint64{20}, 1), // reads 1 (written at lvl 0) -> level 1
		rmw(5, nil, []uint64{1}, 1),          // writes 1: past writer lvl 0 AND reader lvl 1 -> level 2
	}
	lv := levelsOf(m, txs)
	want := map[uint64]int{0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2}
	for seq, w := range want {
		if lv[seq] != w {
			t.Fatalf("seq %d level = %d, want %d (all: %v)", seq, lv[seq], w, lv)
		}
	}
}

func TestExecuteBlockTransferSemantics(t *testing.T) {
	m := NewMachine(genesis)
	res := m.ExecuteBlock(nil, 1, []*types.Transaction{
		transfer(0, 1, 2, 300),
		transfer(1, 1, 3, 300), // serial predecessor left 700 -> applies
		transfer(2, 1, 4, 500), // balance now 400 -> deterministic abort
		transfer(3, 7, 7, 999), // self-transfer: applies, moves nothing
		opaque(4),
	})
	if res.Txs != 4 || res.Applied != 3 || res.Aborted != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := m.Balance(1); got != genesis-600 {
		t.Fatalf("Balance(1) = %d, want %d", got, genesis-600)
	}
	if got := m.Balance(2); got != genesis+300 {
		t.Fatalf("Balance(2) = %d, want %d", got, genesis+300)
	}
	if got := m.Balance(4); got != genesis {
		t.Fatalf("aborted transfer must not move funds: Balance(4) = %d", got)
	}
	if m.Height() != 1 {
		t.Fatalf("Height = %d", m.Height())
	}
}

// highConflictBlock is a schedule where nearly every transaction
// conflicts with a predecessor: long RAW/WAW chains over a tiny account
// set, interleaved with independent work and deterministic aborts.
func highConflictBlock(n int) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		seq := uint64(i)
		switch i % 5 {
		case 0:
			txs = append(txs, transfer(seq, 1, 2, 50))
		case 1:
			txs = append(txs, transfer(seq, 2, 3, 120))
		case 2:
			txs = append(txs, rmw(seq, []uint64{1, 3}, []uint64{2}, 7))
		case 3:
			txs = append(txs, transfer(seq, 3, 1, 900)) // aborts once 3 drains
		default:
			txs = append(txs, rmw(seq, nil, []uint64{4, 5}, 3))
		}
	}
	return txs
}

// uniformBlock is a mostly conflict-free schedule across many accounts.
func uniformBlock(n int) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for i := 0; i < n; i++ {
		seq := uint64(i)
		from := 100 + 2*seq
		txs = append(txs, transfer(seq, from, from+1, 25))
	}
	return txs
}

// foldResults hashes the full observable result sequence — roots and
// every counter — so two executions compare as one value.
func foldResults(rs []Result) crypto.Hash {
	h := crypto.ZeroHash
	for _, r := range rs {
		h = crypto.HashConcat(h[:], r.StateRoot[:], []byte{
			byte(r.Height), byte(r.Txs), byte(r.Applied),
			byte(r.Aborted), byte(r.Levels), byte(r.MaxWidth),
		})
	}
	return h
}

func runBlocks(serial bool, blocks [][]*types.Transaction) ([]Result, *Machine) {
	m := NewMachine(genesis)
	var rs []Result
	for i, blk := range blocks {
		if serial {
			rs = append(rs, m.ExecuteBlockSerial(uint64(i+1), blk))
		} else {
			rs = append(rs, m.ExecuteBlock(nil, uint64(i+1), blk))
		}
	}
	return rs, m
}

// oracle is the reference state machine the committer is checked
// against: a plain map that applies each operation on its own, in
// commit order. It shares no code with Machine.
type oracle map[uint64]uint64

func (o oracle) get(key uint64) uint64 {
	if v, ok := o[key]; ok {
		return v
	}
	return genesis
}

// block applies one block and counts its applied and aborted semantic
// transactions.
func (o oracle) block(txs []*types.Transaction) (applied, aborted int) {
	for _, tx := range txs {
		op := tx.Op
		switch op.Kind {
		case types.OpTransfer:
			if op.From == op.To {
				applied++ // moves nothing, whatever the balance
				continue
			}
			if o.get(op.From) < op.Amount {
				aborted++
				continue
			}
			applied++
			o[op.From] = o.get(op.From) - op.Amount
			o[op.To] = o.get(op.To) + op.Amount
		case types.OpRMW:
			applied++
			before := map[uint64]uint64{}
			for _, k := range op.Writes {
				before[k] = o.get(k)
			}
			for k, v := range before {
				o[k] = v + op.Delta
			}
		}
	}
	return applied, aborted
}

// checkAgainstOracle executes blocks on a fresh machine with both entry
// points and compares every block's state root and apply/abort counts
// with the oracle's. It returns ExecuteBlock's results and machine.
func checkAgainstOracle(t *testing.T, name string, blocks [][]*types.Transaction) ([]Result, *Machine) {
	t.Helper()
	o := oracle{}
	rs, m := runBlocks(false, blocks)
	serial, _ := runBlocks(true, blocks)
	for i, blk := range blocks {
		applied, aborted := o.block(blk)
		want := oracleRoot(genesis, o)
		for _, r := range []Result{rs[i], serial[i]} {
			if r.StateRoot != want || r.Applied != applied || r.Aborted != aborted {
				t.Fatalf("%s block %d: %+v, oracle root %s applied %d aborted %d",
					name, i+1, r, want.Short(), applied, aborted)
			}
		}
	}
	return rs, m
}

// TestLevelizedMatchesSerial is the determinism pin: the same block
// sequence executed twice must produce byte-identical state roots and
// result counters, on both a high-conflict and a conflict-free schedule
// — and every block must equal the in-test oracle's root and counts.
func TestLevelizedMatchesSerial(t *testing.T) {
	blocks := [][]*types.Transaction{
		highConflictBlock(64),
		uniformBlock(64),
		highConflictBlock(31),
		{opaque(0), opaque(1)}, // all-opaque block
		{},                     // empty block
		{
			rmw(0, []uint64{1}, []uint64{9, 9}, 10), // names 9 twice: +10 once
			transfer(1, 9, 9, 1<<40),                // self-transfer above the balance: applies
			transfer(2, 9, 1, 5),
		},
	}
	var fold crypto.Hash
	for run := 1; run <= 2; run++ {
		rs, m := checkAgainstOracle(t, "hand-built", blocks)
		if run == 1 {
			fold = foldResults(rs)
		} else if f := foldResults(rs); f != fold {
			t.Fatalf("run %d: result fold diverged", run)
		}
		if m.Stats().Aborted == 0 {
			t.Fatal("schedule must exercise deterministic aborts")
		}
	}
}

// TestLevelizedMatchesSerialSkewShapes runs the contention experiment's
// four skew shapes (harness's contentionScenarios at seed 1, with its
// 1 000-unit genesis and 50-unit transfers): Zipf op streams cut into
// blocks of 128 transactions must give the oracle's state root and
// apply/abort counts at every block.
func TestLevelizedMatchesSerialSkewShapes(t *testing.T) {
	shapes := []struct {
		name string
		cfg  workload.ZipfConfig
	}{
		{"uniform-4096", workload.ZipfConfig{Accounts: 4096, Theta: 0, RMWFrac: 0.1, Amount: 50, Seed: 1}},
		{"zipf0.9-1024", workload.ZipfConfig{Accounts: 1024, Theta: 0.9, RMWFrac: 0.1, Amount: 50, Seed: 1}},
		{"zipf1.2-256", workload.ZipfConfig{Accounts: 256, Theta: 1.2, RMWFrac: 0.2, Amount: 50, Seed: 1}},
		{"hotspot-64", workload.ZipfConfig{Accounts: 64, Theta: 0.9, HotFrac: 0.35, RMWFrac: 0.2, Amount: 50, Seed: 1}},
	}
	const blockTxs, nblocks = 128, 8
	for _, sh := range shapes {
		ops := workload.NewZipfOps(sh.cfg)
		blocks := make([][]*types.Transaction, nblocks)
		for i := range blocks {
			for k := 0; k < blockTxs; k++ {
				seq := uint64(i*blockTxs + k)
				client := wire.NodeID(1000 + seq%4)
				blocks[i] = append(blocks[i], types.NewTransaction(client, seq, types.DefaultTxSize, 0).
					WithOp(ops.Op(client, seq)))
			}
		}
		_, m := checkAgainstOracle(t, sh.name, blocks)
		if st := m.Stats(); st.Txs != blockTxs*nblocks {
			t.Fatalf("%s: executed %d semantic txs, want %d", sh.name, st.Txs, blockTxs*nblocks)
		}
	}
}

// TestParallelismAvailable checks the leveler actually finds width: the
// conflict-free schedule must collapse to one wide level, the
// high-conflict one must stay narrow.
func TestParallelismAvailable(t *testing.T) {
	m := NewMachine(genesis)
	res := m.ExecuteBlock(nil, 1, uniformBlock(64))
	if res.Levels != 1 || res.MaxWidth != 64 {
		t.Fatalf("conflict-free block: levels=%d maxWidth=%d, want 1/64", res.Levels, res.MaxWidth)
	}
	m2 := NewMachine(genesis)
	res2 := m2.ExecuteBlock(nil, 1, highConflictBlock(64))
	if res2.Levels < 10 {
		t.Fatalf("high-conflict block leveled too flat: levels=%d", res2.Levels)
	}
	if res2.Levels > res2.Txs {
		t.Fatalf("levels %d exceed txs %d", res2.Levels, res2.Txs)
	}
}

func TestStateRootCommitsToState(t *testing.T) {
	a := NewMachine(genesis)
	b := NewMachine(genesis)
	if a.StateRoot() != b.StateRoot() {
		t.Fatal("fresh machines must agree")
	}
	a.ExecuteBlock(nil, 1, []*types.Transaction{transfer(0, 1, 2, 5)})
	if a.StateRoot() == b.StateRoot() {
		t.Fatal("root must change when state changes")
	}
	b.ExecuteBlockSerial(1, []*types.Transaction{transfer(0, 1, 2, 5)})
	if a.StateRoot() != b.StateRoot() {
		t.Fatal("ExecuteBlock and ExecuteBlockSerial diverged on one transfer")
	}
	c := NewMachine(genesis + 1)
	if c.StateRoot() == b.StateRoot() && c.Touched() == 0 {
		t.Fatal("root must commit to the genesis balance")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := NewMachine(genesis)
	m.ExecuteBlock(nil, 1, uniformBlock(8))
	m.ExecuteBlock(nil, 2, highConflictBlock(10))
	s := m.Stats()
	if s.Blocks != 2 || s.Txs != 18 || s.Applied+s.Aborted != 18 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanWidth() <= 1 {
		t.Fatalf("mean width = %f, want > 1 (uniform block is wide)", s.MeanWidth())
	}
	if m.Height() != 2 {
		t.Fatalf("Height = %d", m.Height())
	}
}

func TestRMWDelta(t *testing.T) {
	m := NewMachine(genesis)
	m.ExecuteBlock(nil, 1, []*types.Transaction{
		rmw(0, nil, []uint64{5}, 10),
		rmw(1, []uint64{5}, []uint64{5}, 10), // chained: sees 1010
	})
	if got := m.Balance(5); got != genesis+20 {
		t.Fatalf("Balance(5) = %d, want %d", got, genesis+20)
	}
	// New values come from the state before the op: a key named twice
	// gains Delta once.
	m.ExecuteBlock(nil, 2, []*types.Transaction{rmw(2, nil, []uint64{6, 7, 6}, 10)})
	if got := m.Balance(6); got != genesis+10 {
		t.Fatalf("Balance(6) = %d, want %d", got, genesis+10)
	}
}
