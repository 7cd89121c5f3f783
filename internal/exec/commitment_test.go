package exec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"predis/internal/crypto"
	"predis/internal/types"
	"predis/internal/workload"
)

// oracleRoot is the reference commitment: collect the written accounts,
// sort them, and hash the whole state from scratch by the tree's
// definition — a key range branches at the highest base-4 digit on
// which its first and last key differ. It shares no code with stateTree.
func oracleRoot(genesis uint64, state map[uint64]uint64) crypto.Hash {
	keys := make([]uint64, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var g [8]byte
	binary.BigEndian.PutUint64(g[:], genesis)
	return crypto.HashConcat([]byte{tagRoot}, g[:], oracleRecord(keys, state))
}

// oracleRecord returns the record of the subtree holding keys (sorted).
func oracleRecord(keys []uint64, state map[uint64]uint64) []byte {
	switch len(keys) {
	case 0:
		return []byte{tagEmpty}
	case 1:
		rec := []byte{tagLeaf}
		rec = binary.BigEndian.AppendUint64(rec, keys[0])
		return binary.BigEndian.AppendUint64(rec, state[keys[0]])
	}
	digit := (63 - bits.LeadingZeros64(keys[0]^keys[len(keys)-1])) / 2
	pre := []byte{tagBranch, byte(digit)}
	for s := uint64(0); s < 4; s++ {
		// Sorted keys sharing the digits above digit: slot s is a run.
		lo := sort.Search(len(keys), func(i int) bool { return keys[i]>>(2*digit)&3 >= s })
		hi := sort.Search(len(keys), func(i int) bool { return keys[i]>>(2*digit)&3 > s })
		pre = append(pre, oracleRecord(keys[lo:hi], state)...)
	}
	h := crypto.HashBytes(pre)
	return append([]byte{tagBranch}, h[:]...)
}

// treeContents walks the tree and returns its (key → balance) map,
// failing on any structural violation: branch digits must strictly
// decrease downward, every branch must hold at least two children, and
// every key must sit in the slots its digits select.
func treeContents(t testing.TB, tr *stateTree) map[uint64]uint64 {
	t.Helper()
	out := map[uint64]uint64{}
	var walk func(n ref, above int, prefix, mask uint64)
	walk = func(n ref, above int, prefix, mask uint64) {
		if n < 0 {
			lf := tr.leafAt(^n)
			if lf.key&mask != prefix {
				t.Fatalf("leaf %#x under prefix %#x/%#x", lf.key, prefix, mask)
			}
			if _, dup := out[lf.key]; dup {
				t.Fatalf("key %#x stored twice", lf.key)
			}
			out[lf.key] = lf.val
			return
		}
		b := tr.branchAt(n - 1)
		if int(b.digit) >= above {
			t.Fatalf("branch digit %d under digit %d", b.digit, above)
		}
		occupied := 0
		for s, c := range b.child {
			if c != 0 {
				occupied++
				walk(c, int(b.digit), prefix|uint64(s)<<(2*b.digit), mask|3<<(2*b.digit))
			}
		}
		if occupied < 2 {
			t.Fatalf("branch at digit %d holds %d children", b.digit, occupied)
		}
	}
	if tr.root != 0 {
		walk(tr.root, 32, 0, 0)
	}
	if len(out) != int(tr.nl) {
		t.Fatalf("tree reaches %d of its %d leaves", len(out), tr.nl)
	}
	return out
}

// zipfBlocks draws the exec_skew operation stream in blocks.
func zipfBlocks(blocks, perBlock, accounts int) [][]*types.Transaction {
	ops := workload.NewZipfOps(workload.ZipfConfig{
		Accounts: accounts, Theta: 0.9, RMWFrac: 0.1, Amount: 50, Seed: 1,
	})
	out := make([][]*types.Transaction, blocks)
	seq := uint64(0)
	for b := range out {
		for i := 0; i < perBlock; i++ {
			tx := opaque(seq)
			out[b] = append(out[b], tx.WithOp(ops.Op(tx.Client, seq)))
			seq++
		}
	}
	return out
}

// TestIncrementalRootMatchesOracle is property (i): after every block
// of a 200-block Zipf stream the incrementally maintained root equals
// the from-scratch oracle over the machine's state.
func TestIncrementalRootMatchesOracle(t *testing.T) {
	m := NewMachine(genesis)
	if m.StateRoot() != oracleRoot(genesis, nil) {
		t.Fatal("empty root differs from oracle")
	}
	for i, blk := range zipfBlocks(200, 64, 2048) {
		res := m.ExecuteBlock(nil, uint64(i+1), blk)
		want := oracleRoot(genesis, treeContents(t, &m.state))
		if res.StateRoot != want || m.StateRoot() != want {
			t.Fatalf("block %d: root %s, oracle %s", i+1, res.StateRoot.Short(), want.Short())
		}
	}
	for key, val := range treeContents(t, &m.state) {
		if m.Balance(key) != val {
			t.Fatalf("Balance(%d) = %d, tree holds %d", key, m.Balance(key), val)
		}
	}
	if m.Stats().Gaps != 0 {
		t.Fatal("consecutive heights counted as a gap")
	}
}

// TestRootHistoryIndependent is property (ii): one final (key → balance)
// map reached through different block boundaries, write orders and
// committers has one root.
func TestRootHistoryIndependent(t *testing.T) {
	// Commutative single-key increments, so any order ends in one map.
	var txs []*types.Transaction
	for i := 0; i < 300; i++ {
		key := uint64(i%97) * 0x0101010101010101
		txs = append(txs, rmw(uint64(i), nil, []uint64{key}, uint64(1+i%7)))
	}
	run := func(order []int, blockLen int, exec func(m *Machine, h uint64, blk []*types.Transaction)) *Machine {
		m := NewMachine(genesis)
		h := uint64(0)
		for at := 0; at < len(order); at += blockLen {
			var blk []*types.Transaction
			for _, i := range order[at:min(at+blockLen, len(order))] {
				blk = append(blk, txs[i])
			}
			h++
			exec(m, h, blk)
		}
		return m
	}
	parallel := func(m *Machine, h uint64, blk []*types.Transaction) { m.ExecuteBlock(nil, h, blk) }
	serial := func(m *Machine, h uint64, blk []*types.Transaction) { m.ExecuteBlockSerial(h, blk) }
	forward := rand.New(rand.NewSource(1)).Perm(len(txs))
	shuffled := rand.New(rand.NewSource(2)).Perm(len(txs))
	ref := run(forward, len(txs), parallel)
	want := oracleRoot(genesis, treeContents(t, &ref.state))
	if ref.StateRoot() != want {
		t.Fatal("reference run differs from oracle")
	}
	for name, m := range map[string]*Machine{
		"one tx per block":    run(forward, 1, parallel),
		"shuffled, blocks 17": run(shuffled, 17, parallel),
		"shuffled, serial":    run(shuffled, 40, serial),
	} {
		if m.StateRoot() != want {
			t.Fatalf("%s: root %s, want %s", name, m.StateRoot().Short(), want.Short())
		}
	}
}

// TestRootSensitivity is property (iii): one balance, one key or the
// genesis value each change the root; rewriting a stored value does not.
func TestRootSensitivity(t *testing.T) {
	build := func(state map[uint64]uint64) *stateTree {
		tr := &stateTree{}
		for k, v := range state {
			tr.set(k, v)
		}
		return tr
	}
	base := map[uint64]uint64{3: 30, 5: 50, 1 << 40: 7, 9: 90}
	tr := build(base)
	root := tr.rootHash(genesis)
	if root != oracleRoot(genesis, base) {
		t.Fatal("base root differs from oracle")
	}
	if build(map[uint64]uint64{3: 30, 5: 51, 1 << 40: 7, 9: 90}).rootHash(genesis) == root {
		t.Fatal("changing one balance kept the root")
	}
	if build(map[uint64]uint64{3: 30, 4: 50, 1 << 40: 7, 9: 90}).rootHash(genesis) == root {
		t.Fatal("changing one key kept the root")
	}
	if build(map[uint64]uint64{3: 30, 5: 50, 1 << 40: 7}).rootHash(genesis) == root {
		t.Fatal("dropping one key kept the root")
	}
	if tr.rootHash(genesis+1) == root {
		t.Fatal("changing the genesis balance kept the root")
	}
	before := tr.hashes
	tr.set(5, 50)
	if tr.rootHash(genesis) != root {
		t.Fatal("rewriting a stored value changed the root")
	}
	if tr.hashes != before+1 {
		t.Fatalf("rewriting a stored value rehashed %d nodes beyond the root", tr.hashes-before-1)
	}
	// A machine-level write of the genesis value to a fresh account does
	// change the root: the account joins the written set.
	m := NewMachine(genesis)
	empty := m.StateRoot()
	m.ExecuteBlock(nil, 1, []*types.Transaction{rmw(0, nil, []uint64{77}, 0)})
	if m.StateRoot() == empty || m.Touched() != 1 {
		t.Fatal("first write of the genesis value must enter the commitment")
	}
}

// TestEdgeKeysCoexist is property (iv): keys that differ only in the
// top bit, only in the low bit, and the two extremes all coexist.
func TestEdgeKeysCoexist(t *testing.T) {
	want := map[uint64]uint64{
		0:                   1,
		math.MaxUint64:      2,
		1:                   3, // low bit only vs 0
		1 << 63:             4, // top bit only vs 0
		math.MaxUint64 - 1:  5, // low bit only vs max
		math.MaxUint64 >> 1: 6, // top bit only vs max
		1<<63 | 1:           7,
	}
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	ref := oracleRoot(genesis, want)
	for _, seed := range []int64{1, 2, 3, 4} {
		tr := &stateTree{}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(keys)) {
			tr.set(keys[i], 0) // placeholder first, final value second
			tr.rootHash(genesis)
			tr.set(keys[i], want[keys[i]])
		}
		if got := tr.rootHash(genesis); got != ref {
			t.Fatalf("seed %d: root %s, oracle %s", seed, got.Short(), ref.Short())
		}
		got := treeContents(t, tr)
		if len(got) != len(want) {
			t.Fatalf("seed %d: tree holds %d keys, want %d", seed, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("seed %d: key %#x = %d, want %d", seed, k, got[k], v)
			}
		}
	}
}

// TestHeightGapZeroesRoot pins the gap rule: a machine that is handed a
// non-consecutive height counts it and reports a zero root from then
// on, instead of a root no peer computed. A fresh machine's state is the
// chain's only before block 1, so a first block above height 1 — the
// first block of a node that skip-synced from height 0 — is a gap too.
func TestHeightGapZeroesRoot(t *testing.T) {
	late := NewMachine(genesis)
	if r := late.ExecuteBlock(nil, 5, uniformBlock(4)); !r.StateRoot.IsZero() || late.Stats().Gaps != 1 {
		t.Fatalf("a machine starting at height 5 reports root %s, %d gaps", r.StateRoot.Short(), late.Stats().Gaps)
	}
	m := NewMachine(genesis)
	if r := m.ExecuteBlock(nil, 1, uniformBlock(4)); r.StateRoot.IsZero() || m.Stats().Gaps != 0 {
		t.Fatal("height 1 on a fresh machine treated as a gap")
	}
	if r := m.ExecuteBlock(nil, 2, uniformBlock(4)); r.StateRoot.IsZero() || m.Stats().Gaps != 0 {
		t.Fatal("consecutive height treated as a gap")
	}
	if r := m.ExecuteBlock(nil, 9, uniformBlock(4)); !r.StateRoot.IsZero() {
		t.Fatal("root stamped across a height gap")
	}
	if r := m.ExecuteBlockSerial(10, uniformBlock(4)); !r.StateRoot.IsZero() || !m.StateRoot().IsZero() {
		t.Fatal("root came back after a gap")
	}
	if m.Stats().Gaps != 1 || m.Height() != 10 {
		t.Fatalf("gaps = %d, height = %d", m.Stats().Gaps, m.Height())
	}
}

// warmMachine writes every account of a 16 384-account key space below
// touched, then runs a few Zipf blocks so the scratch buffers reach
// their working size. It returns the machine, its height and the Zipf
// block pool.
func warmMachine(touched int) (*Machine, uint64, [][]*types.Transaction) {
	m := NewMachine(genesis)
	h := uint64(0)
	for at := 0; at < touched; at += 256 {
		var blk []*types.Transaction
		for k := at; k < min(at+256, touched); k++ {
			blk = append(blk, rmw(uint64(k), nil, []uint64{uint64(k)}, 1))
		}
		h++
		m.ExecuteBlock(nil, h, blk)
	}
	blocks := zipfBlocks(16, 256, touched)
	for _, blk := range blocks {
		h++
		m.ExecuteBlock(nil, h, blk)
	}
	return m, h, blocks
}

// TestCommitPathAllocs pins the steady-state allocation budget: on a
// warm machine a 256-transaction Zipf(0.9) block allocates a small
// constant whatever the state size, and reading the root allocates
// nothing.
func TestCommitPathAllocs(t *testing.T) {
	for _, touched := range []int{1024, 16384} {
		m, h, blocks := warmMachine(touched)
		if m.Touched() != touched {
			t.Fatalf("warmed to %d accounts, want %d", m.Touched(), touched)
		}
		i := 0
		perBlock := testing.AllocsPerRun(64, func() {
			h++
			m.ExecuteBlock(nil, h, blocks[i%len(blocks)])
			i++
		})
		if perBlock > 8 {
			t.Errorf("%d accounts: ExecuteBlock allocates %.1f per block, want ≤ 8", touched, perBlock)
		}
		if n := testing.AllocsPerRun(100, func() { _ = m.StateRoot() }); n != 0 {
			t.Errorf("StateRoot allocates %.1f", n)
		}
	}
}

// FuzzStateCommitment feeds the tree batches of writes decoded from the
// input — four bytes a write: control, key byte, shift, value — and
// checks the incremental root against the oracle after every batch,
// then replays the final map in two other batchings.
func FuzzStateCommitment(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 9, 0, 1, 63, 9, 4, 0, 0, 1, 2, 255, 0, 3})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 3, 1, 5, 0, 3, 1, 5, 4, 2, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &stateTree{}
		state := map[uint64]uint64{}
		check := func(tr *stateTree, when string) {
			if got, want := tr.rootHash(genesis), oracleRoot(genesis, state); got != want {
				t.Fatalf("%s: root %s, oracle %s", when, got.Short(), want.Short())
			}
		}
		for ; len(data) >= 4; data = data[4:] {
			ctl, val := data[0], uint64(data[3])
			key := uint64(data[1]) << (data[2] % 64)
			if ctl&1 != 0 {
				key |= 1 << 63
			}
			if ctl&2 != 0 {
				key = ^key
			}
			tr.set(key, val)
			state[key] = val
			if ctl&4 != 0 {
				check(tr, "batch end")
			}
		}
		check(tr, "final")
		if got := treeContents(t, tr); len(got) != len(state) {
			t.Fatalf("tree holds %d keys, want %d", len(got), len(state))
		}
		keys := make([]uint64, 0, len(state))
		for k := range state {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		oneBatch, perWrite := &stateTree{}, &stateTree{}
		for i, k := range keys {
			oneBatch.set(k, state[k])
			back := keys[len(keys)-1-i]
			perWrite.set(back, state[back])
			perWrite.rootHash(genesis)
		}
		check(oneBatch, "ascending, one batch")
		check(perWrite, "descending, a batch per write")
	})
}
