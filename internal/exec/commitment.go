package exec

import (
	"encoding/binary"
	"math/bits"

	"predis/internal/crypto"
)

// Encodings of the state commitment. A branch digests its digit and its
// four children in slot order, each child as one self-delimiting
// record: an empty slot is its tag alone, a leaf is embedded whole (no
// leaf is ever hashed on its own), a branch contributes its hash. The
// root digests the genesis balance and the top node's record. The
// leading tag keeps the two digest domains apart.
const (
	tagEmpty  = 0x00 // tagEmpty
	tagLeaf   = 0x01 // tagLeaf ‖ key ‖ balance
	tagBranch = 0x02 // tagBranch ‖ H(tagBranch ‖ digit ‖ child₀ ‖ child₁ ‖ child₂ ‖ child₃)
	tagRoot   = 0x03 // H(tagRoot ‖ genesis ‖ top)

	leafRecord   = 1 + 8 + 8
	branchRecord = 1 + crypto.HashSize
)

// Slab geometry: nodes live in fixed-size chunks that never move, so
// growing the tree is one allocation per slabSize new nodes and an
// int32 reference stays valid for the tree's lifetime.
const (
	slabBits = 9
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
)

// A node reference is 0 for an empty slot, i+1 for branch i and ^i for
// leaf i, so a zeroed branch has four empty slots.
type ref = int32

// branch is an internal node of the radix-4 tree: every key below it
// agrees on all base-4 digits above digit, and the key's value at that
// digit selects the child slot. A branch exists only where at least two
// stored keys part ways, so at least two slots are occupied.
type branch struct {
	hash  crypto.Hash // valid unless dirty
	child [4]ref
	digit uint8 // 31 = the top two bits … 0 = the low two
	// dirty marks a stale hash. Every ancestor of a dirty branch is
	// dirty too, which lets marking stop at the first dirty node.
	dirty bool
}

// leaf is one written account.
type leaf struct {
	key, val uint64
}

// stateTree holds the written accounts and their incremental Merkle
// commitment: a path-compressed radix-4 tree over the uint64 account
// keys. A branch sits exactly at each digit where stored keys sharing
// the prefix above it differ, so the shape — and with it the root — is
// a function of the (key → balance) map alone, whatever order or
// batching the writes arrived in. get and set cost one root-to-leaf
// walk; rootHash rehashes only the branches a set has touched since the
// last call.
type stateTree struct {
	branches []*[slabSize]branch
	leaves   []*[slabSize]leaf
	nb, nl   int32 // nodes in use
	root     ref
	// hashes counts digests computed, for the bench ledger.
	hashes int
}

func (t *stateTree) branchAt(i int32) *branch { return &t.branches[i>>slabBits][i&slabMask] }
func (t *stateTree) leafAt(i int32) *leaf     { return &t.leaves[i>>slabBits][i&slabMask] }

func slot(key uint64, digit uint8) uint64 { return key >> (2 * digit) & 3 }

// grow adds a slab to whichever node arena is full, once per slabSize
// new nodes.
//
//predis:coldpath
func (t *stateTree) grow() {
	if int(t.nl) == len(t.leaves)*slabSize {
		t.leaves = append(t.leaves, new([slabSize]leaf))
	}
	if int(t.nb) == len(t.branches)*slabSize {
		t.branches = append(t.branches, new([slabSize]branch))
	}
}

func (t *stateTree) newLeaf(key, val uint64) ref {
	if int(t.nl) == len(t.leaves)*slabSize {
		t.grow()
	}
	i := t.nl
	t.nl++
	*t.leafAt(i) = leaf{key: key, val: val}
	return ^i
}

func (t *stateTree) newBranch(digit uint8) (ref, *branch) {
	if int(t.nb) == len(t.branches)*slabSize {
		t.grow()
	}
	i := t.nb
	t.nb++
	b := t.branchAt(i)
	b.digit, b.dirty = digit, true
	return i + 1, b
}

// get returns the balance stored for key.
func (t *stateTree) get(key uint64) (uint64, bool) {
	n := t.root
	for n > 0 {
		b := t.branchAt(n - 1)
		n = b.child[slot(key, b.digit)]
	}
	if n < 0 {
		if lf := t.leafAt(^n); lf.key == key {
			return lf.val, true
		}
	}
	return 0, false
}

// set stores key → val and marks every branch whose hash that changes.
// Storing the value a key already holds changes nothing.
//
//predis:hotpath
func (t *stateTree) set(key, val uint64) {
	if t.root == 0 {
		t.root = t.newLeaf(key, val)
		return
	}
	// Follow the key's digits down, recording the branches passed.
	var path [32]int32
	depth := 0
	n := t.root
	for n > 0 {
		path[depth] = n - 1
		depth++
		b := t.branchAt(n - 1)
		n = b.child[slot(key, b.digit)]
	}
	// Any leaf below the last branch shares that branch's prefix; where
	// the key's own slot is empty, compare with a neighbour's.
	near := n
	if near == 0 {
		near = path[depth-1] + 1
	}
	for near > 0 {
		for _, c := range t.branchAt(near - 1).child {
			if c != 0 {
				near = c
				break
			}
		}
	}
	lf := t.leafAt(^near)
	if lf.key == key {
		if lf.val != val {
			lf.val = val
			t.markDirty(path[:depth])
		}
		return
	}
	// New key. It parts from the stored keys at digit crit: skip the
	// branches that split above that, then either take the free slot of
	// a branch that already splits there or put a new branch in between.
	crit := uint8(63-bits.LeadingZeros64(lf.key^key)) / 2
	d := 0
	for d < depth && t.branchAt(path[d]).digit > crit {
		d++
	}
	fresh := t.newLeaf(key, val)
	if d < depth {
		if b := t.branchAt(path[d]); b.digit == crit {
			b.child[slot(key, crit)] = fresh
			t.markDirty(path[:d+1])
			return
		}
	}
	below := n // the leaf the walk ended on
	if d < depth {
		below = path[d] + 1
	}
	bi, b := t.newBranch(crit)
	b.child[slot(key, crit)], b.child[slot(lf.key, crit)] = fresh, below
	if d == 0 {
		t.root = bi
	} else {
		p := t.branchAt(path[d-1])
		p.child[slot(key, p.digit)] = bi
	}
	t.markDirty(path[:d])
}

// markDirty flags a root-to-node path bottom-up, stopping at the first
// branch that is already dirty (its ancestors are, too).
func (t *stateTree) markDirty(path []int32) {
	for i := len(path) - 1; i >= 0; i-- {
		b := t.branchAt(path[i])
		if b.dirty {
			return
		}
		b.dirty = true
	}
}

// record writes node n's record into dst and returns its length,
// rehashing dirty branches on the way; a clean subtree costs a 32-byte
// copy.
//
//predis:hotpath
func (t *stateTree) record(n ref, dst []byte) int {
	if n == 0 {
		dst[0] = tagEmpty
		return 1
	}
	if n < 0 {
		lf := t.leafAt(^n)
		dst[0] = tagLeaf
		binary.BigEndian.PutUint64(dst[1:], lf.key)
		binary.BigEndian.PutUint64(dst[9:], lf.val)
		return leafRecord
	}
	b := t.branchAt(n - 1)
	if b.dirty {
		var buf [2 + 4*branchRecord]byte
		buf[0], buf[1] = tagBranch, b.digit
		at := 2
		for _, c := range b.child {
			at += t.record(c, buf[at:])
		}
		b.hash = crypto.HashBytes(buf[:at])
		b.dirty = false
		t.hashes++
	}
	dst[0] = tagBranch
	copy(dst[1:], b.hash[:])
	return branchRecord
}

// rootHash returns the state root: the genesis balance every unwritten
// account holds, bound to the tree's top record.
//
//predis:hotpath
func (t *stateTree) rootHash(genesis uint64) crypto.Hash {
	var buf [1 + 8 + branchRecord]byte
	buf[0] = tagRoot
	binary.BigEndian.PutUint64(buf[1:], genesis)
	at := 9 + t.record(t.root, buf[9:])
	t.hashes++
	return crypto.HashBytes(buf[:at])
}
