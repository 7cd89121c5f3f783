// Package merkle implements a binary Merkle tree with inclusion proofs.
//
// The tree is used in two places in the data flow framework:
//
//   - each bundle header carries the Merkle root of its transaction list so
//     a Predis block commits to transactions without carrying them;
//   - each bundle header carries the Merkle root of its erasure-coded
//     stripes so Multi-Zone relayers can verify a stripe in isolation
//     (§IV-D: "the sender should attach the bundle header and a Merkle
//     proof of the stripe").
//
// Leaves and interior nodes are hashed with distinct domain-separation
// prefixes to rule out second-preimage attacks that reinterpret an interior
// node as a leaf. Odd nodes are promoted to the next level unchanged (no
// duplication), so the tree of n leaves has the canonical shape for any n.
package merkle

import (
	"errors"
	"math/bits"

	"predis/internal/crypto"
)

var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// ErrIndexOutOfRange is returned by Proof for a leaf index outside the tree.
var ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")

// HashLeaf returns the domain-separated digest of a leaf payload.
func HashLeaf(data []byte) crypto.Hash {
	return crypto.HashConcat(leafPrefix, data)
}

// HashLeaves fills dst[i] = HashLeaf(leaves[i]) and returns dst,
// allocating it when nil. It is the batched leaf kernel: one call per
// stripe set or transaction list.
func HashLeaves(dst []crypto.Hash, leaves [][]byte) []crypto.Hash {
	if dst == nil {
		dst = make([]crypto.Hash, len(leaves)) //predis:allocok only for callers that pass no destination
	}
	for i, l := range leaves {
		dst[i] = HashLeaf(l)
	}
	return dst
}

// hashNode combines two child digests.
func hashNode(l, r crypto.Hash) crypto.Hash {
	return crypto.HashConcat(nodePrefix, l[:], r[:])
}

// Root computes the Merkle root of the given leaf payloads without
// materializing the whole tree. The root of zero leaves is the zero hash.
func Root(leaves [][]byte) crypto.Hash {
	if len(leaves) == 0 {
		return crypto.ZeroHash
	}
	level := make([]crypto.Hash, len(leaves))
	for i, l := range leaves {
		level[i] = HashLeaf(l)
	}
	return RootInPlace(level)
}

// RootOfHashes computes the Merkle root over pre-hashed leaves. The caller
// must have produced the digests with HashLeaf.
func RootOfHashes(leaves []crypto.Hash) crypto.Hash {
	if len(leaves) == 0 {
		return crypto.ZeroHash
	}
	level := make([]crypto.Hash, len(leaves))
	copy(level, leaves)
	return RootInPlace(level)
}

// RootInPlace is RootOfHashes for a caller that no longer needs the leaf
// digests: the reduction overwrites level, so nothing is allocated. level
// must be non-empty.
func RootInPlace(level []crypto.Hash) crypto.Hash {
	for len(level) > 1 {
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		level = next
	}
	return level[0]
}

// Tree is a fully materialized Merkle tree supporting proof generation.
type Tree struct {
	levels [][]crypto.Hash // levels[0] = leaf digests, last = [root]
	n      int
}

// NewTree builds a tree over the leaf payloads.
func NewTree(leaves [][]byte) *Tree {
	return NewTreeFromHashes(HashLeaves(nil, leaves))
}

// NewTreeFromHashes builds a tree over pre-hashed leaves (see HashLeaf).
func NewTreeFromHashes(hashes []crypto.Hash) *Tree {
	t := &Tree{n: len(hashes)}
	if len(hashes) == 0 {
		return t
	}
	level := make([]crypto.Hash, len(hashes))
	copy(level, hashes)
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]crypto.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

// Root returns the tree's root, or the zero hash for an empty tree.
func (t *Tree) Root() crypto.Hash {
	if t.n == 0 {
		return crypto.ZeroHash
	}
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Proof returns the sibling path for leaf i, ordered leaf-to-root. Promoted
// odd nodes contribute no sibling at that level.
func (t *Tree) Proof(i int) ([]crypto.Hash, error) {
	if i < 0 || i >= t.n {
		return nil, ErrIndexOutOfRange
	}
	proof := make([]crypto.Hash, 0, bits.Len(uint(t.n)))
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		sib := idx ^ 1
		if sib < len(level) {
			proof = append(proof, level[sib])
		}
		idx >>= 1
	}
	return proof, nil
}

// ProofSlabLen returns how many digests ProofsInto needs for a tree of n
// leaves: its interior nodes, then every leaf's sibling path.
func ProofSlabLen(n int) int {
	total := 0
	for level := n; level > 1; {
		level = (level + 1) / 2
		total += level
	}
	for i := 0; i < n; i++ {
		total += PathLen(n, i)
	}
	return total
}

// ProofsInto computes the root over pre-hashed leaves and every leaf's
// sibling path without allocating, so a caller that hands every leaf its
// proof (the stripe encoder) pays for one slab per tree: the interior nodes
// and the paths are carved out of slab, which must hold
// ProofSlabLen(len(leaves)) digests. It returns the paths back to back in
// leaf order (leaf i's is the next PathLen(n, i) digests), each exactly
// what NewTreeFromHashes(leaves).Proof(i) would return.
func ProofsInto(slab, leaves []crypto.Hash) (crypto.Hash, []crypto.Hash) {
	n := len(leaves)
	if n == 0 {
		return crypto.ZeroHash, nil
	}
	var levels [bits.UintSize + 1][]crypto.Hash // levels[0] = leaves, last = [root]
	depth := 1
	levels[0] = leaves
	for level := leaves; len(level) > 1; depth++ {
		next := slab[: 0 : (len(level)+1)/2]
		slab = slab[cap(next):]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		levels[depth] = next
		level = next
	}
	paths := slab[:0]
	for i := 0; i < n; i++ {
		for lvl, idx := 0, i; lvl < depth-1; lvl, idx = lvl+1, idx>>1 {
			if sib := idx ^ 1; sib < len(levels[lvl]) {
				paths = append(paths, levels[lvl][sib])
			}
		}
	}
	return levels[depth-1][0], paths[:len(paths):len(paths)]
}

// PathLen returns how many digests leaf i's proof holds in a tree of n
// leaves.
func PathLen(n, i int) int {
	count := 0
	for idx := i; n > 1; idx, n = idx>>1, (n+1)/2 {
		if idx^1 < n {
			count++
		}
	}
	return count
}

// ProofSize returns the wire size in bytes of a proof for a tree of n
// leaves at leaf index i (each element is one digest).
func ProofSize(n, i int) int { return PathLen(n, i) * crypto.HashSize }

// Verify checks that leaf payload data sits at index i of a tree with the
// given total leaf count and root.
func Verify(root crypto.Hash, data []byte, i, total int, proof []crypto.Hash) bool {
	return VerifyHash(root, HashLeaf(data), i, total, proof)
}

// VerifyHash checks a proof against a pre-hashed leaf.
func VerifyHash(root crypto.Hash, leaf crypto.Hash, i, total int, proof []crypto.Hash) bool {
	if i < 0 || i >= total || total <= 0 {
		return false
	}
	h := leaf
	idx, n, p := i, total, 0
	for n > 1 {
		if idx^1 < n { // sibling exists at this level
			if p >= len(proof) {
				return false
			}
			if idx&1 == 0 {
				h = hashNode(h, proof[p])
			} else {
				h = hashNode(proof[p], h)
			}
			p++
		}
		idx >>= 1
		n = (n + 1) / 2
	}
	return p == len(proof) && h == root
}
