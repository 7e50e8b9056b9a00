// Package versioned implements a lock-free binary trie with immutable
// version nodes and a CAS'd root, modeled on the snapshot technique of
// Fatourou and Ruppert's augmented wait-free trie ([27] in the paper's
// related work, §3): every update path-copies the O(log u) nodes from its
// leaf to the root and installs the new version with a single CAS; queries
// read one root pointer and traverse an immutable snapshot.
//
// Trade-offs versus the paper's lock-free trie (the point of experiment
// C5): updates allocate Θ(log u) nodes and ALL updates contend on one root
// CAS, so update throughput collapses under contention; Search is O(log u)
// instead of O(1). Predecessor, on the other hand, is a trivially
// linearizable snapshot traversal.
package versioned

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// node is an immutable version node; a child pointer is non-nil iff the
// corresponding subtrie contains a key. Leaves are &present.
type node struct {
	left, right *node
}

// present is the shared leaf marker.
var present node

// Trie is the versioned CAS trie, safe for concurrent use.
type Trie struct {
	b    int
	size int64
	root atomic.Pointer[node] // nil = empty set
}

// New returns an empty trie over {0,…,u−1} (u ≥ 2, padded to a power of
// two).
func New(u int64) (*Trie, error) {
	if u < 2 {
		return nil, fmt.Errorf("versioned: universe size %d, need at least 2", u)
	}
	if u > 1<<32 {
		return nil, fmt.Errorf("versioned: universe size %d exceeds 2^32", u)
	}
	b := bits.Len64(uint64(u - 1))
	return &Trie{b: b, size: int64(1) << uint(b)}, nil
}

// U returns the padded universe size.
func (t *Trie) U() int64 { return t.size }

// Search reports membership of x in the current snapshot. O(log u).
func (t *Trie) Search(x int64) bool {
	cur := t.root.Load()
	for level := t.b - 1; cur != nil && level >= 0; level-- {
		if x&(1<<uint(level)) == 0 {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return cur != nil
}

// Insert adds x. Lock-free: path-copy plus root CAS, retried on conflict.
func (t *Trie) Insert(x int64) {
	for {
		old := t.root.Load()
		nw, changed := insertPath(old, x, t.b-1)
		if !changed {
			return
		}
		if t.root.CompareAndSwap(old, nw) {
			return
		}
	}
}

// insertPath returns the root of a copy of cur with x present, and whether
// anything changed.
func insertPath(cur *node, x int64, level int) (*node, bool) {
	if level < 0 {
		if cur != nil {
			return cur, false
		}
		return &present, true
	}
	var l, r *node
	if cur != nil {
		l, r = cur.left, cur.right
	}
	if x&(1<<uint(level)) == 0 {
		nl, changed := insertPath(l, x, level-1)
		if !changed {
			return cur, false
		}
		return &node{left: nl, right: r}, true
	}
	nr, changed := insertPath(r, x, level-1)
	if !changed {
		return cur, false
	}
	return &node{left: l, right: nr}, true
}

// Delete removes x. Lock-free: path-copy with pruning plus root CAS.
func (t *Trie) Delete(x int64) {
	for {
		old := t.root.Load()
		nw, changed := deletePath(old, x, t.b-1)
		if !changed {
			return
		}
		if t.root.CompareAndSwap(old, nw) {
			return
		}
	}
}

// deletePath returns a copy of cur without x (nil if the subtrie empties)
// and whether anything changed.
func deletePath(cur *node, x int64, level int) (*node, bool) {
	if cur == nil {
		return nil, false
	}
	if level < 0 {
		return nil, true
	}
	if x&(1<<uint(level)) == 0 {
		nl, changed := deletePath(cur.left, x, level-1)
		if !changed {
			return cur, false
		}
		if nl == nil && cur.right == nil {
			return nil, true
		}
		return &node{left: nl, right: cur.right}, true
	}
	nr, changed := deletePath(cur.right, x, level-1)
	if !changed {
		return cur, false
	}
	if cur.left == nil && nr == nil {
		return nil, true
	}
	return &node{left: cur.left, right: nr}, true
}

// Predecessor returns the largest key < y in one consistent snapshot, or
// −1. O(log u).
func (t *Trie) Predecessor(y int64) int64 {
	root := t.root.Load()
	if root == nil {
		return -1
	}
	// Walk toward y, remembering the deepest left subtrie passed on the
	// right (whose keys are all < y).
	var best *node
	bestPrefix := int64(0)
	bestLevel := -1
	cur := root
	for level := t.b - 1; level >= 0 && cur != nil; level-- {
		if y&(1<<uint(level)) == 0 {
			cur = cur.left
			continue
		}
		if cur.left != nil {
			best = cur.left
			// Keys under this left child share y's bits above level and
			// have 0 at level.
			bestPrefix = (y >> uint(level+1)) << uint(level+1)
			bestLevel = level
		}
		cur = cur.right
	}
	if best == nil {
		return -1
	}
	// Descend the right-most present path under best.
	key := bestPrefix
	cur = best
	for level := bestLevel - 1; level >= 0; level-- {
		if cur.right != nil {
			key |= 1 << uint(level)
			cur = cur.right
		} else {
			cur = cur.left
		}
	}
	return key
}
