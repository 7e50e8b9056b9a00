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
	"sort"
	"sync/atomic"
)

// node is an immutable version node; a child pointer is non-nil iff the
// corresponding subtrie contains a key. Leaves are &present. Following the
// augmentation of Fatourou–Ruppert ([27] in the paper's §3), every version
// node carries the number of keys in its subtrie, which snapshots for free
// with the structure: Snapshot.Count reads it at the root.
type node struct {
	left, right *node
	count       int64
}

// present is the shared leaf marker (count 1).
var present = node{count: 1}

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
		return mkNode(nl, r), true
	}
	nr, changed := insertPath(r, x, level-1)
	if !changed {
		return cur, false
	}
	return mkNode(l, nr), true
}

// mkNode builds an internal version node with the derived count.
func mkNode(l, r *node) *node {
	n := &node{left: l, right: r}
	if l != nil {
		n.count += l.count
	}
	if r != nil {
		n.count += r.count
	}
	return n
}

// BatchOp is one update of an ApplyBatch run.
type BatchOp struct {
	Key int64
	Del bool
}

// ApplyBatch applies a run of updates — sorted by key ascending, at
// most one op per key — as ONE version step: a single path-copied merge
// in which every node on the union of the update paths is copied at
// most once, where the op-at-a-time loop copies the shared prefix of
// every path once PER OP. Installed with the same root CAS as
// Insert/Delete, so the whole batch becomes visible atomically. The
// consumer this exists for is the WAL mirror, whose group-committed
// record runs arrive exactly in this shape and whose append-lock hold
// time is dominated by the mirror's allocations.
func (t *Trie) ApplyBatch(ops []BatchOp) {
	if len(ops) == 0 {
		return
	}
	for {
		old := t.root.Load()
		nw, changed := applyRun(old, ops, t.b-1)
		if !changed {
			return
		}
		if t.root.CompareAndSwap(old, nw) {
			return
		}
	}
}

// applyRun merges a sorted op run into the subtrie cur at level,
// returning the (possibly shared) new subtrie and whether it differs.
func applyRun(cur *node, ops []BatchOp, level int) (*node, bool) {
	if level < 0 {
		if ops[len(ops)-1].Del {
			if cur == nil {
				return nil, false
			}
			return nil, true
		}
		if cur != nil {
			return cur, false
		}
		return &present, true
	}
	// Sorted keys sharing the prefix above level split at the level bit:
	// all 0-bit ops precede all 1-bit ops.
	bit := int64(1) << uint(level)
	i := 0
	if len(ops) < 8 {
		for i < len(ops) && ops[i].Key&bit == 0 {
			i++
		}
	} else {
		i = sort.Search(len(ops), func(j int) bool { return ops[j].Key&bit != 0 })
	}
	var l, r *node
	if cur != nil {
		l, r = cur.left, cur.right
	}
	nl, lch := l, false
	if i > 0 {
		nl, lch = applyRun(l, ops[:i], level-1)
	}
	nr, rch := r, false
	if i < len(ops) {
		nr, rch = applyRun(r, ops[i:], level-1)
	}
	if !lch && !rch {
		return cur, false
	}
	if nl == nil && nr == nil {
		return nil, true
	}
	return mkNode(nl, nr), true
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
		return mkNode(nl, cur.right), true
	}
	nr, changed := deletePath(cur.right, x, level-1)
	if !changed {
		return cur, false
	}
	if cur.left == nil && nr == nil {
		return nil, true
	}
	return mkNode(cur.left, nr), true
}

// Snapshot is an immutable point-in-time version of the trie: one root
// pointer captured atomically. Every update path-copies its way to a new
// root, so the captured version never changes — the WAL's consistent-
// snapshot machinery walks it at leisure while updates continue.
type Snapshot struct {
	root *node
	b    int
}

// Snapshot captures the current version. O(1): one atomic load.
func (t *Trie) Snapshot() Snapshot {
	return Snapshot{root: t.root.Load(), b: t.b}
}

// Count returns the number of keys in the snapshot. O(1) via the
// augmented root count.
func (s Snapshot) Count() int64 {
	if s.root == nil {
		return 0
	}
	return s.root.count
}

// ForEach calls emit for every key in the snapshot in ascending order.
func (s Snapshot) ForEach(emit func(key int64)) {
	walk(s.root, 0, s.b-1, emit)
}

// walk emits the keys under cur (whose prefix bits above level spell
// prefix) in ascending order.
func walk(cur *node, prefix int64, level int, emit func(int64)) {
	if cur == nil {
		return
	}
	if level < 0 {
		emit(prefix)
		return
	}
	walk(cur.left, prefix, level-1, emit)
	walk(cur.right, prefix|1<<uint(level), level-1, emit)
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
