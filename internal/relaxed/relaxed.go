// Package relaxed implements the wait-free relaxed binary trie of paper §4:
// a dynamic set over {0,…,u−1} with strongly linearizable TrieInsert,
// TrieDelete and TrieSearch, and the non-linearizable RelaxedPredecessor
// whose specification (§4.1) allows ⊥ only while concurrent updates
// interfere.
//
// All operations are wait-free: Search is O(1), the others O(log u)
// worst-case steps. latest[x] is a single atomic pointer per key (the §4
// latest "list" has length one); update nodes are active on creation
// (paper §4.4.1).
package relaxed

import (
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/bitstrie"
	"repro/internal/unode"
)

// Trie is a relaxed binary trie. Create instances with New; the zero value
// is not usable.
type Trie struct {
	b      int
	u      int64
	latest []atomic.Pointer[unode.UpdateNode]
	bits   *bitstrie.Trie
	// count backs Len: bumped by winning updates after their linearization
	// point; padded on both sides off the header fields every operation
	// reads (the leading pad — PadInt64 only pads behind the counter).
	_     [atomicx.CacheLine]byte
	count atomicx.PadInt64
}

// New returns an empty relaxed binary trie over the universe {0,…,u−1}
// (u ≥ 2, padded to the next power of two).
func New(u int64) (*Trie, error) {
	t := &Trie{}
	bt, err := bitstrie.New(u, (*oracle)(t))
	if err != nil {
		return nil, err
	}
	t.b = bt.B()
	t.u = bt.U()
	t.latest = make([]atomic.Pointer[unode.UpdateNode], t.u)
	t.bits = bt
	return t, nil
}

// U returns the (padded) universe size.
func (t *Trie) U() int64 { return t.u }

// Len returns the number of keys in the set, counted from the win-reporting
// updates (O(1)). Weakly consistent under concurrent updates; exact at
// quiescence.
func (t *Trie) Len() int64 { return t.count.Load() }

// B returns ⌈log2 u⌉.
func (t *Trie) B() int { return t.b }

// Bits exposes the interpreted-bit engine for tests, stats and trieviz.
func (t *Trie) Bits() *bitstrie.Trie { return t.bits }

// oracle adapts Trie to bitstrie.Oracle without exporting the methods on
// Trie itself.
type oracle Trie

var _ bitstrie.Oracle = (*oracle)(nil)

// PeekLatest returns the update node pointed to by latest[x] (paper lines
// 13–14), or nil for the untouched initial dummy DEL node.
func (o *oracle) PeekLatest(x int64) *unode.UpdateNode {
	return (*Trie)(o).latest[x].Load()
}

// FindLatest is PeekLatest materializing the dummy DEL node on first touch
// (DESIGN.md); only InsertBinaryTrie calls it.
func (o *oracle) FindLatest(x int64) *unode.UpdateNode {
	return (*Trie)(o).findLatest(x)
}

// FirstActivated reports whether n is pointed to by latest[n.Key] (paper
// lines 19–21). All §4 update nodes are considered active.
func (o *oracle) FirstActivated(n *unode.UpdateNode) bool {
	return (*Trie)(o).latest[n.Key].Load() == n
}

func (t *Trie) findLatest(x int64) *unode.UpdateNode {
	if p := t.latest[x].Load(); p != nil {
		return p
	}
	// Materialize the dummy DEL node for x; the loser's allocation is
	// dropped and the winner is re-read, so all processes agree.
	t.latest[x].CompareAndSwap(nil, unode.NewDummyDel(x, t.b))
	return t.latest[x].Load()
}

// Search reports whether x is in the set (paper lines 15–18). O(1): one
// read of latest[x]. An untouched key is absent without materializing its
// dummy.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Search(x int64) bool {
	p := t.latest[x].Load()
	return p != nil && p.Kind == unode.Ins
}

// Insert adds x to the set (paper lines 28–37, TrieInsert). Wait-free,
// O(log u) worst-case steps.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Insert(x int64) { t.Add(x) }

// Add is Insert reporting whether this operation performed the
// absent→present transition (its INS node won the latest[x] CAS, Lemma
// 4.3). False means x was already present or a concurrent update on x
// linearized first. The sharded layer's occupancy counters hang off this.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Add(x int64) bool {
	dNode := t.findLatest(x)
	if dNode.Kind != unode.Del {
		return false // x already in S
	}
	iNode := unode.NewIns(x)
	iNode.Activate() // §4: nodes are created active
	// Paper line 34: dNode.latestNext.target.stop ← true, ignoring ⊥ links.
	// This stops the Delete operation that the previously linearized
	// Insert(x) was asked to stop, in case that Insert crashed between
	// setting target and performing its MinWrite.
	if ln := dNode.LatestNext.Load(); ln != nil {
		if tg := ln.Ins().Target.Load(); tg != nil {
			tg.SetStop()
		}
	}
	// Summary publication contract (bitstrie.MarkEverInserted): the
	// ever-inserted bit must be set before iNode can enter latest[x].
	t.bits.MarkEverInserted(x)
	if !t.latest[x].CompareAndSwap(dNode, iNode) {
		return false // another TrieInsert(x) linearized first (Lemma 4.3)
	}
	t.count.Add(1)
	t.bits.InsertBinaryTrie(iNode)
	return true
}

// Delete removes x from the set (paper lines 47–57, TrieDelete). Wait-free,
// O(log u) worst-case steps.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Delete(x int64) { t.Remove(x) }

// Remove is Delete reporting whether this operation performed the
// present→absent transition (the mirror of Add, Lemma 4.4).
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Remove(x int64) bool {
	iNode := t.latest[x].Load()
	if iNode == nil || iNode.Kind != unode.Ins {
		return false // x not in S (nil: never touched, no dummy needed)
	}
	dNode := unode.NewDel(x, t.b)
	dNode.Activate()
	dNode.LatestNext.Store(iNode)
	if !t.latest[x].CompareAndSwap(iNode, dNode) {
		return false // another TrieDelete(x) linearized first (Lemma 4.4)
	}
	t.count.Add(-1)
	// Paper line 55: stop the Delete whose DEL node the replaced Insert was
	// attacking; the Insert will not finish its MinWrite on our behalf.
	if tg := iNode.Ins().Target.Load(); tg != nil {
		tg.SetStop()
	}
	t.bits.DeleteBinaryTrie(dNode)
	return true
}

// Successor returns the smallest key greater than y under the mirrored
// relaxed specification: (k, true) when k was present during the call,
// (−1, true) when no key above y was visible, (0, false) for ⊥ under
// concurrent interference. Wait-free, O(log u) worst-case steps. This
// operation is an extension beyond the paper (which states only
// Predecessor); the algorithm is the exact mirror.
//
// Precondition: 0 ≤ y < U().
func (t *Trie) Successor(y int64) (int64, bool) {
	return t.bits.RelaxedSuccessor(y)
}

// Predecessor returns the largest key smaller than y that it could prove
// present, following §4.1's specification:
//
//   - (k, true): k ∈ S at some point during the call, k < y; if there were
//     no concurrent updates on keys in (k, y), k is THE predecessor of y.
//   - (−1, true): no key below y was visible.
//   - (0, false): ⊥ — a concurrent update on some key in (k, y) prevented
//     the traversal from completing.
//
// Precondition: 0 ≤ y < U().
func (t *Trie) Predecessor(y int64) (int64, bool) {
	return t.bits.RelaxedPredecessor(y)
}
