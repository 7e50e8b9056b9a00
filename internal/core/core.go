// Package core implements the lock-free linearizable binary trie of paper
// §5: a dynamic set over {0,…,u−1} supporting Search with O(1) worst-case
// step complexity and Insert, Delete and Predecessor with O(ċ² + log u)
// amortized step complexity, where ċ is point contention.
//
// The data structure combines
//
//   - the relaxed binary trie machinery (internal/bitstrie) driven by §5's
//     latest lists — per-key lists of at most two update nodes whose first
//     activated node defines membership,
//   - the update announcement list U-ALL and its descending twin RU-ALL
//     (internal/alist),
//   - the predecessor announcement list P-ALL with per-predecessor
//     insert-only notify lists, and
//   - embedded predecessor operations inside Delete, whose results feed the
//     ⊥-case recovery of Predecessor (Definition 5.1).
//
// Update operations are linearized when their update node's status changes
// from inactive to active; Search at its read of latest[x]; Predecessor at a
// configuration during its execution at which its return value is the
// predecessor (Theorem 5.13).
package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/alist"
	"repro/internal/atomicx"
	"repro/internal/bitstrie"
	"repro/internal/ebr"
	"repro/internal/unode"
)

// Stats carries optional counters for the complexity experiments. A nil
// *Stats disables collection. Engine-level counters live in
// bitstrie.Stats, attachable via Bits().SetStats. Each counter is padded to
// its own cache line: the counters are bumped from every goroutine's hot
// path, and unpadded neighbours would false-share — enabling stats would
// then distort the very contention behaviour the experiments measure.
type Stats struct {
	// Notifications counts notify nodes successfully added to notify lists.
	Notifications atomicx.PadInt64
	// BottomCases counts Predecessor operations whose relaxed-trie
	// traversal returned ⊥ and that ran the Definition 5.1 recovery.
	BottomCases atomicx.PadInt64
	// HelpActivations counts HelpActivate calls that found inactive nodes.
	HelpActivations atomicx.PadInt64
	// UallTraversalSteps counts cells visited in U-ALL traversals.
	UallTraversalSteps atomicx.PadInt64
	// RuallTraversalSteps counts cells visited in RU-ALL traversals.
	RuallTraversalSteps atomicx.PadInt64
	// Announces counts U-ALL announcement passes: one per announcing
	// per-op update (Insert/Delete/HelpActivate), one per ApplyBatch call
	// covering its whole batch. Announces/op is the quantity the combining
	// layer exists to reduce (experiment CB1, BENCH_combine.json).
	Announces atomicx.PadInt64
}

// Trie is the lock-free linearizable binary trie. Create with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Trie struct {
	b      int
	u      int64
	latest []atomic.Pointer[unode.UpdateNode]
	bits   *bitstrie.Trie
	uall   *alist.List // ascending update announcement list
	ruall  *alist.List // descending reverse update announcement list
	pall   pall        // predecessor announcement list
	// dom is the trie's epoch-based reclamation domain: every operation
	// that traverses or retires pooled announcement state (U-ALL/RU-ALL
	// cells, PredNodes, notify slabs, RU-ALL copy descriptors) runs pinned
	// on it. One domain per trie keeps cross-structure references (a
	// PredNode holding an RU-ALL cell) inside a single grace argument.
	dom   *ebr.Domain
	stats *Stats
}

// New returns an empty lock-free binary trie over {0,…,u−1} (u ≥ 2, padded
// to the next power of two).
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
	t.uall = alist.New(false)
	t.ruall = alist.New(true)
	t.pall.init()
	t.dom = ebr.NewDomain()
	return t, nil
}

// Reclaimer exposes the trie's EBR domain (tests, metrics).
func (t *Trie) Reclaimer() *ebr.Domain { return t.dom }

// U returns the (padded) universe size.
func (t *Trie) U() int64 { return t.u }

// B returns ⌈log2 u⌉.
func (t *Trie) B() int { return t.b }

// Bits exposes the interpreted-bit engine (tests, stats, trieviz).
func (t *Trie) Bits() *bitstrie.Trie { return t.bits }

// SetStats attaches operation counters (nil disables). Not safe to call
// concurrently with operations.
func (t *Trie) SetStats(s *Stats) { t.stats = s }

// FixedBytes returns the bytes New allocated in proportion to the
// universe: the latest array plus the engine's internal-node and summary
// arrays (metrics; computed, not counted).
func (t *Trie) FixedBytes() int64 {
	return int64(len(t.latest))*int64(unsafe.Sizeof(t.latest[0])) + t.bits.FixedBytes()
}

// AnnouncedUpdates returns the current U-ALL occupancy (metrics; O(n)).
// Pinned: the traversal touches pooled cells.
func (t *Trie) AnnouncedUpdates() int {
	s := t.dom.Pin()
	defer s.Unpin()
	return t.uall.Len()
}

// AnnouncedPredecessors returns the current P-ALL occupancy (metrics; O(n)).
// Pinned: the traversal touches pooled announcement nodes.
func (t *Trie) AnnouncedPredecessors() int {
	s := t.dom.Pin()
	defer s.Unpin()
	return t.pall.len()
}

// Search reports whether x is in the set (paper lines 121–124). O(1)
// worst-case: at most three reads.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Search(x int64) bool {
	p := t.latest[x].Load()
	if p == nil {
		return false // virtual dummy DEL: x was never inserted
	}
	if !p.Active() {
		if p2 := p.LatestNext.Load(); p2 != nil {
			p = p2
		}
	}
	return p.Kind == unode.Ins
}

// Insert adds x to the set (paper lines 162–180). Lock-free; amortized
// O(ċ² + log u) steps.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Insert(x int64) { t.Add(x) }

// Add is Insert reporting whether this operation performed the
// absent→present transition, i.e. whether its update node won the latest[x]
// CAS and became the linearization point. False means x was already present
// or a concurrent update on x intervened (in which case that operation
// reports the transition instead). The occupancy counters of the sharded
// layer hang off this result.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Add(x int64) bool {
	dNode := t.findLatest(x)
	if dNode.Kind != unode.Del {
		return false // x already in S
	}
	// Pin after the no-op fast path: only the announcement machinery below
	// touches pooled memory.
	s := t.dom.Pin()
	defer s.Unpin()
	iNode := unode.NewIns(x)
	iNode.LatestNext.Store(dNode)
	// Paper line 168: help stop the Delete the previous Insert(x) was
	// attacking, in case that Insert stalled between its target write and
	// its MinWrite. Ignore ⊥ links.
	if ln := dNode.LatestNext.Load(); ln != nil {
		if tg := ln.Ins().Target.Load(); tg != nil {
			tg.SetStop()
		}
	}
	dNode.LatestNext.Store(nil) // line 169: reopen the latest[x] list
	// Summary publication contract (bitstrie.MarkEverInserted): the
	// ever-inserted bit must be set before iNode can enter latest[x].
	t.bits.MarkEverInserted(x)
	if !t.latest[x].CompareAndSwap(dNode, iNode) {
		t.helpActivate(t.latest[x].Load(), s) // line 171
		return false
	}
	if t.stats != nil {
		t.stats.Announces.Add(1)
	}
	t.uall.Insert(iNode, s) // line 173
	t.ruall.Insert(iNode, s)
	iNode.Activate()               // line 174: linearization point
	iNode.LatestNext.Store(nil)    // line 175
	t.bits.InsertBinaryTrie(iNode) // line 176
	t.notifyPredOps(iNode)         // line 177
	iNode.SetCompleted()           // line 178
	t.uall.Remove(iNode, s)        // line 179
	t.ruall.Remove(iNode, s)
	return true
}

// Delete removes x from the set (paper lines 181–206). Lock-free; amortized
// O(ċ² + c̃ + log u) steps.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Delete(x int64) { t.Remove(x) }

// Remove is Delete reporting whether this operation performed the
// present→absent transition (the mirror of Add).
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Remove(x int64) bool {
	iNode := t.peekLatest(x)
	if iNode == nil || iNode.Kind != unode.Ins {
		return false // x not in S
	}
	s := t.dom.Pin()
	defer s.Unpin()
	delPred, pNode1 := t.predHelper(x, s) // line 184: first embedded predecessor
	dNode := unode.NewDel(x, t.b)
	del := dNode.Del()
	dNode.LatestNext.Store(iNode)
	del.DelPred = delPred
	setDelPredNode(dNode, pNode1)
	iNode.LatestNext.Store(nil) // line 190
	t.notifyPredOps(iNode)      // line 191: help the previous Insert notify
	if !t.latest[x].CompareAndSwap(iNode, dNode) {
		t.helpActivate(t.latest[x].Load(), s) // line 193
		t.pall.remove(pNode1, s)              // line 194
		return false
	}
	if t.stats != nil {
		t.stats.Announces.Add(1)
	}
	t.uall.Insert(dNode, s) // line 196
	t.ruall.Insert(dNode, s)
	dNode.Activate() // line 197: linearization point
	// Line 198: stop the Delete whose DEL node the replaced Insert was
	// attacking; that Insert's MinWrite will not arrive on our behalf.
	if tg := iNode.Ins().Target.Load(); tg != nil {
		tg.SetStop()
	}
	dNode.LatestNext.Store(nil)            // line 199
	delPred2, pNode2 := t.predHelper(x, s) // line 200: second embedded predecessor
	del.DelPred2.Store(delPred2)           // line 201
	t.bits.DeleteBinaryTrie(dNode)         // line 202
	t.notifyPredOps(dNode)                 // line 203
	dNode.SetCompleted()                   // line 204
	t.uall.Remove(dNode, s)                // line 205
	t.ruall.Remove(dNode, s)
	t.pall.remove(pNode1, s) // line 206
	t.pall.remove(pNode2, s)
	return true
}

// Predecessor returns the largest key in the set smaller than y, or −1 if
// no such key exists (paper lines 253–256). Linearizable; lock-free;
// amortized O(ċ² + c̃ + log u) steps.
//
// Precondition: 0 ≤ y < U().
func (t *Trie) Predecessor(y int64) int64 {
	s := t.dom.Pin()
	defer s.Unpin()
	pred, pNode := t.predHelper(y, s)
	t.pall.remove(pNode, s)
	return pred
}
