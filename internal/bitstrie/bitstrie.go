// Package bitstrie implements the wait-free interpreted-bit machinery of the
// relaxed binary trie (paper §4.2–4.4): the array of binary trie nodes, the
// InterpretedBit computation (paper lines 22–27), InsertBinaryTrie (38–46),
// DeleteBinaryTrie (58–72) and RelaxedPredecessor (73–90).
//
// The engine is parameterized by an Oracle that resolves latest[x] lookups,
// because the relaxed trie (§4) and the lock-free trie (§5) implement
// FindLatest and FirstActivated differently (paper §4.4.1: "The
// implementation of these helper functions ... will be replaced with a
// different implementation when we consider the lock-free binary trie").
//
// Trie layout: the paper's arrays D_0..D_b form a perfect binary tree,
// addressed heap-style (index 1 = root, children 2i/2i+1, leaf for key x
// at 2^b + x). A node's height is b − depth, computable from the index, so
// a trie node is exactly one atomic pointer: dNodePtr. Only the internal
// nodes 1..2^b−1 are stored. A leaf's dNodePtr is never written
// (DeleteBinaryTrie steps to the parent before its CAS and
// InsertBinaryTrie starts at the leaf's parent), so it stays the initial
// nil forever and a leaf depends on its own key's latest list; the engine
// computes that instead of storing 2^b nil pointers.
package bitstrie

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/bitmap"
	"repro/internal/unode"
)

// Oracle resolves the latest-list operations the engine depends on.
//
// PeekLatest returns the first activated update node in the latest[x]
// list, or nil if no operation ever touched x. Nil stands for the paper's
// initial dummy DEL node (upper0Boundary = b, lower1Boundary = b+1): only
// an insert's MinWrite changes a dummy, and that insert materializes it
// first, so a reader that loads nil sees what the dummy held at the load.
// FindLatest is PeekLatest that materializes and returns the dummy DEL
// node instead of nil; only InsertBinaryTrie calls it, because its
// MinWrite needs the published node. FirstActivated reports whether n is
// currently the first activated update node in latest[n.Key].
type Oracle interface {
	PeekLatest(x int64) *unode.UpdateNode
	FindLatest(x int64) *unode.UpdateNode
	FirstActivated(n *unode.UpdateNode) bool
}

// Stats carries optional step counters for the complexity experiments
// (EXPERIMENTS.md C3, A1). All fields are atomic and padded to distinct
// cache lines (see atomicx.PadInt64: unpadded neighbours would false-share
// under the very contention the experiments measure); a nil *Stats disables
// collection.
type Stats struct {
	// BitReads counts InterpretedBit evaluations.
	BitReads atomicx.PadInt64
	// CASAttempts / CASFailures count dNodePtr CAS operations in
	// DeleteBinaryTrie.
	CASAttempts atomicx.PadInt64
	CASFailures atomicx.PadInt64
	// SecondCASSuccess counts deletes whose first dNodePtr CAS failed but
	// whose second succeeded — the situations where the paper's
	// two-attempt rule (lines 66–70) rescued the delete.
	SecondCASSuccess atomicx.PadInt64
	// MinWrites counts lower1Boundary MinWrite operations by inserts.
	MinWrites atomicx.PadInt64
	// TraversalSteps counts trie-node visits by RelaxedPredecessor.
	TraversalSteps atomicx.PadInt64
	// SummaryLoads counts occupancy-summary word loads by the compressed
	// descents (C-CC1 cache-work proxy).
	SummaryLoads atomicx.PadInt64
	// SkippedBitReads counts InterpretedBit evaluations the compressed
	// descents avoided via a certified-clear summary range.
	SkippedBitReads atomicx.PadInt64
}

// Trie is the interpreted-bit engine over universe {0,…,U()−1}.
type Trie struct {
	b      int   // ⌈log2 u⌉, height of the root
	size   int64 // 2^b, number of leaves
	oracle Oracle
	stats  *Stats

	// singleCASAttempt disables the second CAS attempt of DeleteBinaryTrie
	// for the A1 ablation. Never set in production use.
	singleCASAttempt bool

	// beforeCAS, when non-nil, runs before each dNodePtr CAS attempt in
	// DeleteBinaryTrie. Test instrumentation for deterministic
	// interleavings (e.g. the outdated-delete scenario of Lemma 4.14).
	beforeCAS func(node int64, attempt int)

	// compressed enables the summary-accelerated RelaxedPredecessor /
	// RelaxedSuccessor descents (on by default; SetCompressedDescents(false)
	// selects the paper-literal traversals for the cc1 baseline).
	compressed bool

	nodes []trieNode // internal nodes, heap-indexed, len size; index 0 unused

	// summary[k] is the ever-inserted occupancy summary at granularity
	// 64^k: bit g of level k is 1 iff some key in [g·64^k, (g+1)·64^k) has
	// ever been published by a winning insert (MarkEverInserted). Bits are
	// monotone — set with one atomic OR before the insert's latest CAS,
	// never cleared — so a CLEAR bit is a certificate that every
	// interpreted bit of a trie node whose key range it covers was 0 at
	// the load, while a set bit is advisory (the key may be long deleted)
	// and descents re-validate with a real InterpretedBit read. See
	// DESIGN.md §Cache-compressed descents.
	summary []bitmap.Words
}

type trieNode struct {
	dNodePtr atomic.Pointer[unode.UpdateNode]
}

// New builds the engine for a universe of u keys (u ≥ 2; rounded up to the
// next power of two) using the given oracle.
func New(u int64, oracle Oracle) (*Trie, error) {
	if u < 2 {
		return nil, fmt.Errorf("bitstrie: universe size %d, need at least 2", u)
	}
	if u > 1<<32 {
		return nil, fmt.Errorf("bitstrie: universe size %d exceeds 2^32", u)
	}
	b := bits.Len64(uint64(u - 1))
	size := int64(1) << uint(b)
	t := &Trie{
		b:          b,
		size:       size,
		oracle:     oracle,
		compressed: true,
		nodes:      make([]trieNode, size),
	}
	// Build the summary hierarchy: level 0 has one bit per key; each level
	// above compresses 64 bits into one until a level fits one word.
	for n := size; ; n = bitmap.WordsFor(n) {
		t.summary = append(t.summary, bitmap.NewWords(n))
		if n <= bitmap.WordBits {
			break
		}
	}
	return t, nil
}

// SetStats attaches step counters (may be nil to disable). Not safe to call
// concurrently with operations.
func (t *Trie) SetStats(s *Stats) { t.stats = s }

// SetSingleCASAttempt enables the A1 ablation (one dNodePtr CAS attempt
// instead of the paper's two). Tests and benchmarks only.
func (t *Trie) SetSingleCASAttempt(on bool) { t.singleCASAttempt = on }

// SetBeforeCASHook installs test instrumentation invoked before every
// dNodePtr CAS attempt in DeleteBinaryTrie (attempt is 1 or 2). Pass nil to
// remove. Tests only; not safe to change concurrently with operations.
func (t *Trie) SetBeforeCASHook(hook func(node int64, attempt int)) { t.beforeCAS = hook }

// SetCompressedDescents selects between the summary-accelerated descents
// (the default) and the paper-literal traversals (the cc1 baseline and the
// semantics-equivalence tests). Summaries are maintained either way, so the
// switch may only be flipped while no RelaxedPredecessor/RelaxedSuccessor
// is in flight.
func (t *Trie) SetCompressedDescents(on bool) { t.compressed = on }

// CompressedDescents reports whether the accelerated descents are enabled.
func (t *Trie) CompressedDescents() bool { return t.compressed }

// B returns b = ⌈log2 u⌉, the height of the root.
func (t *Trie) B() int { return t.b }

// U returns the padded universe size 2^b.
func (t *Trie) U() int64 { return t.size }

// --- index arithmetic -------------------------------------------------------

func (t *Trie) leafIndex(x int64) int64 { return t.size + x }
func parent(i int64) int64              { return i >> 1 }
func leftChild(i int64) int64           { return i << 1 }
func rightChild(i int64) int64          { return i<<1 | 1 }
func sibling(i int64) int64             { return i ^ 1 }
func isLeftChild(i int64) bool          { return i&1 == 0 }

// height of node i: b − depth, where depth = ⌊log2 i⌋.
func (t *Trie) height(i int64) int {
	return t.b - (bits.Len64(uint64(i)) - 1)
}

// leafKey returns the key of leaf index i.
func (t *Trie) leafKey(i int64) int64 { return i - t.size }

// leftmostKey returns the smallest key in the subtrie rooted at i; it is the
// conceptual key of the virtual dummy DEL node a nil dNodePtr stands for.
func (t *Trie) leftmostKey(i int64) int64 {
	return (i << uint(t.height(i))) - t.size
}

// depKey returns the key whose latest list the interpreted bit of node i
// depends on: dNodePtr's key, or the leftmost leaf key when dNodePtr is
// still the initial (virtual dummy) nil. A leaf's dNodePtr is nil forever
// and not stored, so a leaf depends on its own key.
func (t *Trie) depKey(i int64) int64 {
	if i >= t.size {
		return t.leafKey(i)
	}
	if d := t.nodes[i].dNodePtr.Load(); d != nil {
		return d.Key
	}
	return t.leftmostKey(i)
}

// --- InterpretedBit (paper lines 22–27) -------------------------------------

// InterpretedBit computes the interpreted bit of node index i. If the bit is
// stable throughout the call it returns that value (Lemmas 4.16, 4.17).
func (t *Trie) InterpretedBit(i int64) int {
	if t.stats != nil {
		t.stats.BitReads.Add(1)
	}
	uNode := t.oracle.PeekLatest(t.depKey(i))
	if uNode == nil {
		return 0 // the untouched initial dummy DEL node
	}
	if uNode.Kind == unode.Ins {
		return 1
	}
	h := t.height(i)
	if h <= uNode.Upper0(t.b) {
		if h < uNode.Lower1().Read() && t.oracle.FirstActivated(uNode) {
			return 0
		}
	}
	return 1
}

// InterpretedBitOfLeaf is a convenience for tests and trieviz.
func (t *Trie) InterpretedBitOfLeaf(x int64) int { return t.InterpretedBit(t.leafIndex(x)) }

// --- InsertBinaryTrie (paper lines 38–46) -----------------------------------

// InsertBinaryTrie walks from the parent of iNode's leaf to the root and
// ensures each node on the path has interpreted bit 1, by lowering the
// lower1Boundary of the DEL node the trie node depends on. It is the one
// caller of FindLatest: an untouched key's dummy DEL node must be
// published before the MinWrite can lower it. Wait-free: at most b
// iterations with a constant number of steps each.
func (t *Trie) InsertBinaryTrie(iNode *unode.UpdateNode) {
	target := &iNode.Ins().Target
	for i := parent(t.leafIndex(iNode.Key)); i >= 1; i = parent(i) {
		uNode := t.oracle.FindLatest(t.depKey(i))
		if uNode.Kind != unode.Del {
			continue
		}
		d := t.nodes[i].dNodePtr.Load()
		// Paper line 42. With a nil dNodePtr (virtual dummy), the second
		// disjunct is true because a dummy has upper0Boundary = b ≥ height.
		if d != uNode && t.height(i) > uNode.Upper0(t.b) {
			continue
		}
		target.Store(uNode)
		if !t.oracle.FirstActivated(iNode) {
			return
		}
		if h, l1 := t.height(i), uNode.Lower1(); h < l1.Read() {
			if t.stats != nil {
				t.stats.MinWrites.Add(1)
			}
			l1.MinWrite(h)
		}
	}
}

// --- DeleteBinaryTrie (paper lines 58–72) -----------------------------------

// DeleteBinaryTrie walks from dNode's leaf toward the root, setting
// interpreted bits to 0 while both children of the current node read 0. The
// two CAS attempts per level (lines 66 and 70) prevent outdated deletes from
// interfering with the latest one (see Lemma 4.14). Wait-free: at most b
// iterations, constant steps each.
func (t *Trie) DeleteBinaryTrie(dNode *unode.UpdateNode) {
	del := dNode.Del()
	i := t.leafIndex(dNode.Key)
	for i > 1 { // while t is not the root
		if t.InterpretedBit(sibling(i)) == 1 || t.InterpretedBit(i) == 1 {
			return
		}
		i = parent(i)
		d := t.nodes[i].dNodePtr.Load()
		if !t.oracle.FirstActivated(dNode) {
			return
		}
		if dNode.Stopped() || del.Lower1Boundary.Read() != t.b+1 {
			return
		}
		if !t.casDNodePtr(i, d, dNode, 1) {
			if t.singleCASAttempt {
				return // A1 ablation: paper's first attempt only
			}
			d = t.nodes[i].dNodePtr.Load()
			if !t.oracle.FirstActivated(dNode) {
				return
			}
			if dNode.Stopped() || del.Lower1Boundary.Read() != t.b+1 {
				return
			}
			if !t.casDNodePtr(i, d, dNode, 2) {
				return
			}
			if t.stats != nil {
				t.stats.SecondCASSuccess.Add(1)
			}
		}
		if t.InterpretedBit(leftChild(i)) == 1 || t.InterpretedBit(rightChild(i)) == 1 {
			return
		}
		del.Upper0Boundary.Store(int32(t.height(i)))
	}
}

func (t *Trie) casDNodePtr(i int64, old, new *unode.UpdateNode, attempt int) bool {
	if t.beforeCAS != nil {
		t.beforeCAS(i, attempt)
	}
	if t.stats != nil {
		t.stats.CASAttempts.Add(1)
	}
	ok := t.nodes[i].dNodePtr.CompareAndSwap(old, new)
	if !ok && t.stats != nil {
		t.stats.CASFailures.Add(1)
	}
	return ok
}

// --- occupancy summaries (DESIGN.md §Cache-compressed descents) -------------

// MarkEverInserted records that a winning insert is about to publish key x.
//
// Contract: the caller MUST invoke it before x's INS node can become the
// first activated node of latest[x] — i.e. before the latest CAS in
// relaxed.Add, core.Add and the batched insert. The summary invariant is
// monotone ("bit clear ⇒ no insert of a covered key ever reached its
// latest CAS"), which is what lets the accelerated descents treat a clear
// range as a certified InterpretedBit-0 read without touching the nodes.
// Levels are set bottom-up so an observed upper-level bit implies the
// covered lower-level bit is already visible (the hierarchy descent in
// prevEverInserted/nextEverInserted relies on this).
//
// Cost: one load per level in steady state (the OR is skipped once the bit
// is visible), at most ⌈b/6⌉+1 atomic ORs the first time a region is hit.
func (t *Trie) MarkEverInserted(x int64) {
	for _, lvl := range t.summary {
		lvl.Set(x)
		x >>= 6
	}
}

// EverInsertedCount returns the number of distinct keys ever published by a
// winning insert (level-0 summary popcount). Introspection for cc1.
func (t *Trie) EverInsertedCount() int64 { return t.summary[0].PopCount() }

// SummaryAllOnes reports whether every key of the universe has been
// inserted at least once — the occupancy regime in which certified-clear
// skips can never fire and a compressed-vs-baseline comparison is vacuous.
// The cc1 gate guard refuses to evaluate in this state.
func (t *Trie) SummaryAllOnes() bool { return t.summary[0].AllOnes(t.size) }

// certifiedClear reports whether node i's whole key range is
// never-inserted, with a single summary word load. True is a certificate
// that InterpretedBit(i) was 0 at the load (see MarkEverInserted); false
// means nothing — the caller must read the node.
func (t *Trie) certifiedClear(i int64) bool {
	h := uint(t.height(i))
	k := h / 6
	if int(k) >= len(t.summary) {
		k = uint(len(t.summary) - 1)
	}
	// The range covers 2^(h−6k) aligned bits of level k, which always fit
	// one word: h−6k < 6 when k = h/6, and 2^(h−6k) ≤ 2^(b−6k) ≤ 64 when k
	// is clamped to the top level.
	pos := t.leftmostKey(i) >> (6 * k)
	wi, bit := bitmap.WordIndex(pos)
	width := h - 6*k
	var mask uint64
	if width >= 6 {
		mask = ^uint64(0)
	} else {
		mask = ((uint64(1) << (uint64(1) << width)) - 1) << bit
	}
	if t.stats != nil {
		t.stats.SummaryLoads.Add(1)
	}
	return t.summary[k].Load(wi)&mask == 0
}

// prevEverInserted returns the largest key < x that was ever published by
// a winning insert, or −1. O(levels) summary word loads (a van Emde
// Boas-style scan over the hierarchy).
func (t *Trie) prevEverInserted(x int64) int64 {
	pos := x
	for lvl := 0; lvl < len(t.summary); lvl++ {
		wi, bit := bitmap.WordIndex(pos)
		if t.stats != nil {
			t.stats.SummaryLoads.Add(1)
		}
		if b := bitmap.NearestSetBelow(t.summary[lvl].Load(wi), bit); b >= 0 {
			return t.summaryDescendHigh(lvl, wi*bitmap.WordBits+int64(b))
		}
		if wi == 0 {
			// Nothing below within this level's first word; higher levels
			// cannot add anything below either.
			return -1
		}
		pos = wi // the level above indexes this level's words
	}
	return -1
}

// summaryDescendHigh resolves a set bit at (lvl, pos) down to the largest
// covered ever-inserted key. A set bit at level l+1 guarantees its covered
// level-l word is non-zero (MarkEverInserted sets bottom-up).
func (t *Trie) summaryDescendHigh(lvl int, pos int64) int64 {
	for l := lvl - 1; l >= 0; l-- {
		if t.stats != nil {
			t.stats.SummaryLoads.Add(1)
		}
		word := t.summary[l].Load(pos)
		pos = pos*bitmap.WordBits + int64(bitmap.NearestSetAtOrBelow(word, 63))
	}
	return pos
}

// nextEverInserted returns the smallest ever-inserted key > x, or −1. The
// mirror of prevEverInserted.
func (t *Trie) nextEverInserted(x int64) int64 {
	pos := x
	for lvl := 0; lvl < len(t.summary); lvl++ {
		wi, bit := bitmap.WordIndex(pos)
		if t.stats != nil {
			t.stats.SummaryLoads.Add(1)
		}
		if b := bitmap.NearestSetAbove(t.summary[lvl].Load(wi), bit); b >= 0 {
			return t.summaryDescendLow(lvl, wi*bitmap.WordBits+int64(b))
		}
		if wi == int64(len(t.summary[lvl]))-1 {
			return -1
		}
		pos = wi
	}
	return -1
}

// summaryDescendLow resolves a set bit at (lvl, pos) down to the smallest
// covered ever-inserted key.
func (t *Trie) summaryDescendLow(lvl int, pos int64) int64 {
	for l := lvl - 1; l >= 0; l-- {
		if t.stats != nil {
			t.stats.SummaryLoads.Add(1)
		}
		word := t.summary[l].Load(pos)
		pos = pos*bitmap.WordBits + int64(bitmap.NearestSetAtOrAbove(word, 0))
	}
	return pos
}

// --- RelaxedPredecessor (paper lines 73–90) ---------------------------------

// ErrBottom distinguishes the ⊥ result: concurrent updates prevented the
// traversal from completing. Callers of the relaxed trie receive it as the
// ok=false return.
//
// RelaxedPredecessor returns (key, true) on a completed traversal — key is
// −1 if no key smaller than y was found — and (0, false) for ⊥.
//
// With compressed descents enabled (the default) the ascent replaces the
// level-by-level sibling reads with a summary scan: the nearest
// ever-inserted key p < y certifies every left sibling strictly between
// them as interpreted-bit 0 (read at the summary load), so the traversal
// jumps straight to the divergence height of p and y and re-validates with
// one real InterpretedBit read there. Every answer the accelerated
// traversal returns is one the paper-literal traversal could have returned
// under some read schedule — see DESIGN.md §Cache-compressed descents.
func (t *Trie) RelaxedPredecessor(y int64) (int64, bool) {
	if !t.compressed {
		return t.relaxedPredecessorDense(y)
	}
	// Compressed ascent: jump from divergence height to divergence height.
	bound := y // every key in [bound, y) is already certified or read 0
	covered := uint64(0)
	var i int64
	for {
		p := t.prevEverInserted(bound)
		if p < 0 {
			// All remaining left siblings on the way to the root are
			// certified clear: no key below bound was ever inserted.
			return -1, true
		}
		d := uint(bits.Len64(uint64(y^p))) - 1
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
			// The sibling reads the literal ascent would have done at the
			// right-child heights below d, now certified by the scan.
			skipped := bits.OnesCount64(uint64(y)&(uint64(1)<<d-1)) - bits.OnesCount64(uint64(y)&covered)
			t.stats.SkippedBitReads.Add(int64(skipped))
			covered = uint64(1)<<d - 1
		}
		s := ((t.size + y) >> d) ^ 1 // left sibling of y's ancestor; contains p
		if t.InterpretedBit(s) == 1 {
			i = s
			break
		}
		// p's region read 0 for real (p may be deleted); keep ascending
		// past it.
		bound = t.leftmostKey(s)
		if bound == 0 {
			return -1, true
		}
	}
	// Descend the right-most path of 1-bits, skipping certified-clear
	// children without touching their cache lines.
	for t.height(i) > 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		switch {
		case t.childBit(rightChild(i)) == 1:
			i = rightChild(i)
		case t.childBit(leftChild(i)) == 1:
			i = leftChild(i)
		default:
			// Both children read (or certified) 0 under a node that read 1.
			// With a certified child this still implies a concurrent update:
			// a certificate plus the parent's 1-read cannot both hold over a
			// quiescent range (monotonicity — see DESIGN.md).
			return 0, false
		}
	}
	return t.leafKey(i), true
}

// relaxedPredecessorDense is the paper-literal traversal (lines 73–90),
// kept verbatim as the cc1 baseline and the semantics-equivalence oracle.
func (t *Trie) relaxedPredecessorDense(y int64) (int64, bool) {
	i := t.leafIndex(y)
	// Ascend while we are a left child or the left sibling's bit is 0.
	for isLeftChild(i) || t.InterpretedBit(sibling(i)) == 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		i = parent(i)
		if i == 1 {
			return -1, true
		}
	}
	// Descend the right-most path of 1-bits starting at the left sibling.
	i = sibling(i)
	for t.height(i) > 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		switch {
		case t.InterpretedBit(rightChild(i)) == 1:
			i = rightChild(i)
		case t.InterpretedBit(leftChild(i)) == 1:
			i = leftChild(i)
		default:
			// Both children read 0 under a node that read 1: a concurrent
			// update is mid-flight here (paper line 88).
			return 0, false
		}
	}
	return t.leafKey(i), true
}

// childBit returns the interpreted bit of child node c, substituting a
// certified summary 0 for the read when the whole range is never-inserted.
func (t *Trie) childBit(c int64) int {
	if t.certifiedClear(c) {
		if t.stats != nil {
			t.stats.SkippedBitReads.Add(1)
		}
		return 0
	}
	return t.InterpretedBit(c)
}

// RelaxedSuccessor is the mirror image of RelaxedPredecessor: it returns
// the smallest key greater than y under the same relaxed specification
// ((key, true) on success, (−1, true) when no key above y is visible,
// (0, false) for ⊥ under interference). The paper only states the
// predecessor algorithm; the mirror swaps left/right everywhere and is an
// extension of this reproduction. The summary acceleration mirrors too
// (nearest ever-inserted key above, left-most descent).
func (t *Trie) RelaxedSuccessor(y int64) (int64, bool) {
	if !t.compressed {
		return t.relaxedSuccessorDense(y)
	}
	bound := y
	covered := uint64(0)
	var i int64
	for {
		q := t.nextEverInserted(bound)
		if q < 0 {
			return -1, true
		}
		d := uint(bits.Len64(uint64(y^q))) - 1
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
			// The literal ascent reads right siblings at the left-child
			// heights (y's 0-bits) below d.
			mask := uint64(1)<<d - 1
			skipped := bits.OnesCount64(^uint64(y)&mask) - bits.OnesCount64(^uint64(y)&covered)
			t.stats.SkippedBitReads.Add(int64(skipped))
			covered = mask
		}
		s := ((t.size + y) >> d) ^ 1 // right sibling of y's ancestor; contains q
		if t.InterpretedBit(s) == 1 {
			i = s
			break
		}
		bound = t.leftmostKey(s) + (int64(1) << d) - 1 // rightmost key under s
		if bound >= t.size-1 {
			return -1, true
		}
	}
	// Descend the left-most path of 1-bits with certified-clear skips.
	for t.height(i) > 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		switch {
		case t.childBit(leftChild(i)) == 1:
			i = leftChild(i)
		case t.childBit(rightChild(i)) == 1:
			i = rightChild(i)
		default:
			return 0, false
		}
	}
	return t.leafKey(i), true
}

// relaxedSuccessorDense is the paper-literal mirror traversal, kept as the
// cc1 baseline and the semantics-equivalence oracle.
func (t *Trie) relaxedSuccessorDense(y int64) (int64, bool) {
	i := t.leafIndex(y)
	// Ascend while we are a right child or the right sibling's bit is 0.
	for !isLeftChild(i) || t.InterpretedBit(sibling(i)) == 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		i = parent(i)
		if i == 1 {
			return -1, true
		}
	}
	// Descend the left-most path of 1-bits starting at the right sibling.
	i = sibling(i)
	for t.height(i) > 0 {
		if t.stats != nil {
			t.stats.TraversalSteps.Add(1)
		}
		switch {
		case t.InterpretedBit(leftChild(i)) == 1:
			i = leftChild(i)
		case t.InterpretedBit(rightChild(i)) == 1:
			i = rightChild(i)
		default:
			return 0, false
		}
	}
	return t.leafKey(i), true
}

// DNodePtr exposes node i's dNodePtr for tests; a leaf's is always nil.
func (t *Trie) DNodePtr(i int64) *unode.UpdateNode {
	if i >= t.size {
		return nil
	}
	return t.nodes[i].dNodePtr.Load()
}

// FixedBytes returns the bytes New allocated in proportion to the
// universe: the internal nodes' dNodePtr slots and the summary words.
func (t *Trie) FixedBytes() int64 {
	n := int64(len(t.nodes)) * int64(unsafe.Sizeof(trieNode{}))
	for _, lvl := range t.summary {
		n += int64(len(lvl)) * int64(unsafe.Sizeof(lvl[0]))
	}
	return n
}

// Height exposes the height of node index i for tests and trieviz.
func (t *Trie) Height(i int64) int { return t.height(i) }
