package bitstrie

import (
	"sync"
	"testing"

	"repro/internal/unode"
)

// scriptOracle is a deterministic oracle for white-box engine tests. latest
// maps keys to update nodes; FindLatest materializes dummies for missing
// keys like the real data structures do, and PeekLatest returns nil for
// them. notFirst marks nodes FirstActivated must reject.
type scriptOracle struct {
	mu       sync.Mutex
	b        int
	tr       *Trie // for the MarkEverInserted publication contract
	latest   map[int64]*unode.UpdateNode
	notFirst map[*unode.UpdateNode]bool
}

func newScriptOracle(b int) *scriptOracle {
	return &scriptOracle{
		b:        b,
		latest:   make(map[int64]*unode.UpdateNode),
		notFirst: make(map[*unode.UpdateNode]bool),
	}
}

func (o *scriptOracle) PeekLatest(x int64) *unode.UpdateNode {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.latest[x]
}

func (o *scriptOracle) FindLatest(x int64) *unode.UpdateNode {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n, ok := o.latest[x]; ok {
		return n
	}
	d := unode.NewDummyDel(x, o.b)
	o.latest[x] = d
	return d
}

func (o *scriptOracle) FirstActivated(n *unode.UpdateNode) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.notFirst[n] {
		return false
	}
	return o.latest[n.Key] == n
}

func (o *scriptOracle) set(x int64, n *unode.UpdateNode) {
	// Honor the summary publication contract the real tries follow: a
	// winning insert marks the key ever-inserted before it can become the
	// first activated node of latest[x].
	if n.Kind == unode.Ins && o.tr != nil {
		o.tr.MarkEverInserted(x)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.latest[x] = n
}

func (o *scriptOracle) markOutdated(n *unode.UpdateNode) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.notFirst[n] = true
}

func newEngine(t *testing.T, u int64) (*Trie, *scriptOracle) {
	t.Helper()
	// b from the rounded universe; build oracle first with a provisional b,
	// then fix it after New reports the real b.
	o := newScriptOracle(0)
	tr, err := New(u, o)
	if err != nil {
		t.Fatalf("New(%d): %v", u, err)
	}
	o.b = tr.B()
	o.tr = tr
	return tr, o
}

func TestNewValidation(t *testing.T) {
	o := newScriptOracle(2)
	if _, err := New(1, o); err == nil {
		t.Error("New(1) should fail")
	}
	if _, err := New(0, o); err == nil {
		t.Error("New(0) should fail")
	}
	tr, err := New(5, o)
	if err != nil {
		t.Fatalf("New(5): %v", err)
	}
	if tr.U() != 8 || tr.B() != 3 {
		t.Errorf("New(5): U=%d B=%d, want 8/3", tr.U(), tr.B())
	}
}

func TestIndexArithmetic(t *testing.T) {
	tr, _ := newEngine(t, 8) // b=3, leaves at 8..15
	tests := []struct {
		idx      int64
		height   int
		leftmost int64
	}{
		{1, 3, 0},
		{2, 2, 0},
		{3, 2, 4},
		{4, 1, 0},
		{7, 1, 6},
		{8, 0, 0},
		{15, 0, 7},
	}
	for _, tt := range tests {
		if got := tr.height(tt.idx); got != tt.height {
			t.Errorf("height(%d) = %d, want %d", tt.idx, got, tt.height)
		}
		if got := tr.leftmostKey(tt.idx); got != tt.leftmost {
			t.Errorf("leftmostKey(%d) = %d, want %d", tt.idx, got, tt.leftmost)
		}
	}
	if got := tr.leafIndex(5); got != 13 {
		t.Errorf("leafIndex(5) = %d, want 13", got)
	}
	if got := tr.leafKey(13); got != 5 {
		t.Errorf("leafKey(13) = %d, want 5", got)
	}
	if sibling(8) != 9 || sibling(9) != 8 {
		t.Error("sibling arithmetic wrong")
	}
	if !isLeftChild(8) || isLeftChild(9) {
		t.Error("isLeftChild arithmetic wrong")
	}
}

func TestInterpretedBitCases(t *testing.T) {
	tr, o := newEngine(t, 4) // b=2
	leaf0 := tr.leafIndex(0) // index 4
	node2 := int64(2)        // parent of leaves 0,1; height 1

	// Untouched universe: everything reads 0 (dummy path).
	if got := tr.InterpretedBit(leaf0); got != 0 {
		t.Errorf("empty leaf bit = %d, want 0", got)
	}
	if got := tr.InterpretedBit(node2); got != 0 {
		t.Errorf("empty internal bit = %d, want 0", got)
	}
	if got := tr.InterpretedBit(1); got != 0 {
		t.Errorf("empty root bit = %d, want 0", got)
	}

	// INS latest ⇒ 1 regardless of boundaries.
	iNode := unode.NewIns(0)
	o.set(0, iNode)
	if got := tr.InterpretedBit(leaf0); got != 1 {
		t.Errorf("INS leaf bit = %d, want 1", got)
	}

	// DEL latest with u0b=0: leaf (h=0 ≤ 0) reads 0, parent (h=1 > 0)
	// still reads 1 until the delete propagates.
	dNode := unode.NewDel(0, tr.B())
	o.set(0, dNode)
	if got := tr.InterpretedBit(leaf0); got != 0 {
		t.Errorf("fresh DEL leaf bit = %d, want 0", got)
	}
	tr.nodes[node2].dNodePtr.Store(dNode)
	if got := tr.InterpretedBit(node2); got != 1 {
		t.Errorf("internal bit with u0b=0 = %d, want 1 (h=1 > u0b)", got)
	}
	dNode.Del().Upper0Boundary.Store(1)
	if got := tr.InterpretedBit(node2); got != 0 {
		t.Errorf("internal bit with u0b=1 = %d, want 0", got)
	}

	// lower1Boundary below height forces 1 (insert raced past).
	dNode.Lower1().MinWrite(1)
	if got := tr.InterpretedBit(node2); got != 1 {
		t.Errorf("internal bit with l1b=1,h=1 = %d, want 1", got)
	}

	// Outdated DEL node (not first activated) reads 1.
	dNode2 := unode.NewDel(1, tr.B())
	dNode2.Del().Upper0Boundary.Store(1)
	o.set(1, dNode2)
	tr.nodes[node2].dNodePtr.Store(dNode2)
	o.markOutdated(dNode2)
	if got := tr.InterpretedBit(node2); got != 1 {
		t.Errorf("outdated DEL bit = %d, want 1", got)
	}
}

// figure2Setup builds the paper's Figure 2(a) state on u=4: S = ∅ after
// earlier deletes; node 2 (parent of leaves 0,1) depends on DEL(0) with
// u0b=1, node 3 and the root depend on DEL(3) with u0b=2, l1b=3.
func figure2Setup(t *testing.T) (*Trie, *scriptOracle, *unode.UpdateNode, *unode.UpdateNode) {
	t.Helper()
	tr, o := newEngine(t, 4)
	d0 := unode.NewDel(0, tr.B())
	d0.Del().Upper0Boundary.Store(1)
	d3 := unode.NewDel(3, tr.B())
	d3.Del().Upper0Boundary.Store(2)
	o.set(0, d0)
	o.set(3, d3)
	tr.nodes[2].dNodePtr.Store(d0)
	tr.nodes[3].dNodePtr.Store(d3)
	tr.nodes[1].dNodePtr.Store(d3)
	for idx := int64(1); idx < 8; idx++ {
		if got := tr.InterpretedBit(idx); got != 0 {
			t.Fatalf("setup: bit(%d) = %d, want 0", idx, got)
		}
	}
	return tr, o, d0, d3
}

// TestFigure2InsertLowersBoundary reproduces Figure 2: Insert(0) flips leaf
// 0 and node 2 in a single step (latest[0] switches to INS) and then raises
// the root by MinWriting the lower1Boundary of the DEL node in latest[3],
// without touching any dNodePtr.
func TestFigure2InsertLowersBoundary(t *testing.T) {
	tr, o, _, d3 := figure2Setup(t)

	iNode := unode.NewIns(0)
	o.set(0, iNode) // Figure 2(b): the CAS on latest[0]
	if got := tr.InterpretedBit(tr.leafIndex(0)); got != 1 {
		t.Fatalf("leaf0 bit = %d, want 1 right after activation", got)
	}
	if got := tr.InterpretedBit(2); got != 1 {
		t.Fatalf("node2 bit = %d, want 1 right after activation", got)
	}
	if got := tr.InterpretedBit(1); got != 0 {
		t.Fatalf("root bit = %d, want 0 before InsertBinaryTrie", got)
	}

	tr.InsertBinaryTrie(iNode) // Figure 2(c)

	if got := tr.InterpretedBit(1); got != 1 {
		t.Errorf("root bit after insert = %d, want 1", got)
	}
	if got := d3.Lower1().Read(); got != 2 {
		t.Errorf("d3 lower1Boundary = %d, want 2 (root height)", got)
	}
	if iNode.Ins().Target.Load() != d3 {
		t.Errorf("iNode.target = %v, want d3", iNode.Ins().Target.Load())
	}
	if tr.DNodePtr(1) != d3 {
		t.Error("insert must not change the root's dNodePtr")
	}
}

func TestInsertStopsWhenNotFirstActivated(t *testing.T) {
	tr, o, _, d3 := figure2Setup(t)
	iNode := unode.NewIns(0)
	o.set(0, iNode)
	o.markOutdated(iNode) // a newer update superseded this insert
	tr.InsertBinaryTrie(iNode)
	// The insert returns at line 44 before any MinWrite; the root stays 0
	// and d3 is untouched, but target was set first (the stop handshake).
	if got := tr.InterpretedBit(1); got != 0 {
		t.Errorf("root bit = %d, want 0 (stopped insert)", got)
	}
	if got := d3.Lower1().Read(); got != 3 {
		t.Errorf("d3 lower1Boundary = %d, want 3 (untouched)", got)
	}
	if iNode.Ins().Target.Load() != d3 {
		t.Error("insert should have set target before stopping")
	}
}

func TestDeleteBinaryTriePropagatesToRoot(t *testing.T) {
	tr, o := newEngine(t, 4)
	// Insert 0, then delete it; deletion must drive every bit to 0 and
	// leave dNodePtr of the path pointing at the DEL node with u0b = b.
	iNode := unode.NewIns(0)
	o.set(0, iNode)
	tr.InsertBinaryTrie(iNode)

	dNode := unode.NewDel(0, tr.B())
	o.set(0, dNode)
	tr.DeleteBinaryTrie(dNode)

	for _, idx := range []int64{tr.leafIndex(0), 2, 1} {
		if got := tr.InterpretedBit(idx); got != 0 {
			t.Errorf("bit(%d) after delete = %d, want 0", idx, got)
		}
	}
	if tr.DNodePtr(2) != dNode || tr.DNodePtr(1) != dNode {
		t.Error("delete should own the path's dNodePtrs")
	}
	if got := dNode.Del().Upper0Boundary.Load(); got != int32(tr.B()) {
		t.Errorf("upper0Boundary = %d, want %d", got, tr.B())
	}
}

func TestDeleteStopsWhenSiblingPresent(t *testing.T) {
	tr, o := newEngine(t, 4)
	for _, k := range []int64{0, 1} {
		iNode := unode.NewIns(k)
		o.set(k, iNode)
		tr.InsertBinaryTrie(iNode)
	}
	dNode := unode.NewDel(0, tr.B())
	o.set(0, dNode)
	tr.DeleteBinaryTrie(dNode)

	// Leaf 0 is gone but its parent keeps bit 1 because leaf 1 remains.
	if got := tr.InterpretedBit(tr.leafIndex(0)); got != 0 {
		t.Errorf("leaf0 bit = %d, want 0", got)
	}
	if got := tr.InterpretedBit(2); got != 1 {
		t.Errorf("node2 bit = %d, want 1 (sibling present)", got)
	}
	if got := dNode.Del().Upper0Boundary.Load(); got != 0 {
		t.Errorf("upper0Boundary = %d, want 0 (no propagation)", got)
	}
}

func TestDeleteStopsOnStopFlag(t *testing.T) {
	tr, o := newEngine(t, 4)
	iNode := unode.NewIns(0)
	o.set(0, iNode)
	tr.InsertBinaryTrie(iNode)
	dNode := unode.NewDel(0, tr.B())
	o.set(0, dNode)
	dNode.SetStop() // a concurrent insert asked us to stand down
	tr.DeleteBinaryTrie(dNode)
	if tr.DNodePtr(2) == dNode {
		t.Error("stopped delete must not install its DEL node")
	}
}

func TestDeleteStopsOnLoweredBoundary(t *testing.T) {
	tr, o := newEngine(t, 4)
	iNode := unode.NewIns(0)
	o.set(0, iNode)
	tr.InsertBinaryTrie(iNode)
	dNode := unode.NewDel(0, tr.B())
	o.set(0, dNode)
	dNode.Lower1().MinWrite(1) // insert already re-raised this subtrie
	tr.DeleteBinaryTrie(dNode)
	if tr.DNodePtr(2) == dNode {
		t.Error("delete with lowered boundary must not install its DEL node")
	}
}

// TestSecondCASAttemptRescue reproduces the Lemma 4.14 scenario: an outdated
// delete's CAS lands between the latest delete's read and CAS, failing the
// first attempt; the paper's second attempt must succeed and complete the
// propagation.
func TestSecondCASAttemptRescue(t *testing.T) {
	tr, o := newEngine(t, 4)
	stats := &Stats{}
	tr.SetStats(stats)

	dOld := unode.NewDel(0, tr.B()) // outdated delete, poised to CAS
	o.markOutdated(dOld)
	dNew := unode.NewDel(0, tr.B()) // latest delete
	o.set(0, dNew)

	injected := false
	tr.SetBeforeCASHook(func(node int64, attempt int) {
		if node == 2 && attempt == 1 && !injected {
			injected = true
			// dOld wakes up exactly before dNew's first CAS and installs
			// itself (it passed its own checks before stalling).
			if !tr.nodes[2].dNodePtr.CompareAndSwap(nil, dOld) {
				t.Error("outdated CAS injection failed")
			}
		}
	})
	tr.DeleteBinaryTrie(dNew)
	tr.SetBeforeCASHook(nil)

	if !injected {
		t.Fatal("interference was never injected")
	}
	if tr.DNodePtr(2) != dNew {
		t.Fatalf("node2 dNodePtr = %v, want dNew (second attempt rescue)", tr.DNodePtr(2))
	}
	if got := stats.SecondCASSuccess.Load(); got != 1 {
		t.Errorf("SecondCASSuccess = %d, want 1", got)
	}
	if got := dNode2BitQuiescent(tr); got != 0 {
		t.Errorf("node2 bit = %d, want 0 after rescued delete", got)
	}
	if got := tr.InterpretedBit(1); got != 0 {
		t.Errorf("root bit = %d, want 0 after rescued delete", got)
	}
}

// TestSingleCASAttemptLeavesStaleBit is the A1 ablation: with only one CAS
// attempt the same interleaving strands a stale interpreted bit 1 over an
// empty subtrie even at quiescence, violating property IB0.
func TestSingleCASAttemptLeavesStaleBit(t *testing.T) {
	tr, o := newEngine(t, 4)
	tr.SetSingleCASAttempt(true)

	dOld := unode.NewDel(0, tr.B())
	o.markOutdated(dOld)
	dNew := unode.NewDel(0, tr.B())
	o.set(0, dNew)

	injected := false
	tr.SetBeforeCASHook(func(node int64, attempt int) {
		if node == 2 && attempt == 1 && !injected {
			injected = true
			tr.nodes[2].dNodePtr.CompareAndSwap(nil, dOld)
		}
	})
	tr.DeleteBinaryTrie(dNew)
	tr.SetBeforeCASHook(nil)

	// Both leaves read 0 but the parent is stuck at 1 with no active ops:
	// exactly the correctness loss the two-attempt rule prevents.
	if got := tr.InterpretedBit(tr.leafIndex(0)); got != 0 {
		t.Fatalf("leaf0 bit = %d, want 0", got)
	}
	if got := tr.InterpretedBit(tr.leafIndex(1)); got != 0 {
		t.Fatalf("leaf1 bit = %d, want 0", got)
	}
	if got := dNode2BitQuiescent(tr); got != 1 {
		t.Errorf("node2 bit = %d; single-attempt ablation should strand a stale 1", got)
	}
}

func dNode2BitQuiescent(tr *Trie) int { return tr.InterpretedBit(2) }

func TestRelaxedPredecessorSequential(t *testing.T) {
	tr, o := newEngine(t, 16)
	present := map[int64]bool{}
	add := func(k int64) {
		iNode := unode.NewIns(k)
		o.set(k, iNode)
		tr.InsertBinaryTrie(iNode)
		present[k] = true
	}
	del := func(k int64) {
		dNode := unode.NewDel(k, tr.B())
		o.set(k, dNode)
		tr.DeleteBinaryTrie(dNode)
		delete(present, k)
	}
	check := func() {
		t.Helper()
		for y := int64(0); y < tr.U(); y++ {
			want := int64(-1)
			for k := y - 1; k >= 0; k-- {
				if present[k] {
					want = k
					break
				}
			}
			got, ok := tr.RelaxedPredecessor(y)
			if !ok {
				t.Fatalf("RelaxedPredecessor(%d) = ⊥ at quiescence", y)
			}
			if got != want {
				t.Fatalf("RelaxedPredecessor(%d) = %d, want %d (set %v)", y, got, want, present)
			}
		}
	}

	check() // empty
	add(3)
	check()
	add(9)
	add(10)
	check()
	del(9)
	check()
	add(0)
	add(15)
	check()
	del(3)
	del(0)
	del(10)
	del(15)
	check() // empty again
}

func TestStatsCounting(t *testing.T) {
	tr, o := newEngine(t, 8)
	stats := &Stats{}
	tr.SetStats(stats)
	iNode := unode.NewIns(3)
	o.set(3, iNode)
	tr.InsertBinaryTrie(iNode)
	if stats.MinWrites.Load() == 0 {
		t.Error("expected MinWrites > 0")
	}
	dNode := unode.NewDel(3, tr.B())
	o.set(3, dNode)
	tr.DeleteBinaryTrie(dNode)
	if stats.CASAttempts.Load() == 0 {
		t.Error("expected CASAttempts > 0")
	}
	if stats.BitReads.Load() == 0 {
		t.Error("expected BitReads > 0")
	}
	tr.RelaxedPredecessor(5)
	if stats.TraversalSteps.Load() == 0 {
		t.Error("expected TraversalSteps > 0")
	}
}

// TestWaitFreeStepBound: a solo operation performs O(b) engine steps; with
// the stats counters we can bound bit reads per op by a small multiple of b.
func TestWaitFreeStepBound(t *testing.T) {
	tr, o := newEngine(t, 1<<12) // b = 12
	stats := &Stats{}
	tr.SetStats(stats)
	const ops = 200
	for k := int64(0); k < ops; k++ {
		iNode := unode.NewIns(k)
		o.set(k, iNode)
		tr.InsertBinaryTrie(iNode)
		dNode := unode.NewDel(k, tr.B())
		o.set(k, dNode)
		tr.DeleteBinaryTrie(dNode)
		tr.RelaxedPredecessor(k)
	}
	b := int64(tr.B())
	// 3 engine calls per iteration, each ≤ ~4 bit reads per level.
	bound := ops * 3 * 4 * (b + 1)
	if got := stats.BitReads.Load(); got > bound {
		t.Errorf("BitReads = %d exceeds wait-free bound %d", got, bound)
	}
}
