package core

import (
	"runtime"
	"testing"
)

// liveHeap returns HeapAlloc after two collections, so only live objects
// count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEmptyTrieBytesPerSlot pins what an empty trie costs per universe
// slot: 8 B of latest, 8 B of internal-node dNodePtr (a leaf's is never
// written, so it is not stored) and the occupancy summary's ~0.13 B.
func TestEmptyTrieBytesPerSlot(t *testing.T) {
	const u = 1 << 20
	before := liveHeap()
	tr := mustNew(t, u)
	after := liveHeap()
	runtime.KeepAlive(tr)
	perSlot := float64(after-before) / u
	t.Logf("empty core.New(%d): %.2f B per slot (FixedBytes %.2f)", u, perSlot, float64(tr.FixedBytes())/u)
	if perSlot > 16.5 {
		t.Fatalf("empty trie holds %.2f B per slot, want ≤ 16.5", perSlot)
	}
}

// sparseKey returns the i-th key of a sparse set: one key per 64-slot
// block, at an offset that varies from block to block, like a random
// sparse set.
func sparseKey(i int64) int64 { return i*64 + (i*37)%64 }

// TestSparseBytesPerKey pins what a sparse set costs per key on top of the
// empty trie, after a fill and again after predecessors and deletes. Each
// key keeps one update node in latest[x] (80 B), and inserts materialize
// the dummy DEL nodes their MinWrites need; predecessors and deletes
// materialize none. Measured on linux/amd64 with Go 1.24: 328 B per key
// filled and 338 after the reads and deletes (352 under -race, whose
// pools drop entries); the bounds leave that margin.
func TestSparseBytesPerKey(t *testing.T) {
	const (
		u = 1 << 20
		n = u / 64
	)
	tr := mustNew(t, u)
	empty := liveHeap()
	for i := int64(0); i < n; i++ {
		tr.Insert(sparseKey(i))
	}
	filled := float64(liveHeap()-empty) / n
	for y := int64(0); y < u; y += 7 {
		tr.Predecessor(y)
	}
	for i := int64(0); i < n; i += 2 {
		tr.Delete(sparseKey(i))
	}
	churned := float64(liveHeap()-empty) / n
	runtime.KeepAlive(tr)
	t.Logf("sparse set of %d keys in %d slots: %.1f B per key filled, %.1f after reads and deletes", n, u, filled, churned)
	if filled > 345 || churned > 370 {
		t.Fatalf("sparse set holds %.1f B per key filled (want ≤ 345) and %.1f after reads and deletes (want ≤ 370)",
			filled, churned)
	}
}

// TestRemoveUntouchedKeyAllocatesNothing: deleting a key no operation ever
// touched reads latest[x] as nil — the initial dummy, absent — and
// returns without materializing a dummy DEL node.
func TestRemoveUntouchedKeyAllocatesNothing(t *testing.T) {
	tr := mustNew(t, 1<<12)
	x := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Remove(x) {
			t.Fatalf("Remove(%d) of an untouched key won", x)
		}
		x++
	})
	if allocs != 0 {
		t.Fatalf("Remove of an untouched key: %v allocs, want 0", allocs)
	}
	for y := int64(0); y < x; y++ {
		if tr.latest[y].Load() != nil {
			t.Fatalf("latest[%d] materialized by Remove", y)
		}
	}
}

// TestOnlyInsertsMaterializeDummies: after Insert(k) and Delete(k) on an
// empty trie, the only keys with a latest list are k and the keys the
// insert's MinWrites depended on — the leftmost keys of k's ancestors.
// The delete's sibling reads and embedded predecessors read untouched
// keys as nil and publish nothing.
func TestOnlyInsertsMaterializeDummies(t *testing.T) {
	const u = 64
	for _, k := range []int64{0, 1, 37, 42, 63} {
		tr := mustNew(t, u)
		tr.Insert(k)
		tr.Delete(k)
		allowed := map[int64]bool{}
		for h := 0; h <= tr.B(); h++ {
			allowed[k>>h<<h] = true
		}
		for x := int64(0); x < u; x++ {
			if tr.latest[x].Load() != nil && !allowed[x] {
				t.Errorf("k=%d: latest[%d] = %v, want nil (not k or an ancestor's leftmost key)",
					k, x, tr.latest[x].Load())
			}
		}
		if tr.Search(k) {
			t.Errorf("k=%d: still present after Delete", k)
		}
	}
}

// TestBatchDeleteOfUntouchedKeysPublishesNothing: ApplyBatch's phase 1
// reads a delete's key as Remove does, so deletes of untouched keys are
// no-ops that leave latest[x] nil.
func TestBatchDeleteOfUntouchedKeysPublishesNothing(t *testing.T) {
	tr := mustNew(t, 64)
	ops := []BatchOp{{Key: 3, Del: true}, {Key: 9, Del: true}, {Key: 20, Del: true}}
	tr.ApplyBatch(ops)
	for _, op := range ops {
		if op.Won {
			t.Errorf("delete of untouched key %d won", op.Key)
		}
		if p := tr.latest[op.Key].Load(); p != nil {
			t.Errorf("latest[%d] = %v after a no-op delete, want nil", op.Key, p)
		}
	}
}
