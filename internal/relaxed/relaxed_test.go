package relaxed_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/relaxed"
)

func newTrie(t testing.TB, u int64) *relaxed.Trie {
	t.Helper()
	tr, err := relaxed.New(u)
	if err != nil {
		t.Fatalf("New(%d): %v", u, err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := relaxed.New(1); err == nil {
		t.Error("New(1) should fail")
	}
	tr := newTrie(t, 100)
	if tr.U() != 128 || tr.B() != 7 {
		t.Errorf("U=%d B=%d, want 128/7", tr.U(), tr.B())
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := newTrie(t, 8)
	for x := int64(0); x < 8; x++ {
		if tr.Search(x) {
			t.Errorf("Search(%d) = true on empty trie", x)
		}
		got, ok := tr.Predecessor(x)
		if !ok || got != -1 {
			t.Errorf("Predecessor(%d) = (%d,%v), want (-1,true)", x, got, ok)
		}
	}
}

func TestInsertSearchDelete(t *testing.T) {
	tr := newTrie(t, 16)
	tr.Insert(5)
	if !tr.Search(5) {
		t.Fatal("Search(5) = false after insert")
	}
	tr.Insert(5) // idempotent
	if !tr.Search(5) {
		t.Fatal("double insert broke Search")
	}
	tr.Delete(5)
	if tr.Search(5) {
		t.Fatal("Search(5) = true after delete")
	}
	tr.Delete(5) // idempotent
	if tr.Search(5) {
		t.Fatal("double delete broke Search")
	}
}

func TestPredecessorSequential(t *testing.T) {
	tr := newTrie(t, 64)
	keys := []int64{0, 3, 17, 40, 62}
	for _, k := range keys {
		tr.Insert(k)
	}
	tests := []struct {
		y    int64
		want int64
	}{
		{0, -1}, {1, 0}, {3, 0}, {4, 3}, {17, 3}, {18, 17},
		{40, 17}, {41, 40}, {62, 40}, {63, 62},
	}
	for _, tt := range tests {
		got, ok := tr.Predecessor(tt.y)
		if !ok {
			t.Errorf("Predecessor(%d) = ⊥ at quiescence", tt.y)
			continue
		}
		if got != tt.want {
			t.Errorf("Predecessor(%d) = %d, want %d", tt.y, got, tt.want)
		}
	}
}

// TestFigure3DeleteRace replays Figure 3's endpoint: after Delete(0) stops
// early (sibling 1 still present) and Delete(1) runs, Delete(1)'s DEL node
// owns the whole path and every bit is 0.
func TestFigure3DeleteRace(t *testing.T) {
	tr := newTrie(t, 4)
	tr.Insert(0)
	tr.Insert(1)
	// Figure 3(b): both deletes activate; here sequentially, dOp (key 0)
	// goes first and stops at the parent because leaf 1 was still 1 when it
	// checked... in the sequential replay leaf 1 is still present, so dOp
	// returns at the sibling check — exactly Figure 3(c)'s losing path.
	tr.Delete(0)
	bits := tr.Bits()
	if got := bits.InterpretedBitOfLeaf(0); got != 0 {
		t.Fatalf("leaf0 bit = %d, want 0", got)
	}
	if got := bits.InterpretedBit(2); got != 1 {
		t.Fatalf("node2 bit = %d, want 1 while key 1 present", got)
	}
	// Figure 3(c)-(f): dOp' (key 1) propagates to the root.
	tr.Delete(1)
	for _, idx := range []int64{1, 2} {
		if got := bits.InterpretedBit(idx); got != 0 {
			t.Errorf("bit(%d) = %d, want 0 after both deletes", idx, got)
		}
	}
	d := bits.DNodePtr(2)
	if d == nil || d.Key != 1 {
		t.Fatalf("node2 dNodePtr = %v, want DEL(1)", d)
	}
	if bits.DNodePtr(1) != d {
		t.Fatal("root should depend on the same DEL(1) node")
	}
	if got := d.Del().Upper0Boundary.Load(); got != 2 {
		t.Errorf("DEL(1) upper0Boundary = %d, want 2", got)
	}
}

// TestQuickAgainstReference: arbitrary op sequences match a map-based
// reference, including predecessor queries at every step.
func TestQuickAgainstReference(t *testing.T) {
	const u = 32
	type op struct {
		Kind byte
		Key  uint8
	}
	f := func(ops []op) bool {
		tr := newTrie(t, u)
		ref := map[int64]bool{}
		for _, o := range ops {
			k := int64(o.Key % u)
			switch o.Kind % 4 {
			case 0:
				tr.Insert(k)
				ref[k] = true
			case 1:
				tr.Delete(k)
				delete(ref, k)
			case 2:
				if tr.Search(k) != ref[k] {
					return false
				}
			case 3:
				want := int64(-1)
				for c := k - 1; c >= 0; c-- {
					if ref[c] {
						want = c
						break
					}
				}
				got, ok := tr.Predecessor(k)
				if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkQuiescent verifies the §4.1 quiescent guarantees: Search matches the
// reference set and RelaxedPredecessor returns the exact predecessor (never
// ⊥) for every key.
func checkQuiescent(t *testing.T, tr *relaxed.Trie, present map[int64]bool) {
	t.Helper()
	for y := int64(0); y < tr.U(); y++ {
		if got := tr.Search(y); got != present[y] {
			t.Fatalf("Search(%d) = %v, want %v", y, got, present[y])
		}
		want := int64(-1)
		for k := y - 1; k >= 0; k-- {
			if present[k] {
				want = k
				break
			}
		}
		got, ok := tr.Predecessor(y)
		if !ok {
			t.Fatalf("Predecessor(%d) = ⊥ with no concurrent updates", y)
		}
		if got != want {
			t.Fatalf("Predecessor(%d) = %d, want %d", y, got, want)
		}
	}
}

// TestConcurrentStressQuiescentExactness hammers the trie from several
// goroutines, then checks the quiescent state: the surviving set equals the
// union of per-key last operations, bits are consistent and predecessor
// queries are exact. Run with -race in CI.
func TestConcurrentStressQuiescentExactness(t *testing.T) {
	const (
		u          = 128
		goroutines = 8
		opsPerG    = 2000
	)
	tr := newTrie(t, u)

	// Each goroutine owns a disjoint key range so the final state is
	// deterministic per goroutine (last op per key wins within an owner).
	var wg sync.WaitGroup
	finals := make([]map[int64]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id + 42)))
			lo := int64(id) * (u / goroutines)
			hi := lo + (u / goroutines)
			final := map[int64]bool{}
			for i := 0; i < opsPerG; i++ {
				k := lo + rng.Int63n(hi-lo)
				switch rng.Intn(4) {
				case 0, 1:
					tr.Insert(k)
					final[k] = true
				case 2:
					tr.Delete(k)
					delete(final, k)
				case 3:
					// Concurrent relaxed predecessor: only sanity checks
					// are valid mid-flight.
					y := lo + rng.Int63n(hi-lo)
					if got, ok := tr.Predecessor(y); ok && got >= y {
						t.Errorf("Predecessor(%d) = %d ≥ y", y, got)
						return
					}
				}
			}
			finals[id] = final
		}(g)
	}
	wg.Wait()

	present := map[int64]bool{}
	for _, final := range finals {
		for k := range final {
			present[k] = true
		}
	}
	checkQuiescent(t, tr, present)
}

// TestRelaxedQuiescentNeverBottom (experiment C6 correctness side): after
// updates stop, RelaxedPredecessor never returns ⊥, for many random states.
func TestRelaxedQuiescentNeverBottom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		tr := newTrie(t, 64)
		present := map[int64]bool{}
		for i := 0; i < 100; i++ {
			k := rng.Int63n(64)
			if rng.Intn(2) == 0 {
				tr.Insert(k)
				present[k] = true
			} else {
				tr.Delete(k)
				delete(present, k)
			}
		}
		checkQuiescent(t, tr, present)
	}
}

// TestConcurrentInsertersSameKey: exactly one S-modifying insert wins; the
// key ends present with consistent bits.
func TestConcurrentInsertersSameKey(t *testing.T) {
	tr := newTrie(t, 32)
	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr.Insert(17)
		}()
	}
	close(start)
	wg.Wait()
	if !tr.Search(17) {
		t.Fatal("key missing after concurrent inserts")
	}
	checkQuiescent(t, tr, map[int64]bool{17: true})
}

// TestInsertDeleteChurnSameKey: alternating concurrent insert/delete pairs
// leave the structure consistent whatever the winner order was.
func TestInsertDeleteChurnSameKey(t *testing.T) {
	tr := newTrie(t, 16)
	const rounds = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tr.Insert(9)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tr.Delete(9)
		}
	}()
	wg.Wait()
	// Quiesce to a known state and verify exactness both ways.
	tr.Insert(9)
	checkQuiescent(t, tr, map[int64]bool{9: true})
	tr.Delete(9)
	checkQuiescent(t, tr, map[int64]bool{})
}

// TestBottomOnlyUnderContention: a ⊥ answer must coincide with concurrent
// updates; we assert the weaker, checkable direction — with updates running
// we *may* see ⊥, after they stop we must not. The update goroutine churns
// one subtree while predecessors query above it.
func TestBottomOnlyUnderContention(t *testing.T) {
	tr := newTrie(t, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Insert(10)
				tr.Delete(10)
			}
		}
	}()
	sawAnswer := false
	for i := 0; i < 5000; i++ {
		if _, ok := tr.Predecessor(60); ok {
			sawAnswer = true
		}
	}
	close(stop)
	wg.Wait()
	if !sawAnswer {
		t.Error("predecessor never completed during contention (lock-freedom smell)")
	}
	checkQuiescentState := tr.Search(10)
	want := map[int64]bool{}
	if checkQuiescentState {
		want[10] = true
	}
	checkQuiescent(t, tr, want)
}

// TestRemoveUntouchedKeyAllocatesNothing: deleting a key no operation ever
// touched reads latest[x] as nil, the initial dummy, and returns without
// materializing a dummy DEL node.
func TestRemoveUntouchedKeyAllocatesNothing(t *testing.T) {
	tr := newTrie(t, 1<<12)
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
}
