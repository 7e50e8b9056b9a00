package versioned_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/settest"
	"repro/internal/versioned"
)

func factory(u int64) (settest.Set, error) { return versioned.New(u) }

func TestSequentialConformance(t *testing.T) { settest.RunSequential(t, factory, 64) }
func TestEdgeCases(t *testing.T)             { settest.RunEdgeCases(t, factory, 32) }
func TestConcurrent(t *testing.T)            { settest.RunConcurrent(t, factory, 256, 8, 1200) }

func TestNewValidation(t *testing.T) {
	if _, err := versioned.New(1); err == nil {
		t.Error("New(1) should fail")
	}
}

// TestSnapshotConsistency: a predecessor query sees one atomic snapshot —
// with keys always inserted in pairs (k, k+1) and deleted in pairs,
// Predecessor(hi) landing on an even key proves a torn read... it must
// always return the odd upper member or -1 when queried above the pair.
func TestSnapshotConsistency(t *testing.T) {
	tr, err := versioned.New(64)
	if err != nil {
		t.Fatal(err)
	}
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
				tr.Insert(11)
				tr.Insert(10)
				tr.Delete(11)
				tr.Delete(10)
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		got := tr.Predecessor(40)
		if got != -1 && got != 10 && got != 11 {
			t.Errorf("Predecessor(40) = %d, want -1/10/11", got)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentSameKey: heavy CAS contention on the root still converges.
func TestConcurrentSameKey(t *testing.T) {
	tr, err := versioned.New(16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if id%2 == 0 {
					tr.Insert(7)
				} else {
					tr.Delete(7)
				}
			}
		}(g)
	}
	wg.Wait()
	tr.Insert(7)
	if !tr.Search(7) {
		t.Fatal("key lost after churn")
	}
	if got := tr.Predecessor(8); got != 7 {
		t.Fatalf("Predecessor(8) = %d, want 7", got)
	}
}

// TestSnapshotImmutable: a captured snapshot keeps its keys (ascending)
// and count while the live trie moves on.
func TestSnapshotImmutable(t *testing.T) {
	tr, err := versioned.New(256)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 7, 64, 200}
	for _, k := range want {
		tr.Insert(k)
	}
	snap := tr.Snapshot()
	// Mutate the live trie after the capture.
	tr.Delete(7)
	tr.Insert(100)
	if got := snap.Count(); got != int64(len(want)) {
		t.Fatalf("Count = %d, want %d", got, len(want))
	}
	var got []int64
	snap.ForEach(func(k int64) { got = append(got, k) })
	if len(got) != len(want) {
		t.Fatalf("ForEach emitted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach emitted %v, want %v (ascending)", got, want)
		}
	}
	// The live trie reflects the post-capture updates.
	if tr.Search(7) || !tr.Search(100) {
		t.Fatal("live trie does not reflect post-snapshot updates")
	}
}

// TestSnapshotEmpty: the zero-state snapshot is empty and walkable.
func TestSnapshotEmpty(t *testing.T) {
	tr, err := versioned.New(16)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap.Count() != 0 {
		t.Fatalf("Count = %d, want 0", snap.Count())
	}
	snap.ForEach(func(k int64) { t.Fatalf("emitted %d from empty snapshot", k) })
}

// TestSnapshotAtomicity: under churn that keeps the set size invariant
// (insert one key, delete it again), every snapshot is one consistent
// version — its count and its walk agree on 64 or 65 keys, and the walk
// is strictly ascending.
func TestSnapshotAtomicity(t *testing.T) {
	tr, err := versioned.New(256)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 64; k++ {
		tr.Insert(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
				k := 64 + rng.Int63n(64)
				tr.Insert(k)
				tr.Delete(k)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 5000; i++ {
		snap := tr.Snapshot()
		n := snap.Count()
		if n < 64 || n > 65 {
			t.Fatalf("Count = %d, want 64 or 65", n)
		}
		var keys []int64
		snap.ForEach(func(k int64) { keys = append(keys, k) })
		if int64(len(keys)) != n {
			t.Fatalf("walk emitted %d keys, snapshot counts %d", len(keys), n)
		}
		for j := 1; j < len(keys); j++ {
			if keys[j] <= keys[j-1] {
				t.Fatalf("snapshot keys not ascending at %d: %v", j, keys[j-1:j+1])
			}
		}
	}
}
