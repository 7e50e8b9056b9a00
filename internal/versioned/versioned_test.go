package versioned_test

import (
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
