package sharded_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sharded"
)

// TestCombiningQuiescentState drives disjoint-range goroutines through the
// combining trie at several shard counts and verifies the exact quiescent
// state plus clean occupancy counters.
func TestCombiningQuiescentState(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		k := k
		t.Run(shardLabel(k), func(t *testing.T) {
			const u = int64(1 << 10)
			tr, err := sharded.NewCombining(u, k)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Combining() {
				t.Fatal("Combining() = false")
			}
			const goroutines = 8
			width := u / goroutines
			var wg sync.WaitGroup
			finals := make([]map[int64]bool, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)*7 + 3))
					lo := int64(id) * width
					final := map[int64]bool{}
					for i := 0; i < 400; i++ {
						x := lo + rng.Int63n(width)
						switch rng.Intn(5) {
						case 0, 1:
							tr.Insert(x)
							final[x] = true
						case 2:
							tr.Delete(x)
							delete(final, x)
						case 3:
							tr.Search(x)
						case 4:
							if p := tr.Predecessor(x); p >= x {
								t.Errorf("Predecessor(%d) = %d", x, p)
								return
							}
						}
					}
					finals[id] = final
				}(g)
			}
			wg.Wait()
			present := map[int64]bool{}
			var n int64
			for _, final := range finals {
				for x := range final {
					present[x] = true
					n++
				}
			}
			for x := int64(0); x < u; x++ {
				if got := tr.Search(x); got != present[x] {
					t.Fatalf("quiescent Search(%d) = %v, want %v", x, got, present[x])
				}
			}
			if got := tr.Len(); got != n {
				t.Fatalf("quiescent Len = %d, want %d", got, n)
			}
			rounds, batched, direct, maxBatch := tr.CombineStats()
			t.Logf("k=%d rounds=%d batched=%d direct=%d max=%d", k, rounds, batched, direct, maxBatch)
		})
	}
}

func shardLabel(k int) string {
	switch k {
	case 1:
		return "shards=1"
	case 4:
		return "shards=4"
	default:
		return "shards=16"
	}
}

// TestShardedApplyBatch checks the global-key split, rebase, counter
// discipline and Won flags across shard boundaries.
func TestShardedApplyBatch(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		tr, err := sharded.New(64, k)
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(10)
		ops := []core.BatchOp{
			{Key: 3}, {Key: 10}, {Key: 17, Del: true}, {Key: 33}, {Key: 60},
		}
		tr.ApplyBatch(ops)
		wantWon := []bool{true, false, false, true, true}
		for i, w := range wantWon {
			if ops[i].Won != w {
				t.Fatalf("k=%d: ops[%d].Won = %v, want %v", k, i, ops[i].Won, w)
			}
		}
		for _, x := range []int64{3, 10, 33, 60} {
			if !tr.Search(x) {
				t.Fatalf("k=%d: Search(%d) = false after batch", k, x)
			}
		}
		if got := tr.Len(); got != 4 {
			t.Fatalf("k=%d: Len = %d, want 4", k, got)
		}
		// Batch deletes spanning shards.
		ops = []core.BatchOp{{Key: 3, Del: true}, {Key: 33, Del: true}}
		tr.ApplyBatch(ops)
		if !ops[0].Won || !ops[1].Won {
			t.Fatalf("k=%d: delete batch Won = %v %v", k, ops[0].Won, ops[1].Won)
		}
		if got := tr.Len(); got != 2 {
			t.Fatalf("k=%d: Len = %d after deletes, want 2", k, got)
		}
	}
}

// TestShardedSuccessor checks the stitched successor at several shard
// geometries, quiescently, against a reference scan.
func TestShardedSuccessor(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		const u = int64(64)
		tr, err := sharded.New(u, k)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[int64]bool{}
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 200; i++ {
			x := rng.Int63n(u)
			if rng.Intn(3) == 0 {
				tr.Delete(x)
				delete(ref, x)
			} else {
				tr.Insert(x)
				ref[x] = true
			}
			if i%20 != 19 {
				continue
			}
			for y := int64(0); y < u; y++ {
				want := int64(-1)
				for c := y + 1; c < u; c++ {
					if ref[c] {
						want = c
						break
					}
				}
				if got := tr.Successor(y); got != want {
					t.Fatalf("k=%d: Successor(%d) = %d, want %d", k, y, got, want)
				}
			}
		}
	}
}
