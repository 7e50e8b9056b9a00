package combine

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSortDedupKeepsLastPerKey(t *testing.T) {
	ops := []Op{
		{Key: 9}, {Key: 3, Del: true}, {Key: 9, Del: true},
		{Key: 1}, {Key: 3}, {Key: 9},
	}
	got := SortDedup(ops)
	want := []Op{{Key: 1}, {Key: 3}, {Key: 9}}
	if len(got) != len(want) {
		t.Fatalf("SortDedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Del != want[i].Del {
			t.Fatalf("SortDedup = %v, want %v", got, want)
		}
	}
}

func TestSortDedupEmptyAndSingle(t *testing.T) {
	if got := SortDedup(nil); len(got) != 0 {
		t.Fatalf("SortDedup(nil) = %v", got)
	}
	got := SortDedup([]Op{{Key: 5, Del: true}})
	if len(got) != 1 || got[0].Key != 5 || !got[0].Del {
		t.Fatalf("SortDedup single = %v", got)
	}
}

// countingBackend applies ops to a mutex-guarded reference map and counts
// batch vs direct applications — the combiner's contract does not depend
// on the backend being a trie.
type countingBackend struct {
	mu      sync.Mutex
	state   map[int64]bool
	applied int64 // total ops via either path
	batches int64
}

func (b *countingBackend) apply(ops []Op) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batches++
	for i := range ops {
		b.applied++
		if ops[i].Del {
			ops[i].Won = b.state[ops[i].Key]
			delete(b.state, ops[i].Key)
		} else {
			ops[i].Won = !b.state[ops[i].Key]
			b.state[ops[i].Key] = true
		}
	}
}

func (b *countingBackend) applyOne(op Op) { b.apply([]Op{op}) }

func TestSubmitAppliesEveryOp(t *testing.T) {
	b := &countingBackend{state: map[int64]bool{}}
	c := New(16, b.apply, b.applyOne)
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < per; i++ {
				// Distinct key space per goroutine so the final state is
				// deterministic regardless of round membership.
				k := int64(id*1000) + rng.Int63n(100)
				c.Submit(Op{Key: k, Del: i%3 == 2})
			}
		}(g)
	}
	wg.Wait()
	// Dedup can merge same-key ops from ONE round into one application,
	// so applied ≤ submitted; every submitted op must still have returned,
	// and all slots must be free again.
	if b.applied > goroutines*per {
		t.Fatalf("applied %d ops, submitted only %d", b.applied, goroutines*per)
	}
	for i := range c.slots {
		if st := c.slots[i].state.Load(); st != slotEmpty {
			t.Fatalf("slot %d left in state %d", i, st)
		}
	}
	cs := c.Counters()
	if cs.Batched+cs.Direct != int64(goroutines*per) {
		t.Fatalf("batched %d + direct %d ≠ submitted %d", cs.Batched, cs.Direct, goroutines*per)
	}
	t.Logf("rounds=%d batched=%d direct=%d max=%d", cs.Rounds, cs.Batched, cs.Direct, cs.MaxBatch)
}

// TestCombinerStallHandoff parks the elected combiner mid-round (after it
// has taken slots, before it applies) and checks that (a) ops not yet
// taken escape via retraction and complete, (b) taken ops complete once
// the combiner resumes, (c) nothing is lost or double-applied. Run under
// -race this is the combiner-descheduled-mid-batch scenario of the
// combining design.
func TestCombinerStallHandoff(t *testing.T) {
	var stalls atomic.Int64
	testHookMidRound = func() {
		if stalls.Add(1)%7 == 0 {
			time.Sleep(2 * time.Millisecond) // well past everyone's spin budget
		} else {
			runtime.Gosched()
		}
	}
	defer func() { testHookMidRound = nil }()

	tr, err := core.New(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	c := New(8, func(ops []Op) { tr.ApplyBatch(ops) }, func(op Op) {
		if op.Del {
			tr.Delete(op.Key)
		} else {
			tr.Insert(op.Key)
		}
	})
	const goroutines, per = 8, 300
	var wg sync.WaitGroup
	finals := make([]map[int64]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 99))
			lo := int64(id) * 512
			final := map[int64]bool{}
			for i := 0; i < per; i++ {
				k := lo + rng.Int63n(512)
				if rng.Intn(2) == 0 {
					c.Submit(Op{Key: k})
					final[k] = true
				} else {
					c.Submit(Op{Key: k, Del: true})
					delete(final, k)
				}
			}
			finals[id] = final
		}(g)
	}
	wg.Wait()
	for id, final := range finals {
		lo := int64(id) * 512
		for k := lo; k < lo+512; k++ {
			if got := tr.Search(k); got != final[k] {
				t.Fatalf("quiescent Search(%d) = %v, want %v", k, got, final[k])
			}
		}
	}
	if tr.AnnouncedUpdates() != 0 {
		t.Fatalf("U-ALL holds %d cells at quiescence", tr.AnnouncedUpdates())
	}
}

// TestSubmitFullSlotsFallsBack saturates a tiny combiner from inside the
// apply callback's stall and checks overflowing submissions take the
// direct path rather than waiting.
func TestSubmitFullSlotsFallsBack(t *testing.T) {
	b := &countingBackend{state: map[int64]bool{}}
	c := New(0, b.apply, b.applyOne) // default slots; we bypass claim below
	// Occupy every slot artificially.
	for i := range c.slots {
		c.slots[i].state.Store(slotWriting)
	}
	done := make(chan struct{})
	go func() {
		c.Submit(Op{Key: 42})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked on a saturated combiner")
	}
	if !b.state[42] {
		t.Fatal("overflow op was not applied")
	}
	if direct := c.Counters().Direct; direct != 1 {
		t.Fatalf("direct = %d, want 1", direct)
	}
	for i := range c.slots {
		c.slots[i].state.Store(slotEmpty)
	}
}
