package lockfreetrie_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	lockfreetrie "repro"
)

func TestNewValidation(t *testing.T) {
	if _, err := lockfreetrie.New(1); err == nil {
		t.Error("New(1) should fail")
	}
	tr, err := lockfreetrie.New(1000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Universe() != 1024 {
		t.Errorf("Universe = %d, want 1024", tr.Universe())
	}
}

func TestOptionsValidation(t *testing.T) {
	tr, err := lockfreetrie.New(64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() != 1 {
		t.Errorf("default Shards = %d, want 1", tr.Shards())
	}
	tr, err = lockfreetrie.New(64, lockfreetrie.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() != 4 {
		t.Errorf("Shards = %d, want 4", tr.Shards())
	}
	if tr.Universe() != 64 {
		t.Errorf("Universe = %d, want 64", tr.Universe())
	}
	if _, err := lockfreetrie.New(64, lockfreetrie.WithShards(0)); err == nil {
		t.Error("WithShards(0) accepted")
	}
	if _, err := lockfreetrie.New(64, lockfreetrie.WithShards(3)); err == nil {
		t.Error("WithShards(3) accepted (not a power of two)")
	}
	if _, err := lockfreetrie.New(4, lockfreetrie.WithShards(4)); err == nil {
		t.Error("WithShards(4) over universe 4 accepted (width < 2)")
	}
}

// TestShardedFacadeLifecycle re-runs the basic lifecycle through the
// sharded backend, exercising cross-shard Floor/Max/Predecessor.
func TestShardedFacadeLifecycle(t *testing.T) {
	tr, err := lockfreetrie.New(64, lockfreetrie.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{10, 20, 30} {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := tr.Contains(20); !got {
		t.Error("Contains(20) = false")
	}
	if got, _ := tr.Predecessor(25); got != 20 {
		t.Errorf("Predecessor(25) = %d, want 20", got)
	}
	if got, _ := tr.Floor(19); got != 10 {
		t.Errorf("Floor(19) = %d, want 10", got)
	}
	if got, _ := tr.Max(); got != 30 {
		t.Errorf("Max = %d, want 30", got)
	}
	if err := tr.Insert(64); err == nil {
		t.Error("Insert(64) should fail")
	}
	tr.Delete(30)
	tr.Delete(20)
	tr.Delete(10)
	if got, _ := tr.Max(); got != -1 {
		t.Errorf("Max on empty = %d, want -1", got)
	}
}

func TestKeyRangeErrors(t *testing.T) {
	tr, err := lockfreetrie.New(16)
	if err != nil {
		t.Fatal(err)
	}
	var kre *lockfreetrie.KeyRangeError
	if err := tr.Insert(16); !errors.As(err, &kre) {
		t.Errorf("Insert(16) error = %v, want KeyRangeError", err)
	}
	if kre.Key != 16 || kre.Universe != 16 {
		t.Errorf("KeyRangeError fields = %+v", kre)
	}
	if err := tr.Insert(-1); err == nil {
		t.Error("Insert(-1) should fail")
	}
	if err := tr.Delete(99); err == nil {
		t.Error("Delete(99) should fail")
	}
	if _, err := tr.Contains(-2); err == nil {
		t.Error("Contains(-2) should fail")
	}
	if _, err := tr.Predecessor(16); err == nil {
		t.Error("Predecessor(16) should fail")
	}
	if kre.Error() == "" {
		t.Error("empty error string")
	}
}

func TestBasicLifecycle(t *testing.T) {
	tr, err := lockfreetrie.New(64)
	if err != nil {
		t.Fatal(err)
	}
	mustInsert := func(k int64) {
		t.Helper()
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(10)
	mustInsert(20)
	mustInsert(30)
	if got, _ := tr.Contains(20); !got {
		t.Error("Contains(20) = false")
	}
	if got, _ := tr.Predecessor(25); got != 20 {
		t.Errorf("Predecessor(25) = %d, want 20", got)
	}
	if got, _ := tr.Floor(20); got != 20 {
		t.Errorf("Floor(20) = %d, want 20", got)
	}
	if got, _ := tr.Floor(19); got != 10 {
		t.Errorf("Floor(19) = %d, want 10", got)
	}
	if got, _ := tr.Max(); got != 30 {
		t.Errorf("Max = %d, want 30", got)
	}
	if err := tr.Delete(30); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Max(); got != 20 {
		t.Errorf("Max after delete = %d, want 20", got)
	}
	tr.Delete(10)
	tr.Delete(20)
	if got, _ := tr.Max(); got != -1 {
		t.Errorf("Max on empty = %d, want -1", got)
	}
}

func TestConcurrentFacade(t *testing.T) {
	tr, err := lockfreetrie.New(128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 32; i++ {
				k := base*32 + i
				if err := tr.Insert(k); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Predecessor(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for k := int64(0); k < 128; k++ {
		if got, _ := tr.Contains(k); !got {
			t.Fatalf("key %d missing", k)
		}
	}
}

func TestRelaxedFacade(t *testing.T) {
	tr, err := lockfreetrie.NewRelaxed(32)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Universe() != 32 {
		t.Errorf("Universe = %d, want 32", tr.Universe())
	}
	if err := tr.Insert(5); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Contains(5); !got {
		t.Error("Contains(5) = false")
	}
	pred, ok, err := tr.Predecessor(10)
	if err != nil || !ok || pred != 5 {
		t.Errorf("Predecessor(10) = (%d,%v,%v), want (5,true,nil)", pred, ok, err)
	}
	if err := tr.Delete(5); err != nil {
		t.Fatal(err)
	}
	pred, ok, _ = tr.Predecessor(10)
	if !ok || pred != -1 {
		t.Errorf("Predecessor(10) = (%d,%v), want (-1,true)", pred, ok)
	}
	if _, _, err := tr.Predecessor(99); err == nil {
		t.Error("Predecessor(99) should fail")
	}
	if err := tr.Insert(-1); err == nil {
		t.Error("Insert(-1) should fail")
	}
	if _, err := tr.Contains(64); err == nil {
		t.Error("Contains(64) should fail")
	}
	if err := tr.Delete(64); err == nil {
		t.Error("Delete(64) should fail")
	}
	if _, err := lockfreetrie.NewRelaxed(0); err == nil {
		t.Error("NewRelaxed(0) should fail")
	}
}

// TestLenFacade covers the promoted occupancy summary on the linearizable
// trie: exact at quiescence at every shard count, idempotent under
// duplicate updates.
func TestLenFacade(t *testing.T) {
	for _, shards := range []int{1, 4} {
		tr, err := lockfreetrie.New(256, lockfreetrie.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Len(); got != 0 {
			t.Fatalf("shards=%d: empty Len = %d", shards, got)
		}
		for k := int64(0); k < 100; k += 2 {
			tr.Insert(k)
		}
		tr.Insert(4) // duplicate: must not double-count
		if got := tr.Len(); got != 50 {
			t.Fatalf("shards=%d: Len = %d, want 50", shards, got)
		}
		for k := int64(0); k < 40; k += 2 {
			tr.Delete(k)
		}
		tr.Delete(3) // absent: no-op
		if got := tr.Len(); got != 30 {
			t.Fatalf("shards=%d: Len after deletes = %d, want 30", shards, got)
		}
	}
}

// TestLenFacadeQuiescentAfterConcurrency checks the weak-consistency
// contract's strong half: once all updates have returned, Len is exact.
func TestLenFacadeQuiescentAfterConcurrency(t *testing.T) {
	tr, err := lockfreetrie.New(1024, lockfreetrie.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 2000; i++ {
				k := (i*7 + int64(w)*13) % 1024
				if i%3 == 0 {
					tr.Delete(k)
				} else {
					tr.Insert(k)
				}
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for k := int64(0); k < 1024; k++ {
		if ok, _ := tr.Contains(k); ok {
			want++
		}
	}
	if got := tr.Len(); got != want {
		t.Fatalf("quiescent Len = %d, want %d", got, want)
	}
}

// TestRelaxedLenFacade mirrors TestLenFacade for the relaxed trie.
func TestRelaxedLenFacade(t *testing.T) {
	tr, err := lockfreetrie.NewRelaxed(256)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 60; k++ {
		tr.Insert(k)
	}
	tr.Insert(10)
	for k := int64(0); k < 20; k++ {
		tr.Delete(k)
	}
	if got := tr.Len(); got != 40 {
		t.Fatalf("relaxed Len = %d, want 40", got)
	}
}

// TestNewRelaxedRejectsOptions: the relaxed trie is one unsharded §4 trie,
// so every option that would shard, combine, place or log it is an error
// naming the option, while the options that still apply are accepted.
func TestNewRelaxedRejectsOptions(t *testing.T) {
	cases := []struct {
		opt  lockfreetrie.Option
		want string
	}{
		{lockfreetrie.WithShards(4), "WithShards(4)"},
		{lockfreetrie.WithCombining(), "WithCombining"},
		{lockfreetrie.WithAdaptiveCombining(), "WithAdaptiveCombining"},
		{lockfreetrie.WithPlacementHint([]int{0}), "WithPlacementHint"},
		{lockfreetrie.WithDurability(t.TempDir()), "WithDurability"},
	}
	for _, tc := range cases {
		_, err := lockfreetrie.NewRelaxed(1<<10, tc.opt)
		if err == nil {
			t.Fatalf("NewRelaxed accepted %s", tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "NewRelaxed") {
			t.Fatalf("error %q does not name %s and NewRelaxed", err, tc.want)
		}
	}
	tr, err := lockfreetrie.NewRelaxed(1<<10, lockfreetrie.WithShards(1),
		lockfreetrie.WithoutCompressedDescents(), lockfreetrie.WithLatencySampling(8))
	if err != nil {
		t.Fatalf("NewRelaxed rejected the options that apply: %v", err)
	}
	tr.Insert(100)
	if p, ok, _ := tr.Predecessor(500); !ok || p != 100 {
		t.Fatalf("Predecessor(500) = (%d,%v), want (100,true)", p, ok)
	}
}
