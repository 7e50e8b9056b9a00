package sharded_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sharded"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		u  int64
		k  int
		ok bool
	}{
		{64, 1, true},
		{64, 4, true},
		{64, 32, true},
		{64, 64, false}, // width 1 < 2
		{64, 3, false},  // not a power of two
		{64, 0, false},  // below 1
		{64, -4, false}, // negative
		{1, 4, false},   // universe too small
		{1000, 4, true}, // padded to 1024, width 256
		{4, 2, true},    // minimal width
		{64, sharded.MaxShards * 2, false},
	}
	for _, c := range cases {
		_, err := sharded.New(c.u, c.k)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d) error = %v, want ok=%v", c.u, c.k, err, c.ok)
		}
	}
	tr, err := sharded.New(1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.U() != 1024 || tr.Shards() != 4 || tr.ShardWidth() != 256 {
		t.Errorf("geometry = (%d, %d, %d), want (1024, 4, 256)", tr.U(), tr.Shards(), tr.ShardWidth())
	}
}

// TestShardBoundaries drives keys exactly on shard boundaries: the first
// and last key of every shard, and predecessor queries landing on them from
// both sides, across empty interior shards.
func TestShardBoundaries(t *testing.T) {
	const u, k = 64, 4 // width 16: boundaries at 16, 32, 48
	tr, err := sharded.New(u, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []int64{0, 15, 16, 31, 32, 47, 48, 63} {
		tr.Insert(key)
		if !tr.Search(key) {
			t.Fatalf("Search(%d) = false after insert", key)
		}
	}
	preds := map[int64]int64{
		0: -1, 1: 0, 15: 0, 16: 15, 17: 16, 31: 16, 32: 31,
		33: 32, 47: 32, 48: 47, 49: 48, 63: 48,
	}
	for y, want := range preds {
		if got := tr.Predecessor(y); got != want {
			t.Errorf("Predecessor(%d) = %d, want %d", y, got, want)
		}
	}
	// Hollow out the two middle shards: cross-shard predecessor must skip
	// them and land in shard 0.
	for _, key := range []int64{16, 31, 32, 47} {
		tr.Delete(key)
	}
	for _, y := range []int64{17, 32, 48} {
		if got := tr.Predecessor(y); got != 15 {
			t.Errorf("Predecessor(%d) = %d after hollowing, want 15", y, got)
		}
	}
	if got := tr.Predecessor(63); got != 48 {
		t.Errorf("Predecessor(63) = %d, want 48", got)
	}
	// Drain everything: predecessor from the very top must report -1.
	for _, key := range []int64{0, 15, 48, 63} {
		tr.Delete(key)
	}
	if got := tr.Predecessor(63); got != -1 {
		t.Errorf("Predecessor(63) on empty = %d, want -1", got)
	}
}

// TestOccupancySummary: the summed counters are exact at quiescence,
// including after double inserts/deletes that lose the idempotence race
// sequentially, and an emptied shard is skipped by the cross-shard scan.
func TestOccupancySummary(t *testing.T) {
	tr, err := sharded.New(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(5)
	tr.Insert(5) // idempotent: must not double-count
	tr.Insert(20)
	tr.Delete(33) // absent: must not under-count
	tr.Insert(63)
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	tr.Delete(5)
	tr.Delete(5)
	if got := tr.Len(); got != 2 {
		t.Errorf("Len after double delete = %d, want 2", got)
	}
	// Shards of width 16: {}, {20}, {}, {63}.
	if got := tr.Predecessor(16); got != -1 {
		t.Errorf("Predecessor(16) = %d, want -1 (shard 0 emptied)", got)
	}
	if got := tr.Predecessor(63); got != 20 {
		t.Errorf("Predecessor(63) = %d, want 20 (shard 2 empty)", got)
	}
}

// TestOccupancyQuiescentAfterChurn hammers every shard from 8 goroutines
// and checks the counters settle to the exact cardinality.
func TestOccupancyQuiescentAfterChurn(t *testing.T) {
	const u, k = 256, 16
	tr, err := sharded.New(u, k)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				key := rng.Int63n(u)
				if rng.Intn(2) == 0 {
					tr.Insert(key)
				} else {
					tr.Delete(key)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	var total int64
	for key := int64(0); key < u; key++ {
		if tr.Search(key) {
			total++
		}
	}
	if got := tr.Len(); got != total {
		t.Errorf("Len = %d, want %d", got, total)
	}
}

// TestCrossShardPredecessorUnderChurn keeps two stable sentinel keys in the
// bottom shard while upper shards churn; cross-shard fallbacks must never
// miss the sentinels nor fabricate keys.
func TestCrossShardPredecessorUnderChurn(t *testing.T) {
	const u, k = 256, 16 // width 16
	tr, err := sharded.New(u, k)
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(3)
	tr.Insert(7)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					key := 64 + rng.Int63n(128) // shards 4–11
					tr.Insert(key)
					tr.Delete(key)
				}
			}
		}(int64(g) + 1)
	}
	for i := 0; i < 4000; i++ {
		// Query from shard 3 (empty, between sentinels and churn band):
		// the answer must be exactly 7 whatever the churners do.
		if got := tr.Predecessor(48); got != 7 {
			t.Fatalf("Predecessor(48) = %d, want 7", got)
		}
		// Query from the top: any churn-band key is legal, but a miss must
		// fall through to the sentinel 7, never to 3 or -1.
		got := tr.Predecessor(255)
		if got != 7 && !(got >= 64 && got < 192) {
			t.Fatalf("Predecessor(255) = %d, want 7 or a churn-band key", got)
		}
	}
	close(stop)
	wg.Wait()
}
