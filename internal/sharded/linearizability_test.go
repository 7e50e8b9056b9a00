package sharded_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/combine"
	"repro/internal/lincheck"
	"repro/internal/sharded"
)

// trieMaker builds the trie variant a lincheck run records against.
type trieMaker func(u int64, k int) (*sharded.Trie, error)

// runRecorded executes a concurrent workload against a fresh sharded trie
// and checks the recorded history for linearizability (the same harness as
// internal/core's suite, aimed at the cross-shard stitch). u=64 with k=16
// leaves shards 4 keys wide, so most predecessor queries cross shards.
func runRecorded(t *testing.T, u int64, k, workers int, mk trieMaker, script func(id int, rng *rand.Rand, do opRunner)) {
	t.Helper()
	tr, err := mk(u, k)
	if err != nil {
		t.Fatal(err)
	}
	rec := lincheck.NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 13))
			script(id, rng, opRunner{tr: tr, rec: rec})
		}(w)
	}
	wg.Wait()
	ok, msg, err := lincheck.CheckOrExplain(rec.History())
	if err != nil {
		t.Fatalf("checker error: %v", err)
	}
	if !ok {
		t.Fatalf("shards=%d: %s", k, msg)
	}
}

// opRunner wraps a sharded trie with history recording.
type opRunner struct {
	tr  *sharded.Trie
	rec *lincheck.Recorder
}

func (r opRunner) insert(k int64) {
	inv := r.rec.Begin()
	r.tr.Insert(k)
	r.rec.End(lincheck.OpInsert, k, 0, inv)
}

func (r opRunner) delete(k int64) {
	inv := r.rec.Begin()
	r.tr.Delete(k)
	r.rec.End(lincheck.OpDelete, k, 0, inv)
}

func (r opRunner) search(k int64) {
	inv := r.rec.Begin()
	got := r.tr.Search(k)
	res := int64(0)
	if got {
		res = 1
	}
	r.rec.End(lincheck.OpSearch, k, res, inv)
}

func (r opRunner) predecessor(y int64) {
	inv := r.rec.Begin()
	got := r.tr.Predecessor(y)
	r.rec.End(lincheck.OpPredecessor, y, got, inv)
}

func rounds(t *testing.T, n int) int {
	if testing.Short() {
		return n / 5
	}
	return n
}

func forEachShardCount(t *testing.T, name string, fn func(t *testing.T, k int, mk trieMaker)) {
	// The checker demands strict linearizability, but Predecessor's
	// cross-shard fallback documents a weakly-consistent answer after
	// ScanRetries failed validations — reachable here only if the OS parks
	// a writer mid-update across the whole spin. Raise the budget so a
	// parked writer always resumes first; the histories themselves stay
	// tiny, so version-change retries cannot exhaust it.
	old := sharded.ScanRetries
	sharded.ScanRetries = 1 << 20
	t.Cleanup(func() { sharded.ScanRetries = old })
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("%s/shards=%d", name, k), func(t *testing.T) {
			fn(t, k, sharded.New)
		})
		// The adaptive variant records the same histories while per-shard
		// modes flip underneath: organically (aggressive controller,
		// combining at start) and forcibly inside every combining round
		// via the mid-round hook — the combiner-drain handoff on disable
		// included, since a forced off-flip mid-round leaves the round to
		// finish while new ops go direct.
		t.Run(fmt.Sprintf("%s/shards=%d/adaptive", name, k), func(t *testing.T) {
			var cur atomic.Pointer[sharded.Trie]
			var n atomic.Int64
			combine.SetTestHookMidRound(func() {
				if tr := cur.Load(); tr != nil {
					i := n.Add(1)
					tr.ShardController(int(i) % k).ForceMode(i%3 != 0)
				}
			})
			t.Cleanup(func() { combine.SetTestHookMidRound(nil) })
			fn(t, k, func(u int64, kk int) (*sharded.Trie, error) {
				cfg := aggressiveCfg()
				cfg.StartCombining = true
				tr, err := sharded.NewAdaptive(u, kk, cfg)
				if err != nil {
					return nil, err
				}
				cur.Store(tr)
				return tr, nil
			})
		})
		// The combining variant records the same histories with every
		// round yielding the processor between taking its slots and
		// applying its batch, so peers retract, elect and read against
		// claimed-but-unapplied ops.
		t.Run(fmt.Sprintf("%s/shards=%d/combining", name, k), func(t *testing.T) {
			combine.SetTestHookMidRound(runtime.Gosched)
			t.Cleanup(func() { combine.SetTestHookMidRound(nil) })
			fn(t, k, sharded.NewCombining)
		})
	}
}

// TestShardedLinearizableUniform: random mixed workloads over the whole
// universe — predecessor queries land in arbitrary shards.
func TestShardedLinearizableUniform(t *testing.T) {
	forEachShardCount(t, "uniform", func(t *testing.T, k int, mk trieMaker) {
		for round := 0; round < rounds(t, 200); round++ {
			runRecorded(t, 64, k, 3, mk, func(id int, rng *rand.Rand, do opRunner) {
				for i := 0; i < 6; i++ {
					key := rng.Int63n(64)
					switch rng.Intn(4) {
					case 0:
						do.insert(key)
					case 1:
						do.delete(key)
					case 2:
						do.search(key)
					case 3:
						do.predecessor(key)
					}
				}
			})
		}
	})
}

// TestShardedLinearizableCrossShardStitch: updates racing in the shards a
// fallback scan must cross. With k=16 (width 4), keys 5 and 9 live two and
// three shards below the queries at 30/32, and key 2 is the stable floor
// the scan must never lose.
func TestShardedLinearizableCrossShardStitch(t *testing.T) {
	forEachShardCount(t, "stitch", func(t *testing.T, k int, mk trieMaker) {
		for round := 0; round < rounds(t, 200); round++ {
			runRecorded(t, 64, k, 4, mk, func(id int, rng *rand.Rand, do opRunner) {
				switch id {
				case 0:
					do.insert(2)
					do.insert(5)
					do.delete(5)
				case 1:
					do.insert(9)
					do.delete(9)
					do.predecessor(32)
				case 2:
					do.predecessor(30)
					do.predecessor(30)
				case 3:
					do.search(5)
					do.predecessor(32)
				}
			})
		}
	})
}

// TestShardedLinearizableBoundaryKeys: churn exactly on shard boundaries
// (multiples of the width-4 shards) with queries landing on boundaries, the
// hardest case for the owning-shard/fallback split (local predecessor of a
// boundary key is always the fallback path).
func TestShardedLinearizableBoundaryKeys(t *testing.T) {
	forEachShardCount(t, "boundary", func(t *testing.T, k int, mk trieMaker) {
		for round := 0; round < rounds(t, 200); round++ {
			runRecorded(t, 64, k, 4, mk, func(id int, rng *rand.Rand, do opRunner) {
				switch id {
				case 0:
					do.insert(16)
					do.delete(16)
					do.insert(16)
				case 1:
					do.insert(15)
					do.predecessor(16)
				case 2:
					do.predecessor(17)
					do.delete(15)
					do.predecessor(16)
				case 3:
					do.insert(12)
					do.predecessor(16)
					do.search(16)
				}
			})
		}
	})
}

// TestShardedLinearizableEmptySkip: a scan racing inserts into shards it
// has provably-empty skipped — the count over-approximation plus validation
// must never let a fallback answer miss a key it should have seen.
func TestShardedLinearizableEmptySkip(t *testing.T) {
	forEachShardCount(t, "emptyskip", func(t *testing.T, k int, mk trieMaker) {
		for round := 0; round < rounds(t, 200); round++ {
			runRecorded(t, 64, k, 4, mk, func(id int, rng *rand.Rand, do opRunner) {
				switch id {
				case 0:
					do.insert(1)
					do.predecessor(63)
				case 1:
					do.insert(40) // lands mid-scan in a previously empty shard
					do.delete(40)
				case 2:
					do.insert(22)
					do.delete(22)
					do.predecessor(63)
				case 3:
					do.predecessor(63)
					do.predecessor(41)
				}
			})
		}
	})
}

// TestShardedLinearizableHighContentionOneShard: everyone in one shard —
// sharding must not perturb the single-shard algorithm.
func TestShardedLinearizableHighContentionOneShard(t *testing.T) {
	forEachShardCount(t, "oneshard", func(t *testing.T, k int, mk trieMaker) {
		for round := 0; round < rounds(t, 150); round++ {
			runRecorded(t, 64, k, 4, mk, func(id int, rng *rand.Rand, do opRunner) {
				for i := 0; i < 4; i++ {
					switch rng.Intn(4) {
					case 0:
						do.insert(5)
					case 1:
						do.delete(5)
					case 2:
						do.search(5)
					case 3:
						do.predecessor(7)
					}
				}
			})
		}
	})
}
