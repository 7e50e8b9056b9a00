package lockfreetrie_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lockfreetrie "repro"
)

// TestDurableSnapshotWaitsForApply holds one logged batch between its
// append and its apply while SnapshotWAL starts: the checkpoint must not
// finish until the batch has applied, and recovery from the checkpoint
// alone must include it. The batch spans two WAL stripes and two trie
// shards, so the stripes it releases must be the ones it was logged to,
// not ones recomputed from keys the backend rebased to shard coordinates.
func TestDurableSnapshotWaitsForApply(t *testing.T) {
	dir := t.TempDir()
	opts := []lockfreetrie.Option{lockfreetrie.WithShards(16),
		lockfreetrie.WithDurability(dir, lockfreetrie.WithWALShards(4), lockfreetrie.WithSnapshotBytes(-1))}
	tr, err := lockfreetrie.New(1<<12, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1); err != nil {
		t.Fatal(err)
	}
	logged, release := make(chan struct{}), make(chan struct{})
	lockfreetrie.SetTestHookLogged(func() {
		close(logged)
		<-release
	})
	applied := make(chan []error, 1)
	go func() {
		applied <- tr.ApplyBatch([]lockfreetrie.Op{
			{Kind: lockfreetrie.OpInsert, Key: 2},
			{Kind: lockfreetrie.OpInsert, Key: 3000},
		})
	}()
	<-logged
	lockfreetrie.SetTestHookLogged(nil)
	snapped := make(chan error, 1)
	go func() { snapped <- tr.SnapshotWAL() }()
	select {
	case err := <-snapped:
		close(release)
		t.Fatalf("SnapshotWAL returned (err %v) while a logged batch was unapplied", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if errs := <-applied; errs != nil {
		t.Fatal(errs)
	}
	if err := <-snapped; err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := lockfreetrie.New(1<<12, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if rs := tr2.RecoveryStats(); rs.SnapshotKeys != 3 || rs.ReplayedOps != 0 {
		t.Fatalf("RecoveryStats = %+v, want all 3 keys from the checkpoint alone", rs)
	}
	for _, k := range []int64{1, 2, 3000} {
		if ok, _ := tr2.Contains(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestDurableCheckpointStress: four writers on disjoint keys (so log
// order is apply order per key) insert, delete and batch while a
// SnapshotWAL loop and 2 KiB auto-snapshots checkpoint the live trie; the
// reopened set must equal the live one. Shard and stripe counts vary so a
// stripe's walk covers exactly one shard, crosses several, or covers
// part of one.
func TestDurableCheckpointStress(t *testing.T) {
	const u = 1 << 12
	rounds := 5000
	if testing.Short() {
		rounds = 500
	}
	for _, g := range []struct {
		k, stripes int
		combining  bool
	}{{1, 1, false}, {16, 4, false}, {4, 16, true}} {
		t.Run(fmt.Sprintf("k%d_stripes%d", g.k, g.stripes), func(t *testing.T) {
			dir := t.TempDir()
			opts := []lockfreetrie.Option{lockfreetrie.WithShards(g.k),
				lockfreetrie.WithDurability(dir, lockfreetrie.WithWALShards(g.stripes),
					lockfreetrie.WithSyncEvery(64), lockfreetrie.WithSnapshotBytes(2048))}
			if g.combining {
				opts = append(opts, lockfreetrie.WithCombining())
			}
			tr, err := lockfreetrie.New(u, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var writers sync.WaitGroup
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func(w int64) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(w))
					key := func() int64 { return rng.Int63n(u/4)*4 + w }
					for i := 0; i < rounds; i++ {
						switch rng.Intn(3) {
						case 0:
							tr.Insert(key())
						case 1:
							tr.Delete(key())
						default:
							ops := make([]lockfreetrie.Op, 1+rng.Intn(16))
							for j := range ops {
								ops[j] = lockfreetrie.Op{Kind: lockfreetrie.OpInsert + lockfreetrie.OpKind(rng.Intn(2)), Key: key()}
							}
							if errs := tr.ApplyBatch(ops); errs != nil {
								t.Error(errs)
								return
							}
						}
					}
				}(int64(w))
			}
			var stop atomic.Bool
			snapErr := make(chan error, 1)
			go func() {
				var err error
				for !stop.Load() && err == nil {
					err = tr.SnapshotWAL()
				}
				snapErr <- err
			}()
			writers.Wait()
			stop.Store(true)
			if err := <-snapErr; err != nil {
				t.Fatal(err)
			}
			live, err := tr.Keys(0, u-1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if n := tr.MetricsSnapshot().Counters["wal.snapshots"]; n == 0 {
				t.Fatal("no checkpoint was taken")
			}
			tr2, err := lockfreetrie.New(u, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			got, err := tr2.Keys(0, u-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(live) {
				t.Fatalf("reopened %d keys, live set had %d", len(got), len(live))
			}
			for i := range live {
				if got[i] != live[i] {
					t.Fatalf("reopened set differs from the live one at %d: %d vs %d", i, got[i], live[i])
				}
			}
			if rs := tr2.RecoveryStats(); rs.SnapshotKeys == 0 {
				t.Fatalf("RecoveryStats = %+v: recovery loaded no checkpoint", rs)
			}
		})
	}
}

// TestFirstCheckpointSizedFromLiveSet: the first checkpoint after
// filling an empty durable trie sizes its buffer from the shards'
// occupancy counts, so it allocates about the snapshot file's size once
// rather than growing a buffer from nothing by append. One stripe over
// four shards sums whole shards' counts; four stripes over one shard
// take a share of its count.
func TestFirstCheckpointSizedFromLiveSet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: pools drop entries under -race")
	}
	const u, n = 1 << 20, 1 << 19
	for _, g := range []struct{ k, stripes int }{{4, 1}, {1, 4}} {
		t.Run(fmt.Sprintf("k%d_stripes%d", g.k, g.stripes), func(t *testing.T) {
			dir := t.TempDir()
			tr, err := lockfreetrie.New(u, lockfreetrie.WithShards(g.k),
				lockfreetrie.WithDurability(dir, lockfreetrie.WithWALShards(g.stripes),
					lockfreetrie.WithSyncEvery(n), lockfreetrie.WithSnapshotBytes(-1)))
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			ops := make([]lockfreetrie.Op, 0, 1024)
			for x := int64(0); x < u; x += 2 {
				ops = append(ops, lockfreetrie.Op{Kind: lockfreetrie.OpInsert, Key: x})
				if len(ops) == cap(ops) {
					if errs := tr.ApplyBatch(ops); errs != nil {
						t.Fatal(errs)
					}
					ops = ops[:0]
				}
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tr.SnapshotWAL(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
			if err != nil || len(snaps) != g.stripes {
				t.Fatalf("snapshot files %v (%v), want %d", snaps, err, g.stripes)
			}
			var file int64
			for _, p := range snaps {
				st, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				file += st.Size()
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d keys: SnapshotWAL allocated %.1f MB for %.1f MB of snapshot files (%.2fx)",
				n, float64(alloc)/1e6, float64(file)/1e6, float64(alloc)/float64(file))
			if float64(alloc) > 1.5*float64(file) {
				t.Fatalf("SnapshotWAL allocated %d B for %d B of snapshot files, want ≤ 1.5x", alloc, file)
			}
		})
	}
}
