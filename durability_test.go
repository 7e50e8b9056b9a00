package lockfreetrie_test

import (
	"testing"
	"time"

	lockfreetrie "repro"
)

// reopenKeys closes tr's successor-to-be and returns a fresh durable
// trie over dir plus its recovered key set.
func openDurable(t *testing.T, dir string, opts ...lockfreetrie.Option) *lockfreetrie.Trie {
	t.Helper()
	all := append([]lockfreetrie.Option{lockfreetrie.WithDurability(dir)}, opts...)
	tr, err := lockfreetrie.New(1<<12, all...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestDurableRecovery: updates through every entrypoint survive a
// close/reopen cycle, across three backend shapes: unsharded, sharded,
// and sharded with combine-wrapped shards.
func TestDurableRecovery(t *testing.T) {
	paths := []struct {
		name string
		opts []lockfreetrie.Option
	}{
		{"k1", nil},
		{"sharded", []lockfreetrie.Option{lockfreetrie.WithShards(4)}},
		{"combining", []lockfreetrie.Option{lockfreetrie.WithShards(4), lockfreetrie.WithCombining()}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := openDurable(t, dir, p.opts...)
			if !tr.Durable() {
				t.Fatal("Durable() = false")
			}
			for _, k := range []int64{10, 20, 30, 40} {
				if err := tr.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Delete(20); err != nil {
				t.Fatal(err)
			}
			if errs := tr.ApplyBatch([]lockfreetrie.Op{
				{Kind: lockfreetrie.OpInsert, Key: 100},
				{Kind: lockfreetrie.OpDelete, Key: 40},
				{Kind: lockfreetrie.OpInsert, Key: 7},
			}); errs != nil {
				t.Fatalf("ApplyBatch: %v", errs)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			tr2 := openDurable(t, dir, p.opts...)
			defer tr2.Close()
			want := []int64{7, 10, 30, 100}
			keys, err := tr2.Keys(0, tr2.Universe()-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want) {
				t.Fatalf("recovered %v, want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("recovered %v, want %v", keys, want)
				}
			}
			rs := tr2.RecoveryStats()
			if rs.Keys != 4 || rs.ReplayedOps == 0 {
				t.Fatalf("RecoveryStats = %+v, want 4 keys via replay", rs)
			}
			if tr2.Len() != 4 {
				t.Fatalf("Len = %d, want 4", tr2.Len())
			}
		})
	}
}

// TestDurableSnapshotCycle: SnapshotWAL checkpoints; recovery then
// reports snapshot keys plus the post-snapshot tail.
func TestDurableSnapshotCycle(t *testing.T) {
	dir := t.TempDir()
	tr := openDurable(t, dir)
	for k := int64(0); k < 50; k++ {
		tr.Insert(k)
	}
	if err := tr.SnapshotWAL(); err != nil {
		t.Fatal(err)
	}
	for k := int64(100); k < 110; k++ {
		tr.Insert(k)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := openDurable(t, dir)
	defer tr2.Close()
	rs := tr2.RecoveryStats()
	if rs.SnapshotKeys != 50 || rs.ReplayedOps != 10 || rs.Keys != 60 {
		t.Fatalf("RecoveryStats = %+v, want 50 snapshot keys + 10 replayed", rs)
	}
}

// TestDurableMetrics: wal.* counters surface through MetricsSnapshot,
// with and without trie observability.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	tr := openDurable(t, dir)
	tr.Insert(5)
	snap := tr.MetricsSnapshot()
	if snap.Counters["wal.append.ops"] != 1 {
		t.Fatalf("wal.append.ops = %d, want 1", snap.Counters["wal.append.ops"])
	}
	if snap.Counters["ops.insert"] != 1 {
		t.Fatalf("ops.insert = %d, want 1 (trie metrics lost in merge)", snap.Counters["ops.insert"])
	}
	tr.Close()

	tr2, err := lockfreetrie.New(1<<12,
		lockfreetrie.WithDurability(t.TempDir()), lockfreetrie.WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	tr2.Insert(9)
	if got := tr2.MetricsSnapshot().Counters["wal.append.ops"]; got != 1 {
		t.Fatalf("wal.append.ops without trie obs = %d, want 1", got)
	}

	// The layer gauges read the backend, not the write-ahead wrapper in
	// front of it: a durable trie reports its EBR epoch and its combiner
	// counters exactly as an in-memory one does.
	comb, err := lockfreetrie.New(1<<12, lockfreetrie.WithCombining(),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncEvery(1024)))
	if err != nil {
		t.Fatal(err)
	}
	defer comb.Close()
	const pairs = 2000
	for k := int64(0); k < pairs; k++ {
		comb.Insert(k)
		comb.Delete(k)
	}
	c := comb.MetricsSnapshot().Counters
	if got := c["combine.batched"] + c["combine.direct"]; got != 2*pairs {
		t.Errorf("durable combine.batched + combine.direct = %d, want %d submitted", got, 2*pairs)
	}
	if c["ebr.epoch"] == 0 {
		t.Errorf("durable ebr.epoch = 0 after %d insert/delete pairs", pairs)
	}
}

// TestDurabilityOptionValidation: bad options fail construction.
func TestDurabilityOptionValidation(t *testing.T) {
	cases := []lockfreetrie.Option{
		lockfreetrie.WithDurability(""),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncEvery(0)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSyncInterval(-time.Second)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithWALShards(3)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSegmentBytes(0)),
		lockfreetrie.WithDurability(t.TempDir(), lockfreetrie.WithSnapshotBytes(0)),
	}
	for i, opt := range cases {
		if _, err := lockfreetrie.New(1<<12, opt); err == nil {
			t.Fatalf("case %d: invalid durability option accepted", i)
		}
	}
}

// TestNonDurableClose: Close and SnapshotWAL behave sanely without
// WithDurability.
func TestNonDurableClose(t *testing.T) {
	tr, err := lockfreetrie.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Durable() {
		t.Fatal("Durable() = true without WithDurability")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.SnapshotWAL(); err == nil {
		t.Fatal("SnapshotWAL without durability succeeded")
	}
	if rs := tr.RecoveryStats(); rs != (lockfreetrie.RecoveryStats{}) {
		t.Fatalf("RecoveryStats = %+v, want zero", rs)
	}
}
