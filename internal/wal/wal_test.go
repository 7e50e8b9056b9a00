package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// model stands in for the backend a Log fronts: a key set the tests
// apply their logged ops to, marking each run applied afterwards, and
// whose walk the snapshots take.
type model struct {
	mu   sync.Mutex
	keys map[int64]bool
}

func newModel() *model { return &model{keys: map[int64]bool{}} }

// seed loads what Open recovered into m, as the facade seeds its trie.
func (m *model) seed(rec *Recovery) {
	rec.ForEach(func(k int64) { m.keys[k] = true })
}

// live is the model's LiveKeys: [lo, hi] in descending order.
func (m *model) live(lo, hi int64, emit func(int64)) {
	m.mu.Lock()
	var ks []int64
	for k := range m.keys {
		if k >= lo && k <= hi {
			ks = append(ks, k)
		}
	}
	m.mu.Unlock()
	sort.Slice(ks, func(i, j int) bool { return ks[i] > ks[j] })
	for _, k := range ks {
		emit(k)
	}
}

// apply logs ops, applies them to the model and marks them applied.
func (m *model) apply(l *Log, ops ...core.BatchOp) {
	touched := l.AppendBatch(ops, nil)
	m.mu.Lock()
	for _, op := range ops {
		if op.Del {
			delete(m.keys, op.Key)
		} else {
			m.keys[op.Key] = true
		}
	}
	m.mu.Unlock()
	for _, s := range touched {
		l.Applied(s)
	}
}

func (m *model) insert(l *Log, keys ...int64) {
	for _, k := range keys {
		m.apply(l, core.BatchOp{Key: k})
	}
}

// open opens dir over m, failing the test on error.
func open(t testing.TB, dir string, u int64, opt Options, m *model) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, u, opt, m.live)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// collect drains a Recovery into a sorted key slice.
func collect(rec *Recovery) []int64 {
	var out []int64
	rec.ForEach(func(k int64) { out = append(out, k) })
	return out
}

func wantKeys(t *testing.T, rec *Recovery, want ...int64) {
	t.Helper()
	got := collect(rec)
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered %v, want %v", got, want)
		}
	}
	if rec.Keys != int64(len(want)) {
		t.Fatalf("rec.Keys = %d, want %d", rec.Keys, len(want))
	}
}

// TestAppendReopen: a mixed op stream replays to the model's final
// membership, in ascending order.
func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, rec := open(t, dir, 1<<12, Options{}, m)
	if rec.Keys != 0 || rec.ReplayedOps != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	model := map[int64]bool{}
	rng := rand.New(rand.NewSource(7))
	var batch []core.BatchOp
	totalOps := 0
	for i := 0; i < 50; i++ {
		batch = batch[:0]
		for j := 0; j < rng.Intn(20)+1; j++ {
			k := int64(rng.Intn(1 << 12))
			del := rng.Intn(3) == 0
			batch = append(batch, core.BatchOp{Key: k, Del: del})
			if del {
				delete(model, k)
			} else {
				model[k] = true
			}
			totalOps++
		}
		m.apply(l, batch...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := open(t, dir, 1<<12, Options{}, newModel())
	defer l2.Close()
	got := collect(rec2)
	if len(got) != len(model) {
		t.Fatalf("recovered %d keys, model has %d", len(got), len(model))
	}
	prev := int64(-1)
	for _, k := range got {
		if !model[k] {
			t.Fatalf("recovered key %d not in model", k)
		}
		if k <= prev {
			t.Fatalf("recovery not ascending: %d after %d", k, prev)
		}
		prev = k
	}
	if rec2.ReplayedOps != int64(totalOps) {
		t.Fatalf("ReplayedOps = %d, want %d", rec2.ReplayedOps, totalOps)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

// TestTornTail truncates the log at EVERY byte offset of the final
// record and asserts recovery lands exactly on the preceding records —
// the crash-mid-append contract.
func TestTornTail(t *testing.T) {
	// One record per key: 4 (frame) + 16 (header) + 9 (op) bytes.
	const recBytes = 4 + recordHeaderBytes + 9
	keys := []int64{3, 1, 4, 15, 9}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l, _ := open(t, dir, 1<<10, Options{}, newModel())
		newModel().insert(l, keys...)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	probe := build(t)
	segs, err := filepath.Glob(filepath.Join(probe, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly 1", segs, err)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	size := st.Size()
	if size != int64(len(keys))*recBytes {
		t.Fatalf("segment %d bytes, want %d", size, len(keys)*recBytes)
	}
	for cut := size - recBytes; cut <= size; cut++ {
		dir := build(t)
		seg := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		m := newModel()
		l, rec, err := Open(dir, 1<<10, Options{}, m.live)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantTorn := cut > size-recBytes && cut < size
		if rec.TornTail != wantTorn {
			t.Fatalf("cut %d: TornTail = %v, want %v", cut, rec.TornTail, wantTorn)
		}
		wantN := len(keys)
		if cut < size {
			wantN--
		}
		if got := collect(rec); len(got) != wantN {
			t.Fatalf("cut %d: recovered %v, want %d keys", cut, got, wantN)
		}
		// The log must keep a clean stream after the tear: append, close,
		// reopen, and the new op is there with no new tear.
		m.insert(l, 777)
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close after tear: %v", cut, err)
		}
		l2, rec2, err := Open(dir, 1<<10, Options{}, m.live)
		if err != nil {
			t.Fatalf("cut %d: reopen after tear: %v", cut, err)
		}
		if rec2.TornTail {
			t.Fatalf("cut %d: tear did not heal", cut)
		}
		if got := collect(rec2); len(got) != wantN+1 || got[len(got)-1] != 777 {
			t.Fatalf("cut %d: post-tear append lost: %v", cut, got)
		}
		l2.Close()
	}
}

// TestSnapshotAndTruncate: a snapshot absorbs the log prefix (segments
// deleted), the tail replays on top of it, and the counters separate
// the two.
func TestSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<12, Options{SnapshotBytes: -1}, m)
	for k := int64(0); k < 100; k++ {
		m.insert(l, k)
	}
	m.apply(l, core.BatchOp{Key: 50, Del: true}) // delete inside the snapshot's coverage
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for k := int64(200); k < 210; k++ {
		m.insert(l, k)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files %v, want 1", snaps)
	}
	m2 := newModel()
	l2, rec := open(t, dir, 1<<12, Options{SnapshotBytes: -1}, m2)
	if rec.SnapshotKeys != 99 {
		t.Fatalf("SnapshotKeys = %d, want 99", rec.SnapshotKeys)
	}
	if rec.ReplayedOps != 10 {
		t.Fatalf("ReplayedOps = %d, want 10", rec.ReplayedOps)
	}
	if rec.Keys != 109 {
		t.Fatalf("Keys = %d, want 109", rec.Keys)
	}
	got := collect(rec)
	for _, k := range got {
		if k == 50 {
			t.Fatal("deleted key 50 resurrected")
		}
	}
	// A checkpoint after recovery walks the seeded set: the next reopen
	// needs no replay.
	m2.seed(rec)
	m2.insert(l2, 300)
	if err := l2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := open(t, dir, 1<<12, Options{SnapshotBytes: -1}, newModel())
	defer l3.Close()
	if rec3.SnapshotKeys != 110 || rec3.ReplayedOps != 0 {
		t.Fatalf("after a second checkpoint rec = %+v, want 110 snapshot keys and no replay", rec3)
	}
}

// TestSnapshotOnlyRecovery: recovery works with no log tail at all.
func TestSnapshotOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{}, m)
	m.insert(l, 5, 6, 7)
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, 1<<10, Options{}, newModel())
	defer l2.Close()
	wantKeys(t, rec, 5, 6, 7)
	if rec.ReplayedOps != 0 || rec.SnapshotKeys != 3 {
		t.Fatalf("rec = %+v, want pure snapshot recovery", rec)
	}
}

// TestSegmentRotation: a tiny segment budget rotates mid-stream and the
// multi-segment log replays completely.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<12, Options{SegmentBytes: 128, SnapshotBytes: -1}, m)
	var want []int64
	for k := int64(0); k < 60; k++ {
		m.insert(l, k)
		want = append(want, k)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("%d segments, want several (rotation)", len(segs))
	}
	l2, rec := open(t, dir, 1<<12, Options{SegmentBytes: 128, SnapshotBytes: -1}, newModel())
	defer l2.Close()
	wantKeys(t, rec, want...)
}

// TestShardedLog: keys route to stripes and recovery is globally
// ascending across them.
func TestShardedLog(t *testing.T) {
	dir := t.TempDir()
	const u = 1 << 8
	m := newModel()
	l, _ := open(t, dir, u, Options{Shards: 4}, m)
	m.apply(l, core.BatchOp{Key: 0}, core.BatchOp{Key: 3}, core.BatchOp{Key: 64},
		core.BatchOp{Key: 65}, core.BatchOp{Key: 130}, core.BatchOp{Key: 199}, core.BatchOp{Key: 250})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, u, Options{Shards: 4}, newModel())
	defer l2.Close()
	wantKeys(t, rec, 0, 3, 64, 65, 130, 199, 250)
}

// TestMetaMismatch: reopening with different geometry fails loudly.
func TestMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{Shards: 2}, m)
	l.Close()
	if _, _, err := Open(dir, 1<<11, Options{Shards: 2}, m.live); err == nil {
		t.Fatal("universe change accepted")
	}
	if _, _, err := Open(dir, 1<<10, Options{Shards: 4}, m.live); err == nil {
		t.Fatal("shard-count change accepted")
	}
	if _, _, err := Open(dir, 1<<10, Options{Shards: 2}, nil); err == nil {
		t.Fatal("missing live-key walk accepted")
	}
	if l, _, err := Open(dir, 1<<10, Options{Shards: 2}, m.live); err != nil {
		t.Fatalf("matching reopen: %v", err)
	} else {
		l.Close()
	}
}

// TestSyncEveryFlushes: with SyncEvery(1) every append is on disk
// before the call returns.
func TestSyncEveryFlushes(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{SyncEvery: 1}, m)
	defer l.Close()
	m.insert(l, 9)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("append not flushed under SyncEvery(1)")
	}
	if got := l.Registry().Counter("wal.fsyncs").Load(); got < 1 {
		t.Fatalf("fsyncs = %d, want ≥ 1", got)
	}
}

// TestSyncCoversGroupCommitInFlight: a group commit flushes and releases
// the append lock before its fsync, so its bytes are not durable yet
// although nothing is left to flush. Sync — and a checkpoint, which syncs
// the same way before its snapshot file — must still return only once
// they are.
func TestSyncCoversGroupCommitInFlight(t *testing.T) {
	entered, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	orig := fsyncFile
	fsyncFile = func(f *os.File) error {
		if filepath.Ext(f.Name()) == ".seg" {
			once.Do(func() { close(entered); <-hold })
		}
		return orig(f)
	}
	t.Cleanup(func() { fsyncFile = orig })

	m := newModel()
	l, _ := open(t, t.TempDir(), 1<<10, Options{SyncEvery: 1, SnapshotBytes: -1}, m)
	defer l.Close()
	go m.insert(l, 1) // its group commit blocks in fsync
	<-entered
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	select {
	case err := <-synced:
		close(hold)
		t.Fatalf("Sync returned (err %v) while a group commit's fsync was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
}

// TestSyncInterval: an interval-only policy fsyncs dirty shards on the
// ticker, not per append.
func TestSyncInterval(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{SyncEvery: -1, SyncInterval: 5 * time.Millisecond}, m)
	defer l.Close()
	m.insert(l, 4)
	deadline := time.Now().Add(2 * time.Second)
	for l.Registry().Counter("wal.fsyncs").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval fsync never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAutoSnapshot: crossing SnapshotBytes triggers a background
// snapshot without an explicit call.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<12, Options{SnapshotBytes: 256}, m)
	for k := int64(0); k < 64; k++ {
		m.insert(l, k)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Registry().Counter("wal.snapshots").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto snapshot never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, 1<<12, Options{SnapshotBytes: 256}, newModel())
	defer l2.Close()
	if rec.SnapshotKeys == 0 {
		t.Fatalf("recovery loaded no snapshot keys: %+v", rec)
	}
	want := make([]int64, 64)
	for i := range want {
		want[i] = int64(i)
	}
	wantKeys(t, rec, want...)
}

// TestRecoveryCountersExposed: the wal.recovery.* counters land in the
// registry snapshot (the e2e crash smoke asserts on these).
func TestRecoveryCountersExposed(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{}, m)
	m.insert(l, 1, 2)
	l.Close()
	l2, _ := open(t, dir, 1<<10, Options{}, newModel())
	defer l2.Close()
	snap := l2.Registry().Snapshot()
	if snap.Counters["wal.recovery.replayed_ops"] != 2 {
		t.Fatalf("wal.recovery.replayed_ops = %d, want 2", snap.Counters["wal.recovery.replayed_ops"])
	}
}

// TestAppendBatchNoAlloc: with the sync policy out of the way, logging a
// sorted 64-op run allocates nothing — the record is encoded straight
// into the write buffer and the log keeps no copy of the set.
func TestAppendBatchNoAlloc(t *testing.T) {
	l, _ := open(t, t.TempDir(), 1<<16, Options{SyncEvery: 1 << 30, SnapshotBytes: -1}, newModel())
	defer l.Close()
	ops := make([]core.BatchOp, 64)
	for i := range ops {
		ops[i] = core.BatchOp{Key: int64(i) * 997, Del: i%3 == 0}
	}
	var stk [4]int
	l.AppendBatch(ops, stk[:0]) // size the write buffer
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range l.AppendBatch(ops, stk[:0]) {
			l.Applied(s)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBatch: %v allocs per 64-op run, want 0", allocs)
	}
}

// TestSnapshotWaitsForApplied: a snapshot does not walk the live set
// until every run logged before it has been applied, so recovery from
// the snapshot alone includes a run that was logged but not yet applied
// when the snapshot started.
func TestSnapshotWaitsForApplied(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{SnapshotBytes: -1}, m)
	m.insert(l, 1)
	s := l.Append(2, false) // logged, not applied
	done := make(chan error, 1)
	go func() { done <- l.Snapshot() }()
	select {
	case err := <-done:
		t.Fatalf("snapshot finished (err %v) before the logged run was applied", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.mu.Lock()
	m.keys[2] = true
	m.mu.Unlock()
	l.Applied(s)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := open(t, dir, 1<<10, Options{SnapshotBytes: -1}, newModel())
	defer l2.Close()
	wantKeys(t, rec, 1, 2)
	if rec.ReplayedOps != 0 || rec.SnapshotKeys != 2 {
		t.Fatalf("rec = %+v, want both keys from the snapshot alone", rec)
	}
}

// TestSnapshotLogsBeforeItsKeys: a checkpoint makes every record whose
// effect its walk may have seen durable before its own file is. The walk
// below logs and applies Insert(100), then Insert(5), once it has passed
// 100, so the snapshot holds 5 but not 100, and with SyncEvery out of
// the way both records are only buffered. A crash right after Snapshot
// returns — the directory copied with each segment cut to the length its
// last fsync saw — must still recover a prefix of the log.
func TestSnapshotLogsBeforeItsKeys(t *testing.T) {
	var smu sync.Mutex
	synced := map[string]int64{} // segment path → size at its last fsync
	orig := fsyncFile
	fsyncFile = func(f *os.File) error {
		err := orig(f)
		if st, serr := f.Stat(); err == nil && serr == nil {
			smu.Lock()
			synced[f.Name()] = st.Size()
			smu.Unlock()
		}
		return err
	}
	t.Cleanup(func() { fsyncFile = orig })

	dir := t.TempDir()
	m := newModel()
	opt := Options{SyncEvery: 1 << 30, SnapshotBytes: -1}
	l, _ := open(t, dir, 1<<10, opt, m)
	defer l.Close()
	ops := []core.BatchOp{{Key: 60}, {Key: 100}, {Key: 5}} // the log, in LSN order
	m.apply(l, ops[0])
	l.live = func(lo, hi int64, emit func(int64)) {
		for k := hi; k >= lo; k-- { // one linearizable Search per key
			if k == 50 {
				m.apply(l, ops[1])
				m.apply(l, ops[2])
			}
			m.mu.Lock()
			in := m.keys[k]
			m.mu.Unlock()
			if in {
				emit(k)
			}
		}
	}
	if err := l.Snapshot(); err != nil {
		t.Fatal(err)
	}

	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(path) == ".seg" {
			smu.Lock()
			raw = raw[:synced[path]]
			smu.Unlock()
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, rec := open(t, crash, 1<<10, opt, newModel())
	defer l2.Close()
	got := fmt.Sprint(collect(rec))
	state := map[int64]bool{}
	for i := 0; ; i++ {
		var prefix []int64
		for k := range state {
			prefix = append(prefix, k)
		}
		sort.Slice(prefix, func(a, b int) bool { return prefix[a] < prefix[b] })
		if got == fmt.Sprint(prefix) {
			return
		}
		if i == len(ops) {
			t.Fatalf("recovered %s, which is no prefix of the log %v", got, ops)
		}
		if ops[i].Del {
			delete(state, ops[i].Key)
		} else {
			state[ops[i].Key] = true
		}
	}
}

// TestSnapshotRefusedAfterLogError: once the log has failed, appends
// are dropped while the backend still applies them, so a checkpoint of
// the live set would hold updates the log never saw; it is refused.
func TestSnapshotRefusedAfterLogError(t *testing.T) {
	dir := t.TempDir()
	m := newModel()
	l, _ := open(t, dir, 1<<10, Options{SnapshotBytes: -1}, m)
	defer l.Close()
	m.insert(l, 1)
	l.setErr(errors.New("disk gone"))
	m.insert(l, 2) // applied, not logged
	if err := l.Snapshot(); err == nil {
		t.Fatal("checkpoint taken after a log failure")
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 0 {
		t.Fatalf("snapshot files %v written after a log failure", snaps)
	}
}

// TestSnapshotRejectsForeignKeys: a snapshot file whose keys fall outside
// its stripe (or are out of order) is not loaded; recovery falls back to
// the log, which still holds every record.
func TestSnapshotRejectsForeignKeys(t *testing.T) {
	for _, keys := range [][]int64{{3, 300}, {7, 5}} {
		dir := t.TempDir()
		m := newModel()
		l, _ := open(t, dir, 1<<9, Options{Shards: 2, SnapshotBytes: -1}, m)
		m.insert(l, 3, 5, 7)
		l.live = func(lo, hi int64, emit func(int64)) {
			for i := len(keys) - 1; i >= 0; i-- { // stored reversed: as given
				emit(keys[i])
			}
		}
		if err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		// The snapshot deleted the covered segments, so the fallback has
		// nothing to replay: recovery must refuse the bad file and report
		// the log gap rather than load foreign keys.
		if _, _, err := Open(dir, 1<<9, Options{Shards: 2}, newModel().live); err == nil {
			t.Fatalf("keys %v: bad snapshot loaded", keys)
		}
	}
}

// TestV1DataDir: a data directory in the version 1 snapshot and segment
// formats recovers unchanged. testdata/v1 holds stripe 0's snapshot
// {1, 3, 5} at LSN 3 with a tail deleting 5, and stripe 1's log
// inserting 700.
func TestV1DataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal.meta", "snap-0000-0000000000000003.snap",
		"wal-0000-0000000000000004.seg", "wal-0001-0000000000000001.seg"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, rec := open(t, dir, 1<<10, Options{Shards: 2}, newModel())
	defer l.Close()
	wantKeys(t, rec, 1, 3, 700)
	if rec.SnapshotKeys != 3 || rec.ReplayedOps != 2 || rec.TornTail {
		t.Fatalf("rec = %+v, want 3 snapshot keys and 2 replayed ops", rec)
	}
}

// FuzzReplayTail appends arbitrary bytes to a valid final segment. Open
// must not panic, and it either fails or recovers the valid prefix: the
// original records survive byte for byte, and when nothing past them is
// kept the recovered set is exactly theirs, with a torn tail reported
// iff bytes were discarded.
func FuzzReplayTail(f *testing.F) {
	tmpl := f.TempDir()
	m := newModel()
	l, _ := open(f, tmpl, 1<<10, Options{SyncEvery: 1 << 20, SnapshotBytes: -1}, m)
	m.insert(l, 5, 9, 700)
	m.apply(l, core.BatchOp{Key: 9, Del: true}, core.BatchOp{Key: 12})
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segName := filepath.Base(segmentPath(tmpl, 0, 1))
	meta, err1 := os.ReadFile(filepath.Join(tmpl, metaName))
	valid, err2 := os.ReadFile(filepath.Join(tmpl, segName))
	if err1 != nil || err2 != nil {
		f.Fatal(err1, err2)
	}
	// Seeds: nothing, stray bytes, a torn frame header, a frame with a bad
	// CRC, the first record replayed verbatim (a stale LSN), and two
	// well-formed next records, one inserting a key inside the universe
	// and one a key outside it.
	first := valid[:wireFrameLen(valid)]
	next := uint64(1)
	for off := 0; off < len(valid); off += wireFrameLen(valid[off:]) {
		next++
	}
	record := func(key int64) []byte {
		b := wire.AppendFrameHeader(nil, recordHeaderBytes+wire.OpBytes)
		b = append(b, 0, 0, 0, 0)
		b = binary.BigEndian.AppendUint64(b, next)
		b = binary.BigEndian.AppendUint32(b, 1)
		b = wire.AppendOp(b, false, key)
		binary.BigEndian.PutUint32(b[4:], crc32.Checksum(b[8:], castagnoli))
		return b
	}
	f.Add(record(33))
	f.Add(record(1 << 10))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0})
	f.Add(append([]byte{0, 0, 0, 25}, make([]byte, 25)...))
	f.Add(append([]byte(nil), first...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, junk []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName)
		if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, append(append([]byte(nil), valid...), junk...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, 1<<10, Options{SnapshotBytes: -1}, newModel().live)
		if err != nil {
			return
		}
		defer l.Close()
		kept, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) < len(valid) || !bytes.Equal(kept[:len(valid)], valid) {
			t.Fatalf("valid records lost: kept %d of %d bytes", len(kept), len(valid))
		}
		if len(kept) > len(valid) {
			// The junk began with well-formed records (CRC and LSN chain
			// intact), which replay like any other.
			if rec.TornTail != (len(kept) < len(valid)+len(junk)) {
				t.Fatalf("TornTail = %v with %d of %d junk bytes kept", rec.TornTail, len(kept)-len(valid), len(junk))
			}
			return
		}
		if rec.TornTail != (len(junk) > 0) {
			t.Fatalf("TornTail = %v after %d junk bytes", rec.TornTail, len(junk))
		}
		got := collect(rec)
		if len(got) != 3 || got[0] != 5 || got[1] != 12 || got[2] != 700 {
			t.Fatalf("recovered %v, want [5 12 700]", got)
		}
	})
}

// wireFrameLen returns the byte length of the frame at the front of b.
func wireFrameLen(b []byte) int { return 4 + int(binary.BigEndian.Uint32(b)) }
