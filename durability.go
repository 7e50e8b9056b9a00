// Durability: the WithDurability option and the write-ahead wrapper it
// installs around the assembled backend. The trie stays a pure
// in-memory structure — durability is one decoration layer at the
// facade seam, over the sharded table New builds at every shard count,
// the way observability attaches in obs.go.
package lockfreetrie

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// durConfig is the resolved WithDurability configuration.
type durConfig struct {
	dir  string
	opts wal.Options
}

// DurabilityOption tunes WithDurability.
type DurabilityOption func(*durConfig) error

// WithSyncEvery fsyncs the log after every n appended update ops
// (counted per WAL stripe). n = 1 makes every acknowledged update
// durable before the call returns — the default when no sync policy is
// given. Larger n trades a bounded window of recent acknowledged ops
// against fsync amortization; the wl1 experiment measures the curve.
func WithSyncEvery(n int) DurabilityOption {
	return func(c *durConfig) error {
		if n < 1 {
			return fmt.Errorf("lockfreetrie: WithSyncEvery(%d): need n ≥ 1", n)
		}
		c.opts.SyncEvery = n
		return nil
	}
}

// WithSyncInterval fsyncs dirty log stripes on a background cadence,
// bounding the un-fsynced window by time instead of op count. Given
// alone it replaces the per-op default: appends buffer and the ticker
// makes them durable within d. Composes with WithSyncEvery (whichever
// trips first syncs).
func WithSyncInterval(d time.Duration) DurabilityOption {
	return func(c *durConfig) error {
		if d <= 0 {
			return fmt.Errorf("lockfreetrie: WithSyncInterval(%v): need a positive interval", d)
		}
		c.opts.SyncInterval = d
		return nil
	}
}

// WithWALShards stripes the log across k files with independent append
// locks and LSN sequences (power of two; default 1). Key→stripe is the
// same range partition the trie's own sharding uses, so a sorted batch
// touches each stripe at most once.
func WithWALShards(k int) DurabilityOption {
	return func(c *durConfig) error {
		if k < 1 || k&(k-1) != 0 {
			return fmt.Errorf("lockfreetrie: WithWALShards(%d): need a power of two ≥ 1", k)
		}
		c.opts.Shards = k
		return nil
	}
}

// WithSegmentBytes sets the log segment rotation threshold (default
// wal.DefaultSegmentBytes).
func WithSegmentBytes(n int64) DurabilityOption {
	return func(c *durConfig) error {
		if n < 1 {
			return fmt.Errorf("lockfreetrie: WithSegmentBytes(%d): need a positive size", n)
		}
		c.opts.SegmentBytes = n
		return nil
	}
}

// WithSnapshotBytes triggers an asynchronous checkpoint each time a
// stripe's log grows by n bytes (default wal.DefaultSnapshotBytes);
// n < 0 disables auto-snapshots (Trie.SnapshotWAL still works).
func WithSnapshotBytes(n int64) DurabilityOption {
	return func(c *durConfig) error {
		if n == 0 {
			return fmt.Errorf("lockfreetrie: WithSnapshotBytes(0): use a negative n to disable auto-snapshots")
		}
		c.opts.SnapshotBytes = n
		return nil
	}
}

// WithDurability persists the set to dir: every update is appended to a
// per-stripe write-ahead log (internal/wal) BEFORE it is applied, with
// one ApplyBatch call group-committing as one log record, fuzzy
// checkpoints of the live trie bounding the log, and New recovering the
// set from dir on construction (Trie.RecoveryStats reports what it
// found). Call Trie.Close to flush and release the log; read the wal.*
// metrics through MetricsSnapshot.
//
// Durability semantics: with the default WithSyncEvery(1), an update is
// on disk before its call returns; weaker policies bound the loss
// window by op count or time. Recovery replays the log in its own
// order, and updates of one key racing through different calls may be
// logged in one order and applied in the other: the live set can then
// hold the earlier-logged value of that key while recovery restores the
// later one, until the key is written again. Callers that serialize
// each key's updates (trieserve's coalesced sweeps do) get back the set
// they had, less the suffix of each stripe's log that the sync policy
// let a crash lose; see DESIGN.md §Durability.
//
// A log I/O failure never blocks or fails trie operations: the first
// error is sticky, later appends drop, wal.append.errors counts,
// SnapshotWAL and Close return it — the durability contract is broken
// from that instant while the in-memory set remains fully usable.
//
// Incompatible with NewRelaxed (the relaxed trie's abstaining queries
// have no batch entrypoint to seed through).
func WithDurability(dir string, opts ...DurabilityOption) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("lockfreetrie: WithDurability: empty directory")
		}
		dc := &durConfig{dir: dir}
		for _, o := range opts {
			if err := o(dc); err != nil {
				return err
			}
		}
		c.dur = dc
		return nil
	}
}

// durableSet interposes the write-ahead append between the facade and
// the assembled backend: log first, then apply, then tell the log the
// apply returned (the applied point its checkpoints wait for). Queries
// pass through untouched — durability never gates readers.
type durableSet struct {
	set
	log *wal.Log
}

// testHookLogged, when set, runs between a batch's append and its
// apply.
var testHookLogged func()

func (d *durableSet) Insert(x int64) {
	s := d.log.Append(x, false)
	d.set.Insert(x)
	d.log.Applied(s)
}

func (d *durableSet) Delete(x int64) {
	s := d.log.Append(x, true)
	d.set.Delete(x)
	d.log.Applied(s)
}

func (d *durableSet) ApplyBatch(ops []core.BatchOp) {
	// The backend rebases ops' keys to shard coordinates in place, so the
	// stripes to release come from the append, not from ops afterwards.
	var stk [16]int
	touched := d.log.AppendBatch(ops, stk[:0])
	if testHookLogged != nil {
		testHookLogged()
	}
	d.set.ApplyBatch(ops)
	for _, s := range touched {
		d.log.Applied(s)
	}
}

// liveKeys is the WAL's checkpoint walk over the sharded table: for each
// trie shard overlapping [lo, hi], from the highest down, a Search of the
// top key and then Predecessor steps on that shard's core trie, each one
// linearizable. It never uses the cross-shard Predecessor, whose
// fallback may answer weakly after sharded.ScanRetries failed
// validations. WAL stripes and trie shards partition the universe
// independently, so a stripe may span several shards or part of one.
func liveKeys(st *sharded.Trie) wal.LiveKeys {
	w := st.ShardWidth()
	return func(lo, hi int64, emit func(int64)) {
		for j := hi / w; j >= lo/w; j-- {
			c, base := st.Shard(int(j)), j*w
			bot, y := max(lo, base)-base, min(hi, base+w-1)-base
			if c.Search(y) {
				emit(base + y)
			}
			for {
				if y = c.Predecessor(y); y < bot {
					break // −1 (none) is below every bot
				}
				emit(base + y)
			}
		}
	}
}

// RecoveryStats reports what WithDurability reconstructed at New.
type RecoveryStats struct {
	// Keys is the recovered set cardinality.
	Keys int64
	// SnapshotKeys came from snapshot files; ReplayedOps (over
	// ReplayedRecords log records) were replayed from the log tail.
	SnapshotKeys    int64
	ReplayedRecords int64
	ReplayedOps     int64
	// TornTail reports a discarded partially-written final record — the
	// signature of a crash mid-append.
	TornTail bool
}

// attachDurability opens (recovering) the log, seeds the still-private
// backend with the recovered set, and wraps the backend so every
// further update is logged before it applies. Runs inside New, before
// the trie is published.
func (t *Trie) attachDurability(dc *durConfig) error {
	log, rec, err := wal.Open(dc.dir, t.st.U(), dc.opts, liveKeys(t.st))
	if err != nil {
		return fmt.Errorf("lockfreetrie: WithDurability: %w", err)
	}
	// Seed through the batch entrypoint in bounded ascending chunks —
	// the recovery walk emits globally ascending unique keys, which is
	// exactly the sharded ApplyBatch contract. The backend is
	// unwrapped here, so seeding is not re-logged.
	const chunk = 1024
	buf := make([]core.BatchOp, 0, chunk)
	rec.ForEach(func(k int64) {
		buf = append(buf, core.BatchOp{Key: k})
		if len(buf) == chunk {
			t.set.ApplyBatch(buf)
			buf = buf[:0]
		}
	})
	if len(buf) > 0 {
		t.set.ApplyBatch(buf)
	}
	t.recovery = RecoveryStats{
		Keys:            rec.Keys,
		SnapshotKeys:    rec.SnapshotKeys,
		ReplayedRecords: rec.ReplayedRecords,
		ReplayedOps:     rec.ReplayedOps,
		TornTail:        rec.TornTail,
	}
	t.wal = log
	t.set = &durableSet{set: t.set, log: log}
	return nil
}

// Durable reports whether WithDurability is active.
func (t *Trie) Durable() bool { return t.wal != nil }

// RecoveryStats returns what WithDurability recovered at construction
// (zero without it, or for a fresh directory).
func (t *Trie) RecoveryStats() RecoveryStats { return t.recovery }

// SnapshotWAL synchronously checkpoints every WAL stripe from the live
// trie and truncates the log segments each checkpoint covers. Auto-snapshots
// (WithSnapshotBytes) do the same in the background; the explicit call
// exists for checkpoints at known-good moments (before shutdown, after
// a bulk load). Errors without WithDurability.
func (t *Trie) SnapshotWAL() error {
	if t.wal == nil {
		return fmt.Errorf("lockfreetrie: SnapshotWAL: trie has no durability (WithDurability)")
	}
	return t.wal.Snapshot()
}

// Close flushes and closes the write-ahead log, returning any sticky
// log error. The in-memory trie remains queryable; further updates are
// no longer logged. A no-op (nil) without WithDurability.
func (t *Trie) Close() error {
	if t.wal == nil {
		return nil
	}
	return t.wal.Close()
}
