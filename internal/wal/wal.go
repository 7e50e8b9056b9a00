// Package wal is the trie's durability spine: a per-shard write-ahead
// op log plus asynchronous consistent snapshots, built so that one
// ApplyBatch sweep is one group-committed log write and recovery is
// snapshot + bounded log-tail replay.
//
// # Layout
//
// A log directory holds one meta file (universe and stripe geometry,
// validated on reopen), per-shard segment files wal-<shard>-<firstLSN>.seg,
// and per-shard snapshot files snap-<shard>-<lsn>.snap. Keys are
// range-partitioned across shards (stripes) exactly like the trie's own
// sharding — key→shard is a shift — so each shard's log is an
// independent totally-ordered stream and recovery never merges across
// shards.
//
// # Records
//
// A segment is a sequence of length-prefixed frames (the shared
// internal/wire codec — the same framing the network protocol uses).
// One frame is one record:
//
//	crc32c(4) | lsn(8) | count(4) | count × op record (kind(1) | key(8))
//
// The CRC (Castagnoli) covers everything after itself. LSNs are
// per-shard, contiguous and strictly increasing; a whole ApplyBatch
// shard-run is one record, which is what makes a server sweep a
// group commit: one record append + at most one fsync per sweep,
// whatever the batch size.
//
// # Consistency
//
// A snapshot is a fuzzy checkpoint of the live set (ARIES-style, Mohan
// et al., TODS 1992): the log keeps no copy of its own. Each stripe
// counts the record runs appended but not yet applied to the backend
// (AppendBatch raises the count under the append lock, Applied lowers it
// once the caller's apply returns). A snapshot holds the append lock,
// fixes L = the stripe's last LSN, waits for that count to drain — from
// then on every record ≤ L has been applied — rotates, releases the lock
// and walks the stripe's key range through the LiveKeys function Open
// was given, while updates continue. A key with a record above L ends at
// its last logged record on replay (updates are blind writes); a key
// with none is stable during the walk, and a chain of linearizable
// predecessor steps returns every stable present key and no stable
// absent one. Before its own file the checkpoint fsyncs every record
// the stripe has appended so far, since the walk may have seen the
// effect of one above L that was only buffered; so a recovered state is
// always a prefix of each stripe's log. Segments whose records are all
// ≤ L are deleted once the snapshot is durable. Recovery loads the
// newest valid snapshot into a per-stripe bitmap and replays only
// records above its LSN, tolerating a torn final record (see Open).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Tuning defaults.
const (
	// DefaultSegmentBytes is the segment rotation threshold.
	DefaultSegmentBytes = 64 << 20
	// DefaultSnapshotBytes is the per-shard log growth that triggers an
	// asynchronous snapshot.
	DefaultSnapshotBytes = 64 << 20
	// recordHeaderBytes is crc(4) + lsn(8) + count(4).
	recordHeaderBytes = 4 + 8 + 4
	// maxRecordOps bounds ops per record; a larger batch run is split
	// into consecutive records. Bounds the replay read buffer.
	maxRecordOps = 8192
	// maxRecordFrame is the replay read limit for one record payload.
	maxRecordFrame = recordHeaderBytes + maxRecordOps*wire.OpBytes
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes Open. The zero value of every field selects its
// default: 1 shard, fsync on every append, DefaultSegmentBytes
// rotation, DefaultSnapshotBytes auto-snapshot.
type Options struct {
	// Shards is the stripe count (power of two). Each stripe owns a
	// contiguous key range, its own LSN sequence and its own files; more
	// stripes mean finer-grained append locks and parallel recovery at
	// the cost of more open files and fsyncs.
	Shards int
	// SyncEvery fsyncs after every n appended ops (counted per shard).
	// 1 — the default when SyncInterval is also zero — makes every
	// acknowledged op durable; 0 disables count-based fsync (the OS or
	// SyncInterval decides).
	SyncEvery int
	// SyncInterval fsyncs dirty shards on a background cadence,
	// bounding the un-fsynced window by time instead of op count.
	// Composes with SyncEvery; 0 disables the ticker.
	SyncInterval time.Duration
	// SegmentBytes rotates a shard's segment once it exceeds this size.
	SegmentBytes int64
	// SnapshotBytes triggers an asynchronous shard snapshot once that
	// many log bytes accumulate past the previous snapshot. 0 selects
	// the default; negative disables auto-snapshots (Snapshot still
	// works).
	SnapshotBytes int64
}

// withDefaults resolves zero fields. SyncEvery defaults to 1 only when
// no interval was requested: an explicit interval-only policy means
// "bound the window by time, not per-op".
func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.SyncEvery == 0 && o.SyncInterval <= 0 {
		o.SyncEvery = 1
	}
	if o.SyncEvery < 0 {
		o.SyncEvery = 0
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = DefaultSnapshotBytes
	}
	return o
}

// LiveKeys emits every key of the live set in [lo, hi] exactly once, in
// descending order. Each step must be linearizable on its own (a Search
// or a Predecessor); the walk as a whole need not be atomic, since a
// snapshot only relies on it for keys no update touches while it runs.
type LiveKeys func(lo, hi int64, emit func(key int64))

// Log is an open write-ahead log. Appends are safe for concurrent use;
// each key's shard serializes under one mutex, which is exactly the
// order its LSNs record.
type Log struct {
	dir    string
	dirf   *os.File // held open for directory-entry fsyncs
	u      int64
	opt    Options
	shift  uint // key → shard
	shards []*shardLog
	live   LiveKeys // the checkpoint walk over the backend

	reg        *obs.Registry
	cRecords   *obs.Counter
	cOps       *obs.Counter
	cBytes     *obs.Counter
	cAppendErr *obs.Counter
	cFsyncs    *obs.Counter
	hFsyncNS   *obs.Histogram
	cRotations *obs.Counter
	cSnaps     *obs.Counter
	cSnapKeys  *obs.Counter
	cSegsGone  *obs.Counter
	hSnapCapNS *obs.Histogram
	hSnapWrNS  *obs.Histogram
	hSnapTrNS  *obs.Histogram

	err    atomic.Pointer[error] // sticky first append-path failure
	snapCh chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// segmentInfo is one closed (fully written, fsynced) segment.
type segmentInfo struct {
	path     string
	firstLSN uint64
	lastLSN  uint64
}

// shardLog is one stripe's stream: current segment, LSN clock, applied
// point.
type shardLog struct {
	id int

	// mu orders appends; everything below it is the append state.
	mu         sync.Mutex
	f          *os.File
	wbuf       []byte // pending bytes not yet written to f
	size       int64  // bytes written to the current segment file
	firstLSN   uint64 // first LSN of the current segment
	lsn        uint64 // last assigned LSN
	unsynced   int    // ops appended since the last fsync
	dirty      bool   // bytes appended (or buffered) since the last fsync
	sinceSnap  int64  // log bytes appended since the last snapshot capture
	closedSegs []segmentInfo

	// unapplied counts the runs appended to this stripe whose apply has
	// not returned yet: raised under mu as the run gets its LSNs, lowered
	// by Applied. With mu held and unapplied at 0, every record up to lsn
	// is in the live set — the applied point a snapshot waits for.
	unapplied atomic.Int64

	// flushSeq counts completed wbuf→file writes; a flush's bytes are in
	// the file before its bump is visible, so a group-commit fsync that
	// loads flushSeq just before the syscall knows exactly which flushes
	// it covers.
	flushSeq atomic.Uint64

	// fsyncMu serializes group-commit fsyncs, which run OUTSIDE mu so
	// appends continue. Everything below it is guarded by it. A syncer
	// that queues behind an in-flight fsync re-checks on wake: if that
	// fsync's coverage (syncedSeq) reached its own flush, or the segment
	// rotated (whose sync covered it), it skips — queued waiters merge
	// into one fsync instead of serializing. Rotation/Close take fsyncMu
	// around closing the file; the only lock order anywhere is
	// mu → fsyncMu.
	fsyncMu   sync.Mutex
	curF      *os.File // the open segment file; nil once closed
	syncedSeq uint64   // highest flushSeq covered by a completed fsync

	// snapMu single-flights snapshots for this shard (held across the
	// slow walk+write, which runs OUTSIDE mu so appends continue).
	snapMu   sync.Mutex
	snapLSN  uint64 // LSN covered by the newest durable snapshot
	lastKeys int    // keys at recovery or in that snapshot: the next one's buffer hint
}

// fsyncFile is swapped out by tests that count or fail fsyncs.
var fsyncFile = func(f *os.File) error { return f.Sync() }

// newRegistry wires the wal.* metric handles.
func (l *Log) newRegistry() {
	r := obs.NewRegistry()
	l.reg = r
	l.cRecords = r.Counter("wal.append.records")
	l.cOps = r.Counter("wal.append.ops")
	l.cBytes = r.Counter("wal.append.bytes")
	l.cAppendErr = r.Counter("wal.append.errors")
	l.cFsyncs = r.Counter("wal.fsyncs")
	l.hFsyncNS = r.Histogram("wal.fsync_ns")
	l.cRotations = r.Counter("wal.segment.rotations")
	l.cSnaps = r.Counter("wal.snapshots")
	l.cSnapKeys = r.Counter("wal.snapshot.keys")
	l.cSegsGone = r.Counter("wal.segments.removed")
	l.hSnapCapNS = r.Histogram("wal.snapshot.capture_ns")
	l.hSnapWrNS = r.Histogram("wal.snapshot.write_ns")
	l.hSnapTrNS = r.Histogram("wal.snapshot.truncate_ns")
	r.Gauge("wal.shards", func() int64 { return int64(len(l.shards)) })
}

// Registry exposes the wal.* metrics for merging into a facade
// snapshot.
func (l *Log) Registry() *obs.Registry { return l.reg }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Shards returns the stripe count.
func (l *Log) Shards() int { return len(l.shards) }

// Err returns the sticky first append-path failure, if any. The log
// never blocks or panics the trie on an I/O error: it records the
// error, counts wal.append.errors, and drops subsequent appends — the
// durability contract is broken from that instant and Close reports it.
func (l *Log) Err() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// setErr records the first failure.
func (l *Log) setErr(err error) {
	if err == nil {
		return
	}
	l.cAppendErr.Inc(0)
	e := err
	l.err.CompareAndSwap(nil, &e)
}

// shardOf maps a key to its stripe.
func (l *Log) shardOf(key int64) int { return int(uint64(key) >> l.shift) }

// Append logs one op and returns its stripe, which the caller passes
// to Applied once the op is applied.
func (l *Log) Append(key int64, del bool) int {
	op := [1]core.BatchOp{{Key: key, Del: del}}
	var touched [1]int
	return l.AppendBatch(op[:], touched[:0])[0]
}

// AppendBatch logs a batch. Consecutive ops of the same stripe form one
// record (one group commit). The keys must be ascending, as the facade's
// SortDedup hands them to the backend, so that the batch takes stripe
// locks in ascending order and visits each stripe once: a checkpoint
// holds one stripe's lock until that stripe's unapplied runs drain, and
// a batch that came back to a stripe it had already logged to would wait
// on that lock with its own earlier run still unapplied — neither could
// proceed. The batch must be appended BEFORE the trie applies it, and
// each stripe AppendBatch appends to touched (one entry per run) must be
// passed to Applied once the apply has returned; a snapshot of that
// stripe waits for it. After a sticky error the runs are still counted
// but no longer logged.
func (l *Log) AppendBatch(ops []core.BatchOp, touched []int) []int {
	for i := 0; i < len(ops); {
		s := l.shardOf(ops[i].Key)
		j := i + 1
		for j < len(ops) && l.shardOf(ops[j].Key) == s {
			j++
		}
		l.shards[s].append(l, ops[i:j])
		touched = append(touched, s)
		i = j
	}
	return touched
}

// Applied marks one run that AppendBatch logged to stripe as applied to
// the live set.
func (l *Log) Applied(stripe int) { l.shards[stripe].unapplied.Add(-1) }

// append logs one same-stripe run and applies the sync policy.
func (s *shardLog) append(l *Log, run []core.BatchOp) {
	s.mu.Lock()
	s.unapplied.Add(1)
	if l.err.Load() != nil {
		s.mu.Unlock()
		return
	}
	for len(run) > 0 {
		n := len(run)
		if n > maxRecordOps {
			n = maxRecordOps
		}
		s.appendRecord(l, run[:n])
		run = run[n:]
	}
	if s.size+int64(len(s.wbuf)) >= l.opt.SegmentBytes {
		s.rotateLocked(l) // includes a full sync: unsynced is 0 after
	}
	wantSnap := l.opt.SnapshotBytes > 0 && s.sinceSnap >= l.opt.SnapshotBytes
	if l.opt.SyncEvery > 0 && s.unsynced >= l.opt.SyncEvery {
		s.groupSyncUnlock(l) // releases mu
	} else {
		s.mu.Unlock()
	}
	if wantSnap {
		select {
		case l.snapCh <- struct{}{}:
		default: // a snapshot pass is already pending
		}
	}
}

// appendRecord encodes one record straight into the write buffer.
// Caller holds mu.
func (s *shardLog) appendRecord(l *Log, run []core.BatchOp) {
	s.lsn++
	start := len(s.wbuf)
	s.wbuf = wire.AppendFrameHeader(s.wbuf, recordHeaderBytes+len(run)*wire.OpBytes)
	crcAt := len(s.wbuf)
	s.wbuf = append(s.wbuf, 0, 0, 0, 0)
	s.wbuf = binary.BigEndian.AppendUint64(s.wbuf, s.lsn)
	s.wbuf = binary.BigEndian.AppendUint32(s.wbuf, uint32(len(run)))
	for _, op := range run {
		s.wbuf = wire.AppendOp(s.wbuf, op.Del, op.Key)
	}
	binary.BigEndian.PutUint32(s.wbuf[crcAt:], crc32.Checksum(s.wbuf[crcAt+4:], castagnoli))
	n := int64(len(s.wbuf) - start)
	s.dirty = true
	s.unsynced += len(run)
	s.sinceSnap += n
	hint := int64(s.id)
	l.cRecords.Inc(hint)
	l.cOps.Add(hint, int64(len(run)))
	l.cBytes.Add(hint, n)
}

// flushLocked pushes buffered bytes to the segment file.
func (s *shardLog) flushLocked(l *Log) {
	if len(s.wbuf) == 0 {
		return
	}
	n, err := s.f.Write(s.wbuf)
	s.size += int64(n)
	s.wbuf = s.wbuf[:0]
	s.flushSeq.Add(1)
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d append: %w", s.id, err))
	}
}

// syncLocked flushes and fsyncs the current segment without releasing
// mu, so every record appended so far is durable when it returns — also
// bytes a group commit flushed before releasing mu and has not fsynced
// yet, which dirty no longer shows. The rotation, ticker, manual-Sync,
// checkpoint and shutdown path: rare, or needing the shard quiesced
// (rotation closes the file right after).
func (s *shardLog) syncLocked(l *Log) {
	s.flushLocked(l)
	s.dirty = false
	s.unsynced = 0
	s.fsyncThrough(l, s.f, s.flushSeq.Load())
}

// groupSyncUnlock is the count-policy fsync — the one on the append hot
// path. It flushes and resets the sync accounting under mu, RELEASES
// mu, and only then queues on fsyncMu for the fsync: concurrent
// appenders fill the next group while the disk works, which is what
// makes SyncEvery(n) a group commit instead of an every-n-ops stall of
// the whole shard. On waking with fsyncMu held it may find its flush
// already durable — a later fsync covered it (syncedSeq), or the
// segment rotated (rotation syncs before closing) — and skip, so a
// burst of triggers costs one fsync, not one each. The triggering
// caller still returns only once its bytes are durable, so the every-n
// bound on acknowledged-but-lost ops is unchanged.
// Caller holds mu; on return mu is released.
func (s *shardLog) groupSyncUnlock(l *Log) {
	s.flushLocked(l)
	if !s.dirty {
		s.mu.Unlock()
		return
	}
	f := s.f
	seq := s.flushSeq.Load()
	s.dirty = false
	s.unsynced = 0
	s.mu.Unlock()
	s.fsyncThrough(l, f, seq)
}

// fsyncThrough makes every flush up to seq of segment f durable, unless
// a completed fsync or f's rotation already did.
func (s *shardLog) fsyncThrough(l *Log, f *os.File, seq uint64) {
	s.fsyncMu.Lock()
	if s.curF != f || s.syncedSeq >= seq {
		s.fsyncMu.Unlock()
		return
	}
	// Every flush whose bump is visible here wrote its bytes before the
	// syscall below, so this fsync covers through `covered`.
	covered := s.flushSeq.Load()
	start := time.Now()
	err := fsyncFile(f)
	if err == nil && covered > s.syncedSeq {
		s.syncedSeq = covered
	}
	s.fsyncMu.Unlock()
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d fsync: %w", s.id, err))
		return
	}
	l.hFsyncNS.Record(int64(time.Since(start)))
	l.cFsyncs.Inc(int64(s.id))
}

// rotateLocked completes the current segment (flush + fsync + close)
// and opens a fresh one whose first LSN continues the stream.
func (s *shardLog) rotateLocked(l *Log) {
	s.syncLocked(l)
	path := s.f.Name()
	s.fsyncMu.Lock() // wait out any in-flight group-commit fsync
	err := s.f.Close()
	s.curF = nil
	s.syncedSeq = s.flushSeq.Load() // syncLocked above covered everything
	s.fsyncMu.Unlock()
	if err != nil {
		l.setErr(fmt.Errorf("wal: shard %d close segment: %w", s.id, err))
	}
	s.closedSegs = append(s.closedSegs, segmentInfo{path: path, firstLSN: s.firstLSN, lastLSN: s.lsn})
	if err := s.openSegmentLocked(l, s.lsn+1); err != nil {
		l.setErr(err)
	}
	l.cRotations.Inc(int64(s.id))
}

// openSegmentLocked creates the segment file starting at firstLSN and
// fsyncs the directory entry.
func (s *shardLog) openSegmentLocked(l *Log, firstLSN uint64) error {
	path := segmentPath(l.dir, s.id, firstLSN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: shard %d new segment: %w", s.id, err)
	}
	if err := fsyncFile(l.dirf); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	s.f = f
	s.fsyncMu.Lock()
	s.curF = f
	s.fsyncMu.Unlock()
	s.size = 0
	s.firstLSN = firstLSN
	return nil
}

// Sync flushes and fsyncs every dirty shard.
func (l *Log) Sync() error {
	for _, s := range l.shards {
		s.mu.Lock()
		s.syncLocked(l)
		s.mu.Unlock()
	}
	return l.Err()
}

// run is the background loop: interval fsyncs and async snapshots.
func (l *Log) run() {
	defer l.wg.Done()
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.opt.SyncInterval > 0 {
		tick = time.NewTicker(l.opt.SyncInterval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.stop:
			return
		case <-tickC:
			for _, s := range l.shards {
				s.mu.Lock()
				if s.dirty {
					s.syncLocked(l)
				}
				s.mu.Unlock()
			}
		case <-l.snapCh:
			for _, s := range l.shards {
				s.mu.Lock()
				due := l.opt.SnapshotBytes > 0 && s.sinceSnap >= l.opt.SnapshotBytes
				s.mu.Unlock()
				if due {
					if err := s.snapshot(l); err != nil {
						l.setErr(err)
					}
				}
			}
		}
	}
}

// Snapshot synchronously snapshots every shard and truncates the
// segments each snapshot covers.
func (l *Log) Snapshot() error {
	var first error
	for _, s := range l.shards {
		if err := s.snapshot(l); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the background loop, fsyncs what is buffered and closes
// every file. It returns the sticky append error if one occurred.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return l.Err()
	}
	close(l.stop)
	l.wg.Wait()
	for _, s := range l.shards {
		s.mu.Lock()
		s.syncLocked(l)
		s.fsyncMu.Lock() // wait out any in-flight group-commit fsync
		err := s.f.Close()
		s.curF = nil
		s.syncedSeq = s.flushSeq.Load()
		s.fsyncMu.Unlock()
		if err != nil {
			l.setErr(fmt.Errorf("wal: shard %d close: %w", s.id, err))
		}
		s.mu.Unlock()
	}
	err := l.Err()
	if cerr := l.dirf.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// shardShift computes the key→shard shift for a power-of-two universe
// and stripe count.
func shardShift(u int64, shards int) uint {
	width := u / int64(shards)
	return uint(bits.TrailingZeros64(uint64(width)))
}
