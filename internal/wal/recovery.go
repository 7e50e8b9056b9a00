// Open, crash recovery and the snapshot file format. A snapshot file is
// written whole, fsynced, then renamed into place; a segment is only
// deleted after the snapshot covering its records is durable — so every
// crash point leaves either the old recovery inputs or the new ones,
// never neither.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

const (
	metaName   = "wal.meta"
	metaMagic  = 0x5457414C // "TWAL"
	snapMagic  = 0x54534E50 // "TSNP"
	walVersion = 1
	// snapHeaderBytes is magic(4) | version(1) | shard(4) | u(8) | lsn(8) |
	// count(8); the keys and a crc32c follow.
	snapHeaderBytes = 4 + 1 + 4 + 8 + 8 + 8
)

// segmentPath names shard id's segment starting at firstLSN. The LSN is
// zero-padded hex so lexical order is numeric order.
func segmentPath(dir string, id int, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%04d-%016x.seg", id, firstLSN))
}

// snapshotPath names shard id's snapshot covering LSNs ≤ lsn.
func snapshotPath(dir string, id int, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%04d-%016x.snap", id, lsn))
}

// parseShardLSN extracts (shard, lsn) from a "<prefix>-SSSS-LLLL…L<ext>"
// name; ok is false for foreign files.
func parseShardLSN(name, prefix, ext string) (shard int, lsn uint64, ok bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
	parts := strings.Split(body, "-")
	if len(parts) != 2 {
		return 0, 0, false
	}
	s, err1 := strconv.Atoi(parts[0])
	l, err2 := strconv.ParseUint(parts[1], 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return s, l, true
}

// Recovery reports what Open reconstructed. ForEach walks the
// recovered membership in globally ascending key order — the shape the
// sharded batch entrypoint requires for seeding.
type Recovery struct {
	// Keys is the recovered set's cardinality.
	Keys int64
	// SnapshotKeys counts keys loaded from snapshot files.
	SnapshotKeys int64
	// ReplayedRecords and ReplayedOps count the log tail replayed on
	// top of the snapshots.
	ReplayedRecords int64
	ReplayedOps     int64
	// TornTail reports whether a torn (partially written) final record
	// was found and discarded.
	TornTail bool

	width int64      // keys per stripe
	bits  [][]uint64 // per stripe: bit i set iff key stripe·width+i is present
}

// ForEach emits every recovered key in ascending order.
func (r *Recovery) ForEach(emit func(key int64)) {
	for s, words := range r.bits {
		base := int64(s) * r.width
		for i, w := range words {
			for ; w != 0; w &= w - 1 {
				emit(base + int64(i)<<6 + int64(bits.TrailingZeros64(w)))
			}
		}
	}
}

// Open opens (creating if needed) the log in dir for a power-of-two
// universe u, recovering existing state: per shard, the newest valid
// snapshot file is loaded and the log records above its LSN are
// replayed into a bitmap of the stripe. A torn final record — a crash
// mid-append — is detected by CRC/length and discarded; corruption
// anywhere else is an error, because silently skipping interior records
// would replay a set that never existed. live is the walk snapshots take
// over the backend the caller applies its logged updates to, and count
// that backend's estimate of a stripe's keys.
func Open(dir string, u int64, opt Options, live LiveKeys, count LiveCount) (*Log, *Recovery, error) {
	opt = opt.withDefaults()
	if u < 2 || u&(u-1) != 0 {
		return nil, nil, fmt.Errorf("wal: universe %d is not a power of two ≥ 2", u)
	}
	if opt.Shards&(opt.Shards-1) != 0 {
		return nil, nil, fmt.Errorf("wal: shard count %d is not a power of two", opt.Shards)
	}
	if int64(opt.Shards) > u/2 {
		return nil, nil, fmt.Errorf("wal: %d shards leave under two keys per stripe of universe %d", opt.Shards, u)
	}
	if live == nil || count == nil {
		return nil, nil, errors.New("wal: no live-key walk or count for snapshots")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:    dir,
		dirf:   dirf,
		u:      u,
		opt:    opt,
		shift:  shardShift(u, opt.Shards),
		live:   live,
		count:  count,
		snapCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	l.newRegistry()
	if err := l.checkMeta(); err != nil {
		dirf.Close()
		return nil, nil, err
	}
	// Sweep half-written temporaries from a crash mid-atomicWrite.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}
	rec := &Recovery{width: int64(1) << l.shift, bits: make([][]uint64, opt.Shards)}
	l.shards = make([]*shardLog, opt.Shards)
	for i := range l.shards {
		s, err := l.openShard(i, rec)
		if err != nil {
			dirf.Close()
			return nil, nil, err
		}
		l.shards[i] = s
		for _, w := range rec.bits[i] {
			rec.Keys += int64(bits.OnesCount64(w))
		}
	}
	l.reg.Counter("wal.recovery.snapshot_keys").Add(0, rec.SnapshotKeys)
	l.reg.Counter("wal.recovery.replayed_records").Add(0, rec.ReplayedRecords)
	l.reg.Counter("wal.recovery.replayed_ops").Add(0, rec.ReplayedOps)
	if rec.TornTail {
		l.reg.Counter("wal.recovery.torn_tails").Inc(0)
	}
	l.wg.Add(1)
	go l.run()
	return l, rec, nil
}

// checkMeta validates (or writes, on a fresh directory) the meta file:
// magic | version(1) | shards(4) | u(8) | crc32c. Geometry is fixed at
// creation — reopening with a different universe or stripe count would
// misroute every key.
func (l *Log) checkMeta() error {
	path := filepath.Join(l.dir, metaName)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		buf := binary.BigEndian.AppendUint32(nil, metaMagic)
		buf = append(buf, walVersion)
		buf = binary.BigEndian.AppendUint32(buf, uint32(l.opt.Shards))
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.u))
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
		return atomicWrite(path, buf, l.dirf)
	}
	if err != nil {
		return fmt.Errorf("wal: meta: %w", err)
	}
	if len(raw) != 4+1+4+8+4 {
		return fmt.Errorf("wal: meta: %d bytes, want %d", len(raw), 4+1+4+8+4)
	}
	body, sum := raw[:len(raw)-4], binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return fmt.Errorf("wal: meta: checksum mismatch")
	}
	if binary.BigEndian.Uint32(body) != metaMagic || body[4] != walVersion {
		return fmt.Errorf("wal: meta: bad magic or version")
	}
	shards := int(binary.BigEndian.Uint32(body[5:9]))
	u := int64(binary.BigEndian.Uint64(body[9:17]))
	if shards != l.opt.Shards || u != l.u {
		return fmt.Errorf("wal: meta: log holds u=%d shards=%d, opened with u=%d shards=%d",
			u, shards, l.u, l.opt.Shards)
	}
	return nil
}

// atomicWrite writes data to path via tmp + fsync + rename + dir fsync.
func atomicWrite(path string, data []byte, dirf *os.File) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: %s: %w", tmp, err)
	}
	if err := fsyncFile(f); err != nil {
		f.Close()
		return fmt.Errorf("wal: %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return fsyncFile(dirf)
}

// openShard recovers one stripe into its bitmap rec.bits[id]: newest
// valid snapshot, then the log tail, then a fresh segment for new
// appends.
func (l *Log) openShard(id int, rec *Recovery) (*shardLog, error) {
	s := &shardLog{id: id}
	bm := make([]uint64, (rec.width+63)>>6)
	rec.bits[id] = bm

	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var snaps []uint64
	var segs []segmentInfo
	for _, e := range entries {
		if sh, lsn, ok := parseShardLSN(e.Name(), "snap-", ".snap"); ok && sh == id {
			snaps = append(snaps, lsn)
		}
		if sh, lsn, ok := parseShardLSN(e.Name(), "wal-", ".seg"); ok && sh == id {
			segs = append(segs, segmentInfo{path: filepath.Join(l.dir, e.Name()), firstLSN: lsn})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })

	// Newest loadable snapshot wins; an unreadable one (crash between
	// rename and old-file cleanup cannot cause this, but disk rot can)
	// falls back to the next older, whose covering segments are still
	// on disk exactly because truncation follows snapshot durability.
	for _, lsn := range snaps {
		n, err := l.loadSnapshot(snapshotPath(l.dir, id, lsn), id, lsn, bm)
		if err != nil {
			clear(bm)
			continue
		}
		s.snapLSN = lsn
		rec.SnapshotKeys += int64(n)
		break
	}
	s.lsn = s.snapLSN

	var lastSize int64
	for i, seg := range segs {
		if i > 0 && seg.firstLSN != segs[i-1].lastLSN+1 {
			return nil, fmt.Errorf("wal: shard %d: log gap between LSN %d and segment %s",
				id, segs[i-1].lastLSN, seg.path)
		}
		last, size, err := l.replaySegment(s, seg, i == len(segs)-1, rec)
		if err != nil {
			return nil, err
		}
		segs[i].lastLSN = last
		lastSize = size
	}
	if len(segs) > 0 {
		if first := segs[0].firstLSN; first > s.snapLSN+1 {
			return nil, fmt.Errorf("wal: shard %d: oldest segment starts at LSN %d but snapshot covers only %d",
				id, first, s.snapLSN)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(segs); n > 0 {
		// The newest segment — already truncated to its valid prefix —
		// becomes the current one again; the rest are closed history.
		cur := segs[n-1]
		s.closedSegs = segs[:n-1]
		f, err := os.OpenFile(cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: shard %d reopen segment: %w", id, err)
		}
		s.f = f
		s.curF = f
		s.size = lastSize
		s.firstLSN = cur.firstLSN
		return s, nil
	}
	if err := s.openSegmentLocked(l, s.lsn+1); err != nil {
		return nil, err
	}
	return s, nil
}

// replaySegment applies one segment's records above the snapshot LSN to
// the stripe's bitmap and returns the last valid LSN it holds plus
// the byte length of its valid prefix. In the final segment a torn
// record — short frame, bad CRC, malformed body — ends the replay (the
// crash interrupted that append; nothing after it was acknowledged
// durable) and the file is truncated to the valid prefix so future
// appends continue a clean stream; anywhere else it is corruption and
// fails Open.
func (l *Log) replaySegment(s *shardLog, seg segmentInfo, lastSeg bool, rec *Recovery) (uint64, int64, error) {
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	expect := seg.firstLSN
	var off int64 // byte offset of the valid prefix
	buf := make([]byte, 0, 4096)
	torn := func(why error) (uint64, int64, error) {
		if !lastSeg {
			return 0, 0, fmt.Errorf("wal: shard %d: corrupt record (LSN %d) in non-final segment %s: %v",
				s.id, expect, seg.path, why)
		}
		rec.TornTail = true
		if err := f.Truncate(off); err != nil {
			return 0, 0, fmt.Errorf("wal: shard %d: truncating torn tail of %s: %w", s.id, seg.path, err)
		}
		if err := fsyncFile(f); err != nil {
			return 0, 0, fmt.Errorf("wal: %s: %w", seg.path, err)
		}
		return expect - 1, off, nil
	}
	bm, lo := rec.bits[s.id], int64(s.id)<<l.shift
	for {
		p, err := wire.ReadFrame(br, buf, maxRecordFrame)
		if err == io.EOF {
			return expect - 1, off, nil // clean segment end
		}
		if err != nil {
			return torn(err)
		}
		buf = p[:0]
		if len(p) < recordHeaderBytes {
			return torn(fmt.Errorf("record %d bytes", len(p)))
		}
		if crc32.Checksum(p[4:], castagnoli) != binary.BigEndian.Uint32(p) {
			return torn(errors.New("checksum mismatch"))
		}
		lsn := binary.BigEndian.Uint64(p[4:12])
		count := int(binary.BigEndian.Uint32(p[12:16]))
		if lsn != expect {
			return torn(fmt.Errorf("LSN %d, want %d", lsn, expect))
		}
		if len(p) != recordHeaderBytes+count*wire.OpBytes {
			return torn(fmt.Errorf("count %d vs %d payload bytes", count, len(p)))
		}
		body := p[recordHeaderBytes:]
		apply := lsn > s.snapLSN // records at or below it are already in the snapshot
		for i := 0; i < count; i++ {
			key, del, err := wire.DecodeOp(body[i*wire.OpBytes:])
			if err != nil {
				return torn(err)
			}
			if key>>l.shift != int64(s.id) {
				return torn(fmt.Errorf("key %d outside the stripe", key))
			}
			if !apply {
				continue
			}
			b := key - lo
			if del {
				bm[b>>6] &^= 1 << (b & 63)
			} else {
				bm[b>>6] |= 1 << (b & 63)
			}
		}
		if apply {
			rec.ReplayedRecords++
			rec.ReplayedOps += int64(count)
		}
		off += int64(wire.FrameHeaderBytes + len(p))
		expect++
		s.lsn = lsn
	}
}

// snapshot takes one fuzzy checkpoint of the stripe, writes and
// installs it, then truncates the segments it covers. Under the append
// lock it fixes L = the last LSN and waits for every record ≤ L to be
// applied; the walk of the live set, the fsync of every record appended
// by its end, and the write run outside it.
func (s *shardLog) snapshot(l *Log) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	t0 := time.Now()
	s.mu.Lock()
	if s.lsn == s.snapLSN { // nothing new since the last snapshot
		s.mu.Unlock()
		return nil
	}
	lsn := s.lsn
	// The applied point. New runs for this stripe wait on mu, and the
	// runs still unapplied belong to callers past this stripe's lock:
	// they may wait only on higher stripes' locks (a batch takes them in
	// ascending order) or on a combiner, itself a caller past its own
	// append, so the count drains.
	for spins := 0; s.unapplied.Load() != 0; spins++ {
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	// Rotate so every record ≤ lsn lives in a closed segment: after the
	// snapshot is durable they can all be deleted.
	if s.size > 0 || len(s.wbuf) > 0 {
		s.rotateLocked(l)
	}
	s.sinceSnap = 0
	s.mu.Unlock()
	l.hSnapCapNS.Record(int64(time.Since(t0)))

	t1 := time.Now()
	// Sized from the backend's count of the stripe, plus slack for keys
	// inserted during the walk: grown by append from empty, a 500k-key
	// buffer would leave five times its size in garbage.
	lo := int64(s.id) << l.shift
	hi := lo + int64(1)<<l.shift - 1
	n := l.count(lo, hi)
	buf := make([]byte, snapHeaderBytes, snapHeaderBytes+8*(n+n/8+64)+4)
	binary.BigEndian.PutUint32(buf, snapMagic)
	buf[4] = walVersion
	binary.BigEndian.PutUint32(buf[5:], uint32(s.id))
	binary.BigEndian.PutUint64(buf[9:], uint64(l.u))
	binary.BigEndian.PutUint64(buf[17:], lsn)
	l.live(lo, hi, func(key int64) {
		buf = binary.BigEndian.AppendUint64(buf, uint64(key))
	})
	// Write-ahead rule: the walk may have seen the effect of records above
	// L that are not durable yet (SyncEvery > 1, an interval policy). Make
	// every record appended so far durable before the snapshot is, or a
	// crash could leave the snapshot holding a later record's effect
	// without an earlier one's: a state that is no prefix of the log.
	s.mu.Lock()
	s.syncLocked(l)
	s.mu.Unlock()
	if err := l.Err(); err != nil {
		// The sync failed, or appends since an earlier failure were
		// applied but not logged, and the walk may have seen them.
		return err
	}
	// The walk emitted descending keys; the file stores them ascending.
	keys := buf[snapHeaderBytes:]
	for i, j := 0, len(keys)-8; i < j; i, j = i+8, j-8 {
		a, b := binary.BigEndian.Uint64(keys[i:]), binary.BigEndian.Uint64(keys[j:])
		binary.BigEndian.PutUint64(keys[i:], b)
		binary.BigEndian.PutUint64(keys[j:], a)
	}
	count := len(keys) / 8
	binary.BigEndian.PutUint64(buf[25:], uint64(count))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	path := snapshotPath(l.dir, s.id, lsn)
	if err := atomicWrite(path, buf, l.dirf); err != nil {
		return fmt.Errorf("wal: shard %d snapshot: %w", s.id, err)
	}
	l.hSnapWrNS.Record(int64(time.Since(t1)))
	l.cSnaps.Inc(int64(s.id))
	l.cSnapKeys.Add(int64(s.id), int64(count))

	// The new snapshot is durable: drop covered segments and stale
	// snapshots. Deletion failures are not fatal — recovery tolerates
	// surplus files — but surface as the sticky error for visibility.
	t2 := time.Now()
	s.mu.Lock()
	var keep []segmentInfo
	var drop []string
	for _, seg := range s.closedSegs {
		if seg.lastLSN <= lsn {
			drop = append(drop, seg.path)
		} else {
			keep = append(keep, seg)
		}
	}
	s.closedSegs = keep
	prevSnap := s.snapLSN
	s.snapLSN = lsn
	s.mu.Unlock()
	for _, p := range drop {
		if err := os.Remove(p); err != nil {
			l.setErr(fmt.Errorf("wal: truncate: %w", err))
		} else {
			l.cSegsGone.Inc(int64(s.id))
		}
	}
	if prevSnap > 0 {
		if err := os.Remove(snapshotPath(l.dir, s.id, prevSnap)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			l.setErr(fmt.Errorf("wal: drop stale snapshot: %w", err))
		}
	}
	l.hSnapTrNS.Record(int64(time.Since(t2)))
	return nil
}

// loadSnapshot reads and validates one snapshot file of stripe id,
// setting its keys in bm, and returns how many it holds. Keys must be
// strictly ascending and inside the stripe.
func (l *Log) loadSnapshot(path string, id int, lsn uint64, bm []uint64) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(raw) < snapHeaderBytes+4 {
		return 0, fmt.Errorf("wal: snapshot %s: %d bytes", path, len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, fmt.Errorf("wal: snapshot %s: checksum mismatch", path)
	}
	if binary.BigEndian.Uint32(body) != snapMagic || body[4] != walVersion {
		return 0, fmt.Errorf("wal: snapshot %s: bad magic or version", path)
	}
	if got := int(binary.BigEndian.Uint32(body[5:9])); got != id {
		return 0, fmt.Errorf("wal: snapshot %s: shard %d, want %d", path, got, id)
	}
	if got := int64(binary.BigEndian.Uint64(body[9:17])); got != l.u {
		return 0, fmt.Errorf("wal: snapshot %s: universe %d, want %d", path, got, l.u)
	}
	if got := binary.BigEndian.Uint64(body[17:25]); got != lsn {
		return 0, fmt.Errorf("wal: snapshot %s: LSN %d, want %d", path, got, lsn)
	}
	count := binary.BigEndian.Uint64(body[25:33])
	if n := len(body) - snapHeaderBytes; n%8 != 0 || uint64(n/8) != count {
		return 0, fmt.Errorf("wal: snapshot %s: %d keys vs %d body bytes", path, count, n)
	}
	lo, width := int64(id)<<l.shift, int64(1)<<l.shift
	prev := int64(-1)
	for off := snapHeaderBytes; off < len(body); off += 8 {
		i := int64(binary.BigEndian.Uint64(body[off:])) - lo
		if i <= prev || i >= width {
			return 0, fmt.Errorf("wal: snapshot %s: key %d out of order or outside the stripe", path, i+lo)
		}
		bm[i>>6] |= 1 << (i & 63)
		prev = i
	}
	return int(count), nil
}
