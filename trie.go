// Package lockfreetrie is a lock-free binary trie for dynamic sets of
// integer keys with predecessor queries, reproducing "A Lock-free Binary
// Trie" (Jeremy Ko, ICDCS 2024 / arXiv:2405.06208).
//
// The trie stores a set S ⊆ {0,…,u−1} and supports, for any number of
// concurrent goroutines without locks:
//
//   - Contains(x): O(1) worst-case steps,
//   - Insert(x), Delete(x), Predecessor(y): O(ċ² + log u) amortized steps,
//     where ċ is the operation's point contention.
//
// All operations are linearizable (the sharded variant's one narrow
// exception is documented at WithShards). The package also exposes the
// paper's §4 building block as Relaxed: a wait-free trie whose predecessor
// query may abstain (return ok=false) while updates are in flight, but
// answers exactly whenever the relevant keys are quiescent. Relaxed is
// always one unsharded trie; the sharding and combining options below
// apply to Trie only.
//
// # Quick start
//
//	tr, err := lockfreetrie.New(1 << 20)
//	if err != nil { ... }
//	tr.Insert(42)
//	tr.Insert(1000)
//	p, _ := tr.Predecessor(500) // p == 42
//
// For high update rates on disjoint key ranges, shard the universe:
//
//	tr, err := lockfreetrie.New(1<<20, lockfreetrie.WithShards(16))
//
// Each shard is an independent trie with its own announcement lists, so
// operations on different shards never contend (see DESIGN.md §Sharding).
// When many goroutines update the SAME shard, add WithCombining() to batch
// their announcements through a per-shard flat-combining layer, or call
// Trie.ApplyBatch directly if the application already aggregates writes.
// Both the shard count and the publication path are fixed at construction.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package lockfreetrie

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/wal"
)

// MaxUniverse bounds the universe size (space is Θ(u)).
const MaxUniverse = int64(1) << 32

// KeyRangeError reports a key outside [0, Universe()).
type KeyRangeError struct {
	Key      int64
	Universe int64
}

// Error implements error.
func (e *KeyRangeError) Error() string {
	return fmt.Sprintf("lockfreetrie: key %d outside universe [0, %d)", e.Key, e.Universe)
}

// config collects the functional options of New and NewRelaxed.
type config struct {
	shards    int
	combining bool
	// Observability options (obs.go). latEvery 0 selects the default
	// sampling cadence.
	obsOff       bool
	latEvery     int64
	descentStats bool
	// Durability (durability.go); nil = in-memory only.
	dur *durConfig
}

// Option configures New and NewRelaxed.
type Option func(*config) error

// WithShards partitions the universe into k contiguous shards, each an
// independent trie with its own announcement lists, plus a lock-free
// occupancy summary that lets Predecessor, Floor, Max, Range and Keys skip
// empty shards. k must be a power of two; the padded universe must leave
// every shard at least two keys wide. k = 1 (the default) is the single
// unsharded trie of the paper.
//
// Sharding trades the predecessor fast path for update scalability:
// operations on different shards touch disjoint cache lines, while a
// Predecessor whose owning shard is empty below the query key pays an
// O(k)-validated scan of lower shards (see internal/sharded).
//
// Consistency: Search, Insert and Delete remain strictly linearizable at
// any shard count, as does a Predecessor answered by the query key's own
// shard. A cross-shard Predecessor validates its scan of the lower shards
// and retries while updates keep landing in them; only if some scanned
// lower shard fails validation on all 64 attempts of the retry budget —
// e.g. a writer parked mid-update there throughout, or an unbroken
// stream of completed updates below the query — does it return the last
// scan's answer under the same weak-consistency contract as Range.
// Updates in the query key's own shard never degrade the answer. The
// retry budget cannot be unbounded without giving up lock-freedom: a
// writer parked mid-update would otherwise spin the query forever.
func WithShards(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("lockfreetrie: WithShards(%d): shard count must be at least 1", k)
		}
		c.shards = k
		return nil
	}
}

// WithCombining routes Insert and Delete through a per-shard flat-combining
// layer (internal/combine): concurrent updates on the same shard publish to
// a fixed array of padded publication slots, one goroutine elects itself
// combiner per round, and the drained batch is applied through the core
// batch entrypoint — announcing once per batch on the shard's U-ALL/RU-ALL
// instead of once per operation. Composes with WithShards (each shard gets
// its own combiner; the default k = 1 gives one global combiner).
//
// Trade-offs: queries and the explicit ApplyBatch are untouched, and the
// underlying trie stays lock-free — an update the current combiner has not
// claimed can always retract and run the ordinary per-op path. What is
// given up is per-op lock-freedom for claimed updates: an operation a
// combiner has drained waits for that round to finish (flat combining's
// standard trade; the claim window spans one batch application of
// lock-free code). Worth it when a shard has more concurrent updaters
// than the host has processors to run them: with 16 goroutines on a
// 2-vCPU host, CB1 (BENCH_combine.json) measured 2.9–4.7× the per-op
// throughput at GOMAXPROCS=1, but at GOMAXPROCS=2 1.26× on a
// predecessor-heavy mix, 1.16× on a uniform one, and 0.84× and 0.80× on
// update-only mixes over one shard and one hot shard of 16. With few
// concurrent updaters per shard the batches degenerate to size 1 and the
// handoff is pure overhead.
func WithCombining() Option {
	return func(c *config) error {
		c.combining = true
		return nil
	}
}

// set is the backend contract the exported API layers key validation and
// the composed operations (Floor, Max, Range, Keys, Ceiling) on top of: the
// sharded table itself, or the durable wrapper around it.
type set interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) int64
	Successor(y int64) int64
	ApplyBatch(ops []core.BatchOp)
	Len() int64
	U() int64
}

// Trie is a lock-free linearizable binary trie. All methods are safe for
// concurrent use by any number of goroutines. Create instances with New.
type Trie struct {
	set      set           // st, or the write-ahead wrapper around it
	st       *sharded.Trie // the backend at every shard count
	obs      *obsState     // nil under WithoutObservability
	wal      *wal.Log      // non-nil under WithDurability
	recovery RecoveryStats
}

// newConfig applies opts over the defaults, after checking universe
// against MaxUniverse before anything is allocated: the per-shard bound
// below it would let k shards of 2^32 keys each through. New and
// NewRelaxed share it.
func newConfig(universe int64, opts []Option) (config, error) {
	cfg := config{shards: 1}
	if universe > MaxUniverse {
		return cfg, fmt.Errorf("lockfreetrie: universe %d exceeds MaxUniverse (%d)", universe, MaxUniverse)
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// New returns an empty trie over the universe {0,…,universe−1}. universe
// must be at least 2 and at most MaxUniverse; it is padded to the next
// power of two (visible via Universe()). Memory is Θ(universe).
//
// With no options the trie is the paper's single lock-free binary trie,
// held as a one-shard table; WithShards(k) partitions the universe across
// k independent tries.
func New(universe int64, opts ...Option) (*Trie, error) {
	cfg, err := newConfig(universe, opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.validateObservability(); err != nil {
		return nil, err
	}
	mk := sharded.New
	if cfg.combining {
		mk = sharded.NewCombining
	}
	st, err := mk(universe, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("lockfreetrie: %w", err)
	}
	t := &Trie{set: st, st: st}
	// Observability is on by default: the table is instrumented while it
	// is still private (plain-store attach points), and the gauges are
	// wired once the backend is assembled.
	if !cfg.obsOff {
		t.obs = newObsState(&cfg)
		t.obs.instrumentSharded(st)
	}
	// Durability wraps the assembled backend before anything reads it:
	// recovery seeds the unwrapped table (not re-logged), then the
	// write-ahead wrapper interposes on every later update.
	if cfg.dur != nil {
		if err := t.attachDurability(cfg.dur); err != nil {
			return nil, err
		}
	}
	if t.obs != nil {
		t.registerObsGauges()
	}
	return t, nil
}

// Universe returns the padded universe size 2^⌈log₂ u⌉.
func (t *Trie) Universe() int64 { return t.st.U() }

// Shards returns the configured shard count (1 for the unsharded trie).
func (t *Trie) Shards() int { return t.st.Shards() }

// Combining reports whether the trie has a combining layer (WithCombining).
func (t *Trie) Combining() bool { return t.st.Combining() }

// Len returns the number of keys currently in the set. O(shards): it sums
// the per-shard occupancy summary (one counter on the unsharded trie).
//
// Consistency: Len is weakly consistent, like sync.Map's length-by-Range.
// Each winning update bumps a counter adjacent to — not atomic with — its
// linearization point, so a Len racing with updates may be off by the
// number of in-flight operations, and it may transiently over-count: an
// insert increments its shard's counter before the core operation and
// rolls back on a lost race. At any quiescent instant — no update in
// flight — Len is exactly |S|. Use Keys and count when an exact answer
// under concurrency is needed.
func (t *Trie) Len() int64 { return t.set.Len() }

func (t *Trie) check(x int64) error {
	if x < 0 || x >= t.set.U() {
		return &KeyRangeError{Key: x, Universe: t.set.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
//
// The primitive entrypoints (Contains, Insert, Delete, Predecessor,
// Successor, ApplyBatch) each pay one striped counter increment for the
// ops.* metrics, and every WithLatencySampling-th operation is timed into
// the latency.*_ns histograms; composed operations (Floor, Max, Range,
// Keys, …) run their legs through the backend directly and are not
// separately counted. WithoutObservability removes all of it.
func (t *Trie) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	if o := t.obs; o != nil && o.ops[opSearch].Inc(x)%o.every == 0 {
		start := time.Now()
		in := t.set.Search(x)
		o.lats[opSearch].Record(int64(time.Since(start)))
		return in, nil
	}
	return t.set.Search(x), nil
}

// Insert adds x to the set; inserting a present key is a no-op.
func (t *Trie) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	if o := t.obs; o != nil && o.ops[opInsert].Inc(x)%o.every == 0 {
		start := time.Now()
		t.set.Insert(x)
		o.lats[opInsert].Record(int64(time.Since(start)))
		return nil
	}
	t.set.Insert(x)
	return nil
}

// Delete removes x from the set; deleting an absent key is a no-op.
func (t *Trie) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	if o := t.obs; o != nil && o.ops[opDelete].Inc(x)%o.every == 0 {
		start := time.Now()
		t.set.Delete(x)
		o.lats[opDelete].Record(int64(time.Since(start)))
		return nil
	}
	t.set.Delete(x)
	return nil
}

// Predecessor returns the largest key in the set strictly smaller than y,
// or −1 if there is none. Linearizable on the unsharded trie; with
// WithShards, see that option's consistency note for the cross-shard
// degraded case.
func (t *Trie) Predecessor(y int64) (int64, error) {
	if err := t.check(y); err != nil {
		return -1, err
	}
	if o := t.obs; o != nil && o.ops[opPredecessor].Inc(y)%o.every == 0 {
		start := time.Now()
		p := t.set.Predecessor(y)
		o.lats[opPredecessor].Record(int64(time.Since(start)))
		return p, nil
	}
	return t.set.Predecessor(y), nil
}

// Successor returns the smallest key in the set strictly greater than y,
// or −1 if there is none — the upward mirror of Predecessor. The paper's
// announcement machinery is one-directional (toward predecessors), so
// Successor is a composed operation with the Floor/Max/Range family's
// consistency contract: every leg it runs is individually linearizable,
// the composition is weakly consistent under concurrent updates on keys in
// (y, result), and at quiescence the answer is exact. With WithShards the
// owning shard answers directly when it can; otherwise higher shards are
// scanned through the occupancy summary with the same pending/version
// validation (and ScanRetries degradation bound) as the cross-shard
// Predecessor.
func (t *Trie) Successor(y int64) (int64, error) {
	if err := t.check(y); err != nil {
		return -1, err
	}
	if o := t.obs; o != nil && o.ops[opSuccessor].Inc(y)%o.every == 0 {
		start := time.Now()
		s := t.set.Successor(y)
		o.lats[opSuccessor].Record(int64(time.Since(start)))
		return s, nil
	}
	return t.set.Successor(y), nil
}

// Ceiling returns the smallest key ≥ x in the set, or −1 if there is none.
// Composed from Contains and Successor, mirroring Floor; linearizable when
// x is not being concurrently removed, weakly consistent otherwise.
func (t *Trie) Ceiling(x int64) (int64, error) {
	if err := t.check(x); err != nil {
		return -1, err
	}
	if t.set.Search(x) {
		return x, nil
	}
	return t.set.Successor(x), nil
}

// Min returns the smallest key in the set, or −1 if the set is empty,
// mirroring Max.
func (t *Trie) Min() (int64, error) {
	return t.Ceiling(0)
}

// Floor returns the largest key ≤ x in the set, or −1 if there is none.
// Composed from Contains and Predecessor; each leg is linearizable, and the
// composition is linearizable when x is not being concurrently removed.
func (t *Trie) Floor(x int64) (int64, error) {
	if err := t.check(x); err != nil {
		return -1, err
	}
	if t.set.Search(x) {
		return x, nil
	}
	return t.set.Predecessor(x), nil
}

// Max returns the largest key in the set, or −1 if the set is empty.
func (t *Trie) Max() (int64, error) {
	return t.Floor(t.set.U() - 1)
}

// Range calls fn on every key in [lo, hi], from the largest down to the
// smallest, stopping early if fn returns false. It is built from
// linearizable Floor/Predecessor steps, so each visited key was present at
// some instant during the scan, but the scan as a whole is weakly
// consistent (like sync.Map.Range): keys inserted or deleted mid-scan may
// or may not be visited.
func (t *Trie) Range(lo, hi int64, fn func(key int64) bool) error {
	if err := t.check(lo); err != nil {
		return err
	}
	if err := t.check(hi); err != nil {
		return err
	}
	k, err := t.Floor(hi)
	if err != nil {
		return err
	}
	for k >= lo && k >= 0 {
		if !fn(k) {
			return nil
		}
		if k == 0 {
			return nil
		}
		k = t.set.Predecessor(k)
	}
	return nil
}

// OpKind discriminates the update kinds ApplyBatch accepts.
type OpKind uint8

const (
	// OpInsert adds the key to the set.
	OpInsert OpKind = iota + 1
	// OpDelete removes the key from the set.
	OpDelete
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "Insert"
	case OpDelete:
		return "Delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation of an ApplyBatch call.
type Op struct {
	Kind OpKind
	Key  int64
}

// ApplyBatch applies a sequence of updates as one batch, for callers that
// already aggregate their writes (an order-book matching cycle, a
// telemetry window flush): the batch pays one announcement pass per
// shard-run instead of one per operation, with or without WithCombining —
// the option only changes how ordinary Insert/Delete calls find their
// batches; pre-batched callers skip the publication slots entirely.
//
// Semantics: ops apply by their FINAL effect per key — for each key, the
// last op in ops wins, exactly as if the sequence had run in order with
// the intermediate states unobserved (the batch's per-key linearization
// points are its update-node activations inside the single announcement
// round; see DESIGN.md §Combining layer). Each surviving op linearizes
// individually, so a batch is NOT an atomic multi-key transaction:
// concurrent readers may observe any prefix-consistent mixture. Invalid
// ops (key out of range, unknown kind) are skipped and reported.
//
// The returned slice is nil when every op was accepted; otherwise it has
// len(ops) entries with errs[i] describing why ops[i] was rejected (nil
// for accepted ops).
func (t *Trie) ApplyBatch(ops []Op) []error {
	if len(ops) == 0 {
		return nil
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(ops))
		}
		errs[i] = err
	}
	// The translated batch lives only for the duration of the call, so
	// the buffer is pooled: a steady batching caller (the server's sweep
	// loop) would otherwise allocate a batch-sized slice per sweep.
	scratch := bopsPool.Get().(*bopsScratch)
	bops := scratch.ops[:0]
	for i, op := range ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			fail(i, fmt.Errorf("lockfreetrie: ApplyBatch op %d: invalid kind %v", i, op.Kind))
			continue
		}
		if err := t.check(op.Key); err != nil {
			fail(i, err)
			continue
		}
		bops = append(bops, core.BatchOp{Key: op.Key, Del: op.Kind == OpDelete})
	}
	if len(bops) > 0 {
		if o := t.obs; o != nil && o.ops[opApplyBatch].Inc(bops[0].Key)%o.every == 0 {
			start := time.Now()
			t.set.ApplyBatch(combine.SortDedup(bops))
			o.lats[opApplyBatch].Record(int64(time.Since(start)))
		} else {
			t.set.ApplyBatch(combine.SortDedup(bops))
		}
	}
	scratch.ops = bops
	bopsPool.Put(scratch)
	return errs
}

// bopsScratch pools ApplyBatch's translated-op buffers.
type bopsScratch struct{ ops []core.BatchOp }

var bopsPool = sync.Pool{New: func() any { return new(bopsScratch) }}

// Keys returns the keys in [lo, hi] in ascending order under the same
// weak-consistency contract as Range.
func (t *Trie) Keys(lo, hi int64) ([]int64, error) {
	var out []int64
	err := t.Range(lo, hi, func(k int64) bool {
		out = append(out, k)
		return true
	})
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}
