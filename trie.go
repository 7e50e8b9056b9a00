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
// If the update clustering is unknown or varies at runtime, use
// WithAdaptiveCombining() instead: each shard then watches its own
// contention signals and flips between direct and combining publication
// with hysteresis (DESIGN.md §Adaptive combining). The shard count itself
// is fixed at construction by WithShards.
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package lockfreetrie

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/adapt"
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
	shards     int
	combining  bool
	adaptive   bool
	acfg       adapt.Config
	noCompress bool
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

// WithoutCompressedDescents disables the cache-compressed trie descents:
// Predecessor/Successor walk the dense node array instead of consulting
// the per-64-node occupancy summary words that let them skip empty
// subtrie regions in one load (internal/bitstrie, DESIGN.md
// §Cache-compressed descents). The summaries are advisory — every answer
// is identical either way — so the only reason to turn them off is
// measurement: triebench's cc1 experiment uses this switch to embed the
// uncompressed baseline. Composes with every other option and applies to
// every shard.
func WithoutCompressedDescents() Option {
	return func(c *config) error {
		c.noCompress = true
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

// AdaptiveConfig tunes WithAdaptiveCombining. The zero value of every
// field selects a default tuned from the CB1/AD1 trajectory data
// (BENCH_combine.json, BENCH_adaptive.json: clustered workloads drain
// 6.8–16 ops per combining round and park 7–15 concurrent publishers per
// shard, thin-spread ones ~1 and 0–4, so the default hysteresis band
// [1.4, 4.0] separates the regimes with margin on both sides).
type AdaptiveConfig struct {
	// SampleEvery is the number of updates between signal samples per
	// shard (default 128).
	SampleEvery int
	// EnableThreshold is the contention estimate — the batch size a
	// combining round would drain, inferred from announced and in-flight
	// concurrent updates — at which a shard switches its updates to the
	// combining layer (default 4.0; deliberately conservative, because a
	// wrong enable is hard to detect from inside — see DESIGN.md
	// §Adaptive combining).
	EnableThreshold float64
	// DisableThreshold is the observed batch-size EWMA at which a
	// combining shard switches back to direct publication (default 1.4).
	// Must be below EnableThreshold; the gap is the hysteresis band.
	DisableThreshold float64
	// RetractRateDisable is the fraction of submissions escaping a busy
	// combiner (retraction rate) that disables combining regardless of
	// batch sizes (default 0.5).
	RetractRateDisable float64
	// SmoothingAlpha is the EWMA weight of the newest signal observation,
	// in (0, 1] (default 0.4). Higher values react to regime changes in
	// fewer samples; lower values demand more sustained evidence before a
	// flip.
	SmoothingAlpha float64
	// MinDwellSamples is the minimum number of samples a shard stays in
	// a mode before it may flip again (default 4).
	MinDwellSamples int
	// StartCombining selects each shard's initial mode (default:
	// direct).
	StartCombining bool
}

// WithAdaptiveCombining is WithCombining with the decision moved from
// construction time to runtime, per shard: every shard gets publication
// slots AND a controller that samples the shard's contention signals
// (announcement-list length and in-flight updates while direct; drained
// batch size, combiner-election contention and retraction pressure while
// combining) every SampleEvery updates and flips an atomic mode word the
// update path reads on every operation. Enable and disable use distinct
// thresholds plus a minimum dwell, so workloads wandering near one
// threshold do not thrash, and operations in flight across a flip stay
// linearizable — the mode word is advisory routing over two publication
// paths that are already safe concurrently (DESIGN.md §Adaptive
// combining).
//
// Use it when the update clustering is unknown or varies: a shard that
// stays thin keeps the direct path's throughput (the AD1 experiment gates
// ≥ 0.95× uncombined on a thin-spread mix), while a shard that becomes hot
// converges to the combining path's (≥ 0.9× always-on combining on
// clustered mixes, BENCH_adaptive.json). With a KNOWN stable workload the
// static choices — WithCombining() or nothing — avoid the sampling tax
// and the convergence transient. At most one AdaptiveConfig may be given;
// none selects the tuned defaults. Overrides WithCombining when both are
// set. Composes with WithShards exactly as WithCombining does.
func WithAdaptiveCombining(cfg ...AdaptiveConfig) Option {
	return func(c *config) error {
		if len(cfg) > 1 {
			return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: at most one AdaptiveConfig, got %d", len(cfg))
		}
		c.adaptive = true
		if len(cfg) == 1 {
			a := cfg[0]
			// Out-of-domain values error loudly rather than silently
			// coercing to defaults — a controller running with tuning the
			// caller did not ask for is worse than a construction error.
			// The checks are phrased as !(in-range) so NaN (for which
			// every ordered comparison is false, including the clamps
			// further down) is rejected too.
			if !(a.SmoothingAlpha >= 0 && a.SmoothingAlpha <= 1) {
				return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: SmoothingAlpha %v outside (0, 1]", a.SmoothingAlpha)
			}
			if !(a.RetractRateDisable >= 0 && a.RetractRateDisable <= 1) {
				return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: RetractRateDisable %v outside (0, 1] (it is compared against a rate)", a.RetractRateDisable)
			}
			if a.SampleEvery < 0 || a.MinDwellSamples < 0 {
				return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: SampleEvery %d and MinDwellSamples %d must not be negative",
					a.SampleEvery, a.MinDwellSamples)
			}
			if !(a.EnableThreshold >= 0) || !(a.DisableThreshold >= 0) ||
				math.IsInf(a.EnableThreshold, 1) || math.IsInf(a.DisableThreshold, 1) {
				return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: thresholds must be finite and non-negative")
			}
			// Validate the band against the EFFECTIVE values, so setting
			// one threshold against the other's default errors just as
			// loudly as setting both inconsistently.
			en, dis := a.EnableThreshold, a.DisableThreshold
			if en == 0 {
				en = adapt.DefaultEnable
			}
			if dis == 0 {
				dis = adapt.DefaultDisable
			}
			if dis >= en {
				return fmt.Errorf("lockfreetrie: WithAdaptiveCombining: DisableThreshold %v (default %v) must be below EnableThreshold %v (default %v)",
					dis, adapt.DefaultDisable, en, adapt.DefaultEnable)
			}
			c.acfg = adapt.Config{
				SampleEvery:    int64(a.SampleEvery),
				Alpha:          a.SmoothingAlpha,
				Enable:         a.EnableThreshold,
				Disable:        a.DisableThreshold,
				RetractDisable: a.RetractRateDisable,
				MinDwell:       int64(a.MinDwellSamples),
				StartCombining: a.StartCombining,
			}
		}
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

// newSharded builds the k-shard table carrying the configured options.
func (c *config) newSharded(universe int64, k int) (*sharded.Trie, error) {
	var t *sharded.Trie
	var err error
	switch {
	case c.adaptive:
		t, err = sharded.NewAdaptive(universe, k, c.acfg)
	case c.combining:
		t, err = sharded.NewCombining(universe, k)
	default:
		t, err = sharded.New(universe, k)
	}
	if err != nil {
		return nil, err
	}
	if c.noCompress {
		// The table is still private here, so the plain-field switch is
		// safe.
		for i := 0; i < t.Shards(); i++ {
			t.Shard(i).Bits().SetCompressedDescents(false)
		}
	}
	return t, nil
}

// New returns an empty trie over the universe {0,…,universe−1}. universe
// must be at least 2 and at most MaxUniverse; it is padded to the next
// power of two (visible via Universe()). Memory is Θ(universe).
//
// With no options the trie is the paper's single lock-free binary trie,
// held as a one-shard table; WithShards(k) partitions the universe across
// k independent tries.
func New(universe int64, opts ...Option) (*Trie, error) {
	cfg := config{shards: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validateObservability(); err != nil {
		return nil, err
	}
	st, err := cfg.newSharded(universe, cfg.shards)
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

// Combining reports whether the trie has a combining layer (WithCombining
// or WithAdaptiveCombining).
func (t *Trie) Combining() bool { return t.st.Combining() }

// AdaptiveCombining reports whether WithAdaptiveCombining was set.
func (t *Trie) AdaptiveCombining() bool { return t.st.Adaptive() }

// AdaptiveStats returns the cumulative mode-transition counts summed over
// all shards: enables (direct→combining flips) and disables (the
// reverse). Zeros unless WithAdaptiveCombining was set.
func (t *Trie) AdaptiveStats() (enables, disables int64) { return t.st.AdaptiveStats() }

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
