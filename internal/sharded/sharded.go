// Package sharded partitions the universe {0,…,u−1} into a power-of-two
// number of contiguous shards, each backed by an independent core trie with
// its own U-ALL/RU-ALL/P-ALL announcement lists. Operations on disjoint key
// ranges then announce on disjoint cache lines, removing the global
// announcement-list hotspot that caps multicore throughput of the unsharded
// trie (DESIGN.md §Sharding).
//
// Each shard additionally maintains a lock-free occupancy summary — three
// padded per-shard atomics updated only on that shard's fast paths:
//
//   - count: an over-approximation of the shard's cardinality. A winning
//     Insert increments BEFORE its core operation and a winning Delete
//     decrements AFTER its core operation (a losing Insert rolls its
//     increment back), so at every instant count ≥ |S ∩ shard| and
//     count == 0 proves the shard empty at the instant of the read. This is
//     what lets Predecessor, Floor, Max, Range and Keys skip empty shards
//     instead of paying a full per-shard traversal.
//   - pending: the number of in-flight updates (incremented before, and
//     decremented after, every update attempt).
//   - version: the number of completed winning updates.
//
// Cross-shard Predecessor stitches shards together: it queries the owning
// shard and, when that shard holds no key below y, falls back to the max of
// the nearest lower non-empty shard. The fallback validates its scan against
// the pending/version pair (see Predecessor) so the common case is strictly
// linearizable, and retries — each retry forced by another operation's
// completed progress — otherwise.
package sharded

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/combine"
	"repro/internal/core"
)

// MaxShards bounds the shard count (each shard costs Θ(u/k) space plus a
// padded header; the summary scan is O(k)).
const MaxShards = 1 << 16

// ScanRetries bounds Predecessor's fallback validation loop. Validation
// fails only when a concurrent update announced or completed in a scanned
// lower shard mid-scan, so every retry is forced by system-wide progress
// and the loop is lock-free; the bound exists so a pathological churn
// storm (or a writer parked mid-update for the whole sequence) degrades to
// the documented weakly-consistent answer instead of unbounded latency. A
// variable, not a constant, so the linearizability tests can raise it far
// enough that an OS-preempted writer always resumes within the spin,
// making the weak path unreachable under test schedulers.
var ScanRetries = 64

// shard is one partition: an independent core trie plus its occupancy
// summary, (with NewCombining or NewAdaptive) its flat-combining
// publication slots, and (with NewAdaptive) the controller that flips its
// publication mode at runtime. Padded to 128 bytes (two cache lines,
// clear of the adjacent-line prefetcher) so neighbouring shards' counters
// never false-share.
type shard struct {
	trie    *core.Trie
	count   atomic.Int64 // cardinality over-approximation (≥ |S ∩ shard|)
	pending atomic.Int64 // in-flight updates
	version atomic.Int64 // completed winning updates
	comb    *combine.Combiner
	ctl     *adapt.Controller
	_       [80]byte
}

// max returns the largest key in the shard (local coordinates), or −1. Two
// core operations; callers that need atomicity run it inside the validated
// window of Predecessor's fallback.
func (s *shard) max(width int64) int64 {
	if s.trie.Search(width - 1) {
		return width - 1
	}
	return s.trie.Predecessor(width - 1)
}

// Trie is the sharded lock-free binary trie. Create with New; the zero
// value is not usable. All methods are safe for concurrent use.
type Trie struct {
	u         int64 // padded universe size
	k         int   // shard count
	width     int64 // u / k, keys per shard
	shardBits uint  // log2(width)
	shards    []shard
}

// geometry validates (u, k) and returns the padded universe, shard width
// and width's log2.
func geometry(u int64, k int) (pu, width int64, shardBits uint, err error) {
	if k < 1 || k > MaxShards || k&(k-1) != 0 {
		return 0, 0, 0, fmt.Errorf("sharded: shard count %d must be a power of two in [1, %d]", k, MaxShards)
	}
	if u < 2 {
		return 0, 0, 0, fmt.Errorf("sharded: universe %d must be at least 2", u)
	}
	pu = int64(1) << uint(bits.Len64(uint64(u-1)))
	if int64(k) > pu/2 {
		return 0, 0, 0, fmt.Errorf("sharded: %d shards over universe %d leave shards of width < 2", k, pu)
	}
	width = pu / int64(k)
	return pu, width, uint(bits.Len64(uint64(width)) - 1), nil
}

// New returns an empty sharded trie over {0,…,u−1} (u ≥ 2, padded to the
// next power of two) split into k contiguous shards. k must be a power of
// two with 1 ≤ k ≤ min(MaxShards, paddedU/2), so every shard spans at least
// two keys.
func New(u int64, k int) (*Trie, error) { return newTrie(u, k, false, nil) }

// NewCombining is New with per-shard flat combining enabled: every shard
// gets a combine.Combiner (default slot count) and Insert/Delete publish
// to the owning shard's slots instead of running the per-op path, so
// concurrent same-shard updates are drained into single core.ApplyBatch
// calls that announce once per batch (DESIGN.md §Combining layer). Reads
// and ApplyBatch are identical in both modes.
func NewCombining(u int64, k int) (*Trie, error) { return newTrie(u, k, true, nil) }

// NewAdaptive is NewCombining with the construction-time decision moved to
// runtime: every shard gets a combiner AND an adapt.Controller, and each
// Insert/Delete routes on the owning shard's current mode word — direct
// per-op publication until that shard's contention signals (announcement
// length, in-flight updates, drained batch sizes, election contention,
// retraction pressure) say combining would amortize, and back again with
// hysteresis when batches degenerate (DESIGN.md §Adaptive combining).
// cfg's zero fields take the tuned defaults.
func NewAdaptive(u int64, k int, cfg adapt.Config) (*Trie, error) {
	return newTrie(u, k, true, &cfg)
}

// newTrie builds the shards: combining adds a combiner per shard, and a
// non-nil acfg (NewAdaptive) a controller over it.
func newTrie(u int64, k int, combining bool, acfg *adapt.Config) (*Trie, error) {
	pu, width, shardBits, err := geometry(u, k)
	if err != nil {
		return nil, err
	}
	t := &Trie{
		u:         pu,
		k:         k,
		width:     width,
		shardBits: shardBits,
		shards:    make([]shard, k),
	}
	for i := range t.shards {
		c, err := core.New(t.width)
		if err != nil {
			return nil, err
		}
		sh := &t.shards[i]
		sh.trie = c
		if combining {
			sh.comb = combine.New(0,
				func(ops []combine.Op) { t.applyShardBatch(sh, ops) },
				func(op combine.Op) {
					if op.Del {
						t.deleteDirect(sh, op.Key)
					} else {
						t.insertDirect(sh, op.Key)
					}
				})
			if acfg != nil {
				sh.ctl = adapt.New(*acfg, combine.Sampler(sh.comb,
					func() int64 { return int64(sh.trie.AnnouncedUpdates()) },
					sh.pending.Load))
			}
		}
	}
	return t, nil
}

// U returns the (padded) universe size.
func (t *Trie) U() int64 { return t.u }

// Shards returns the shard count.
func (t *Trie) Shards() int { return t.k }

// ShardWidth returns the number of keys per shard.
func (t *Trie) ShardWidth() int64 { return t.width }

// Shard returns the core trie backing shard i (tests, stats, trieviz).
func (t *Trie) Shard(i int) *core.Trie { return t.shards[i].trie }

// Len returns the summed occupancy summary — an O(k) cardinality estimate,
// exact at quiescence.
func (t *Trie) Len() int64 {
	var n int64
	for i := range t.shards {
		n += t.ShardLen(i)
	}
	return n
}

// ShardLen returns shard i's occupancy summary: never below the shard's
// cardinality, and equal to it at quiescence.
func (t *Trie) ShardLen(i int) int64 { return t.shards[i].count.Load() }

// home splits x into its shard and local coordinates.
func (t *Trie) home(x int64) (*shard, int64) {
	return &t.shards[x>>t.shardBits], x & (t.width - 1)
}

// Search reports whether x is in the set. O(1) worst-case; exactly the
// owning shard's linearizable Search.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Search(x int64) bool {
	sh, lx := t.home(x)
	return sh.trie.Search(lx)
}

// Insert adds x to the set; linearized at the owning shard's Insert. The
// count increment precedes the core operation (and is rolled back on a lost
// race) so count never under-approximates the shard's cardinality. With
// NewCombining the operation publishes to the owning shard's combiner
// instead, and linearizes inside the round (or the retraction fallback)
// that applies it.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Insert(x int64) {
	sh, lx := t.home(x)
	if sh.ctl != nil {
		sh.ctl.Tick()
		if sh.ctl.Combining() {
			sh.comb.Submit(combine.Op{Key: lx})
			return
		}
		t.insertDirect(sh, lx)
		return
	}
	if sh.comb != nil {
		sh.comb.Submit(combine.Op{Key: lx})
		return
	}
	t.insertDirect(sh, lx)
}

func (t *Trie) insertDirect(sh *shard, lx int64) {
	sh.pending.Add(1)
	sh.count.Add(1)
	if sh.trie.Add(lx) {
		sh.version.Add(1)
	} else {
		sh.count.Add(-1)
	}
	sh.pending.Add(-1)
}

// Delete removes x from the set; linearized at the owning shard's Delete.
// The count decrement follows the core operation, preserving the
// over-approximation invariant. Routed like Insert under NewCombining.
//
// Precondition: 0 ≤ x < U().
func (t *Trie) Delete(x int64) {
	sh, lx := t.home(x)
	if sh.ctl != nil {
		sh.ctl.Tick()
		if sh.ctl.Combining() {
			sh.comb.Submit(combine.Op{Key: lx, Del: true})
			return
		}
		t.deleteDirect(sh, lx)
		return
	}
	if sh.comb != nil {
		sh.comb.Submit(combine.Op{Key: lx, Del: true})
		return
	}
	t.deleteDirect(sh, lx)
}

func (t *Trie) deleteDirect(sh *shard, lx int64) {
	sh.pending.Add(1)
	if sh.trie.Remove(lx) {
		sh.count.Add(-1)
		sh.version.Add(1)
	}
	sh.pending.Add(-1)
}

// applyShardBatch wraps one shard's core.ApplyBatch in the occupancy-
// summary discipline: the whole batch counts as one in-flight window
// (pending), every insert's count increment precedes the core call and
// rolls back on a loss, winning deletes decrement afterwards — so count
// over-approximates at every instant, exactly as in the per-op paths. ops
// carries shard-local keys, sorted strictly ascending, one op per key.
func (t *Trie) applyShardBatch(sh *shard, ops []core.BatchOp) {
	sh.pending.Add(1)
	var insPre int64
	for i := range ops {
		if !ops[i].Del {
			insPre++
		}
	}
	sh.count.Add(insPre)
	sh.trie.ApplyBatch(ops)
	var post, wins int64
	for i := range ops {
		switch {
		case ops[i].Del && ops[i].Won:
			post--
			wins++
		case !ops[i].Del && !ops[i].Won:
			post-- // roll back the pre-increment of a lost insert
		case !ops[i].Del && ops[i].Won:
			wins++
		}
	}
	sh.count.Add(post)
	sh.version.Add(wins)
	sh.pending.Add(-1)
}

// ApplyBatch applies a pre-batched op sequence — global keys, sorted
// strictly ascending, one op per key (combine.SortDedup's output form) —
// splitting it into per-shard runs. It REBASES the keys in ops to shard
// coordinates in place (callers own the slice; the public facade passes
// its conversion scratch) and fills the Won flags. Each shard's run is one
// counter-wrapped core.ApplyBatch; ops in different shards apply in
// ascending shard order, each linearizing individually.
func (t *Trie) ApplyBatch(ops []core.BatchOp) {
	for start := 0; start < len(ops); {
		j := int(ops[start].Key >> t.shardBits)
		end := start
		for end < len(ops) && int(ops[end].Key>>t.shardBits) == j {
			ops[end].Key &= t.width - 1
			end++
		}
		t.applyShardBatch(&t.shards[j], ops[start:end])
		start = end
	}
}

// Combining reports whether this trie HAS a per-shard combining layer
// (NewCombining and NewAdaptive both do; under NewAdaptive whether a
// given update publishes through it is the owning shard's live mode —
// see ShardCombining).
func (t *Trie) Combining() bool { return t.shards[0].comb != nil }

// Adaptive reports whether per-shard controllers drive the publication
// mode at runtime.
func (t *Trie) Adaptive() bool { return t.shards[0].ctl != nil }

// ShardCombining reports shard i's current publication mode (always true
// under NewCombining, always false under New).
func (t *Trie) ShardCombining(i int) bool {
	sh := &t.shards[i]
	if sh.ctl != nil {
		return sh.ctl.Combining()
	}
	return sh.comb != nil
}

// ShardController returns shard i's adaptive controller, or nil (tests,
// stats).
func (t *Trie) ShardController(i int) *adapt.Controller { return t.shards[i].ctl }

// ShardCombiner returns shard i's combiner, or nil when combining is
// disabled (observability wiring, tests).
func (t *Trie) ShardCombiner(i int) *combine.Combiner { return t.shards[i].comb }

// AdaptiveStats sums the per-shard mode-transition counters (zeros when
// the trie is not adaptive): cumulative direct→combining enables and
// combining→direct disables across all shards.
func (t *Trie) AdaptiveStats() (enables, disables int64) {
	for i := range t.shards {
		if c := t.shards[i].ctl; c != nil {
			e, d := c.Transitions()
			enables += e
			disables += d
		}
	}
	return enables, disables
}

// CombineStats sums the per-shard combiner counters (zeros when combining
// is disabled); MaxBatch is the largest single round on any shard.
func (t *Trie) CombineStats() combine.Counters {
	var tot combine.Counters
	for i := range t.shards {
		c := t.shards[i].comb
		if c == nil {
			continue
		}
		cs := c.Counters()
		tot.Rounds += cs.Rounds
		tot.Batched += cs.Batched
		tot.Direct += cs.Direct
		tot.MaxBatch = max(tot.MaxBatch, cs.MaxBatch)
		tot.Retracts += cs.Retracts
		tot.ElectFails += cs.ElectFails
	}
	return tot
}

// Predecessor returns the largest key in the set strictly smaller than y,
// or −1 if there is none.
//
// When the owning shard holds a key below y the answer is that shard's
// linearizable Predecessor and nothing else is touched. Otherwise the
// fallback scans lower shards for the nearest non-empty one (skipping
// shards whose count reads 0 — safe, because count over-approximates) and
// validates the scan: it snapshots the lower shards' version counters
// before re-querying the owning shard, and accepts only if afterwards
// every scanned lower shard still shows its snapshot version and zero
// pending updates. Acceptance proves the scanned lower shards were
// constant from snapshot to validation, so every lower-shard observation
// also held at the instant the owning-shard re-query linearized (which
// itself proved shard j empty below y), and the operation linearizes
// there. The owning shard is deliberately NOT validated — its updates at
// keys ≥ y are irrelevant, and a key < y appearing there after the
// re-query orders after the linearization point. Rejection means a
// concurrent update announced or completed in a scanned lower shard —
// system-wide progress — and the scan retries, keeping the operation
// lock-free. Only after ScanRetries consecutive failed validations — an
// update parked mid-flight in a scanned lower shard, or fresh updates
// completing in them, across every round — is the last scan's answer
// returned under Range's weak-consistency contract: the returned key was
// present at some instant during the call and no examined shard held a
// larger key below y when examined.
//
// Precondition: 0 ≤ y < U().
func (t *Trie) Predecessor(y int64) int64 {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly > 0 {
		if p := t.shards[j].trie.Predecessor(ly); p >= 0 {
			return int64(j)<<t.shardBits | p
		}
	}
	if j == 0 {
		return -1
	}
	return t.predFallback(j, ly)
}

// vsnapPool recycles the version-snapshot scratch of predFallback. The
// snapshot is op-local (never published), so pooling it is ABA-safe for the
// same reason as core's scratch arena; without it every cross-shard
// fallback would allocate an O(k) slice.
var vsnapPool = sync.Pool{New: func() any { return new([]int64) }}

// predFallback implements the validated cross-shard scan of Predecessor.
func (t *Trie) predFallback(j int, ly int64) int64 {
	vs := vsnapPool.Get().(*[]int64)
	defer vsnapPool.Put(vs)
	if cap(*vs) < j {
		*vs = make([]int64, j)
	}
	vsnap := (*vs)[:j]
	best := int64(-1)
	for attempt := 0; attempt < ScanRetries; attempt++ {
		for i := 0; i < j; i++ {
			vsnap[i] = t.shards[i].version.Load()
		}
		// Re-examine the owning shard inside the snapshot window: a hit is a
		// single linearizable core operation and needs no validation.
		if ly > 0 {
			if p := t.shards[j].trie.Predecessor(ly); p >= 0 {
				return int64(j)<<t.shardBits | p
			}
		}
		ans, low := int64(-1), -1
		for i := j - 1; i >= 0; i-- {
			sh := &t.shards[i]
			if sh.count.Load() == 0 {
				continue // provably empty at the instant of the read
			}
			if m := sh.max(t.width); m >= 0 {
				ans, low = int64(i)<<t.shardBits|m, i
				break
			}
		}
		best = ans
		if low < 0 {
			low = 0
		}
		valid := true
		for i := low; i < j; i++ {
			sh := &t.shards[i]
			if sh.pending.Load() != 0 || sh.version.Load() != vsnap[i] {
				valid = false
				break
			}
		}
		if valid {
			return ans
		}
		// No yield here: handing the processor to a spinning writer parks
		// this query for whole scheduler slices. The retry loop stays hot —
		// a preempted writer either resumes within the budget (version
		// changes, rescan sees its update) or the call degrades to the
		// documented weak answer.
	}
	return best
}

// min returns the smallest key in the shard (local coordinates), or −1.
// Like max, callers needing atomicity run it inside succFallback's
// validated window.
func (s *shard) min() int64 {
	if s.trie.Search(0) {
		return 0
	}
	return s.trie.Successor(0)
}

// Successor returns the smallest key in the set strictly greater than y,
// or −1 if there is none — the upward mirror of Predecessor, stitched
// through the same occupancy summary (skip shards whose count reads 0) and
// the same pending/version validation. One consistency caveat is
// inherited from the core operation rather than the stitch: a per-shard
// Successor is itself a composed probe (see core.Trie.Successor), so even
// a validated answer carries the Floor/Max family's weak-consistency
// contract under updates inside the answering shard — exact at
// quiescence, and every retry of the fallback is forced by another
// operation's completed progress, keeping the scan lock-free with the
// ScanRetries degradation bound.
//
// Precondition: 0 ≤ y < U().
func (t *Trie) Successor(y int64) int64 {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly < t.width-1 {
		if s := t.shards[j].trie.Successor(ly); s >= 0 {
			return int64(j)<<t.shardBits | s
		}
	}
	if j == t.k-1 {
		return -1
	}
	return t.succFallback(j, ly)
}

// succFallback is predFallback mirrored upward: snapshot the higher
// shards' version counters, re-query the owning shard inside the window,
// scan upward for the nearest non-empty shard's min, and accept only if
// every scanned higher shard still shows zero pending updates and its
// snapshot version.
func (t *Trie) succFallback(j int, ly int64) int64 {
	n := t.k - 1 - j // shards above j
	vs := vsnapPool.Get().(*[]int64)
	defer vsnapPool.Put(vs)
	if cap(*vs) < n {
		*vs = make([]int64, n)
	}
	vsnap := (*vs)[:n]
	best := int64(-1)
	for attempt := 0; attempt < ScanRetries; attempt++ {
		for i := 0; i < n; i++ {
			vsnap[i] = t.shards[j+1+i].version.Load()
		}
		if ly < t.width-1 {
			if s := t.shards[j].trie.Successor(ly); s >= 0 {
				return int64(j)<<t.shardBits | s
			}
		}
		ans, high := int64(-1), -1
		for i := j + 1; i < t.k; i++ {
			sh := &t.shards[i]
			if sh.count.Load() == 0 {
				continue // provably empty at the instant of the read
			}
			if m := sh.min(); m >= 0 {
				ans, high = int64(i)<<t.shardBits|m, i
				break
			}
		}
		best = ans
		if high < 0 {
			high = t.k - 1
		}
		valid := true
		for i := j + 1; i <= high; i++ {
			sh := &t.shards[i]
			if sh.pending.Load() != 0 || sh.version.Load() != vsnap[i-j-1] {
				valid = false
				break
			}
		}
		if valid {
			return ans
		}
		// No yield, for predFallback's reason: the loop stays hot so a
		// preempted writer either resumes within the budget or the call
		// degrades to the documented weak answer.
	}
	return best
}
