// Package combine is the per-shard flat-combining layer of the trie: it
// batches concurrent Insert/Delete operations through a fixed array of
// padded publication slots so that one thread — the round's combiner —
// applies them as a single core.ApplyBatch, announcing once per batch on
// U-ALL/RU-ALL instead of once per operation (DESIGN.md §Combining layer).
//
// # Protocol
//
// A publication slot is a five-state word: empty → writing → pending →
// taken → done. A submitting goroutine claims a free slot (empty→writing
// CAS), writes its operation, publishes it (pending), and then loops:
//
//  1. wait a short beat for a round in flight — and, symmetrically, give
//     peers a beat to publish, so rounds form real batches even at
//     GOMAXPROCS = 1;
//  2. if its op is done, free the slot and return;
//  3. try to elect itself combiner (CAS on the round word); the winner
//     drains every pending slot (pending→taken CAS each), sorts and
//     dedups the batch, applies it through the backend, marks the drained
//     slots done and releases the round word;
//  4. if another combiner holds the round word and this op is still
//     pending after the spin budget, retract it (pending→empty CAS, which
//     the combiner's take races against) and apply it directly through the
//     backend's per-op path — the lock-free escape hatch.
//
// # Progress
//
// The underlying trie stays lock-free: queries and non-combined operations
// never touch the slots, and a submitter whose op has not been taken can
// always retract and fall back to the ordinary lock-free per-op path, so a
// stalled combiner cannot block ops it has not claimed. What combining
// gives up is per-op lock-freedom for the ops a combiner HAS claimed: a
// taken op waits for its combiner's round to finish (flat combining's
// standard trade). The claim window is short — a combiner takes slots only
// immediately before applying — and bounded by one batch application of
// lock-free code, so a descheduled combiner delays its round, never the
// structure.
//
// # Linearization
//
// Each batched op still linearizes individually inside core.ApplyBatch
// (at its update node's activation, or at the findLatest read that proved
// it a no-op). Deduplication keeps, per key, the last op in the round's
// drain order: the dropped ops are concurrent with the kept one and return
// no values, so ordering them immediately before it is a valid
// linearization in which their effects are exactly superseded.
package combine

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/obs"
)

// Op is one submitted operation; Won is filled by the backend and is
// meaningful to batch-applying callers, not to Submit.
type Op = core.BatchOp

// Slot states.
const (
	slotEmpty uint32 = iota
	slotWriting
	slotPending
	slotTaken
	slotDone
)

// The wait beat is P-aware spin-then-park: at GOMAXPROCS > 1 a submitter
// first busy-polls its slot state for spinPhase iterations WITHOUT
// yielding — the procyield analog; Go exposes no portable PAUSE, so the
// bounded poll count is the spin budget — because on a real multicore a
// combiner on another P completes the op in tens of nanoseconds, and a
// premature Gosched would trade that for a whole scheduler round-trip.
// Only when the spin budget runs dry does the beat park: parkPolls polls
// with a Gosched between each, handing the processor to the combiner (or
// to peers still publishing). The totals keep the old beat's shape — 32
// polls, 8 yields — so an oversubscribed host (more Ps than cores, where
// the spin phase buys nothing) paces rounds exactly as before.
const (
	spinPhase = 24
	parkPolls = 8
)

// yieldBeat replaces the spin-then-park beat on a single-P runtime, where
// polling between yields is dead time (no other goroutine can change a
// slot while we hold the only P): the beat is paced purely by Gosched
// round-trips — each one runs every other runnable goroutine once, which
// is exactly the window peers need to publish into the round.
const yieldBeat = 3

// retractAfter is how many whole beats a pending op waits out a busy
// combiner before retracting to the direct path. Rounds that drain deletes
// are long (each runs two embedded predecessor operations), so giving up
// after one beat makes half the submissions bypass combining under exactly
// the update pressure the layer exists for; a few beats of patience keeps
// the escape hatch bounded while letting pending ops ride the next round.
const retractAfter = 8

// slot is one publication slot, padded to two cache lines so neighbouring
// slots never false-share (matching the shard-header discipline).
type slot struct {
	state atomic.Uint32
	key   int64
	del   bool
	_     [111]byte
}

// Stats carries the combiner's monitoring counters (padded; always on —
// four uncontended-in-the-common-case adds per round).
type Stats struct {
	// Rounds counts combining rounds that drained at least one op.
	Rounds atomicx.PadInt64
	// Batched counts ops applied inside a round (before dedup).
	Batched atomicx.PadInt64
	// Direct counts ops that bypassed combining: retractions after the
	// spin budget plus submissions that found every slot occupied.
	Direct atomicx.PadInt64
	// MaxBatch is the largest round drained so far (monotone).
	MaxBatch atomicx.PadInt64
	// Retracts counts the retraction subset of Direct: published ops that
	// outwaited a busy combiner and escaped to the per-op path — the
	// adaptive controller's direct evidence that the handoff is hurting.
	Retracts atomicx.PadInt64
	// ElectFails counts SUBMISSIONS whose first combiner-election CAS
	// failed: each one proves a concurrent publisher held the round word
	// — the adaptive controller's clustering signal. Once per
	// submission, not per wait beat: a single publisher parked behind a
	// long round would otherwise register dozens of "failures" and read
	// as clustering it does not prove.
	ElectFails atomicx.PadInt64
}

// Counters is a point-in-time snapshot of every combiner counter — the
// one shape every consumer (sharded.CombineStats, the facade's combine.*
// gauges, triebench, the adaptive controller's Sampler) reads.
type Counters struct {
	Rounds, Batched, Direct, MaxBatch, Retracts, ElectFails int64
}

// Combiner batches updates for one shard. Create with New; all methods are
// safe for concurrent use.
type Combiner struct {
	apply    func(ops []Op) // sorted, deduped batch; called with the round word held
	applyOne func(op Op)    // direct lock-free per-op path
	slots    []slot
	mask     uint32
	round    atomic.Uint32 // the round word: 0 free, 1 combining
	ticket   atomic.Uint32 // rotates the slot-probe start point
	taken    []*slot       // round scratch; guarded by the round word
	batch    []Op          // round scratch; guarded by the round word
	stats    Stats

	// events, when non-nil, receives sampled election and per-retraction
	// trace events tagged with evShard (set once via SetEvents, before
	// concurrent use). Publishing through a nil ring is a no-op, so the
	// hot paths stay branch-cheap in the stripped configuration.
	events  *obs.Ring
	evShard int32
}

// SetEvents routes this combiner's control-plane trace — one
// obs.KindCombinerElect per obs.ElectEventEvery rounds, one
// obs.KindCombinerRetract per retraction — to ring, tagged with shard.
// Install before concurrent use (the fields are plain).
func (c *Combiner) SetEvents(ring *obs.Ring, shard int32) {
	c.events = ring
	c.evShard = shard
}

// testHookMidRound, when non-nil, runs after a round's slots are taken and
// before the batch is applied — the combiner-descheduled-mid-batch window
// the handoff stress test widens.
var testHookMidRound func()

// SetTestHookMidRound installs f to run inside every combining round,
// after the round's slots are taken and before the batch applies (nil
// uninstalls). Test-only: the sharded and facade mid-flip stress suites
// use it to toggle the adaptive mode word inside the widest round window,
// and the sharded suites' combining rows to yield the processor there.
// Install before starting workload goroutines and uninstall after joining
// them.
func SetTestHookMidRound(f func()) { testHookMidRound = f }

// DefaultSlots is the publication-slot count New uses for n ≤ 0.
// Publishers are goroutines, not Ps — a single-P host can park dozens of
// submitters at once — so the floor is sized for goroutine oversubscription
// (64 slots ≈ 8 KiB per combiner), not for the CPU count; saturated claims
// fall back to the direct path, so the ceiling only bounds the drain scan.
func DefaultSlots() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	if n > 256 {
		n = 256
	}
	return ceilPow2(n)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New returns a combiner with n publication slots (n ≤ 0 selects
// DefaultSlots; n is rounded up to a power of two). apply receives each
// round's batch sorted by strictly ascending key, one op per key, and must
// fill the Won flags; applyOne is the per-op fallback used when a
// submission bypasses combining.
func New(n int, apply func(ops []Op), applyOne func(op Op)) *Combiner {
	if n <= 0 {
		n = DefaultSlots()
	}
	n = ceilPow2(n)
	return &Combiner{
		apply:    apply,
		applyOne: applyOne,
		slots:    make([]slot, n),
		mask:     uint32(n - 1),
	}
}

// Counters returns a snapshot of every counter (each individually atomic;
// the set is not a consistent cut, which the EWMA-smoothing consumer
// tolerates by construction).
func (c *Combiner) Counters() Counters {
	return Counters{
		Rounds:     c.stats.Rounds.Load(),
		Batched:    c.stats.Batched.Load(),
		Direct:     c.stats.Direct.Load(),
		MaxBatch:   c.stats.MaxBatch.Load(),
		Retracts:   c.stats.Retracts.Load(),
		ElectFails: c.stats.ElectFails.Load(),
	}
}

// Sampler builds the adapt signal reader of one adaptive shard: the
// combiner counters always ride along, while annLen and pending — the
// direct-mode clustering signals — are read only when sampling in direct
// mode (in combining mode the estimate comes from the counter deltas, and
// the reads would perturb the rounds being measured; see
// adapt.Controller).
func Sampler(c *Combiner, annLen, pending func() int64) func(combining bool) adapt.Sample {
	return func(combining bool) adapt.Sample {
		cs := c.Counters()
		s := adapt.Sample{
			Rounds: cs.Rounds, Batched: cs.Batched,
			Retracts: cs.Retracts, ElectFails: cs.ElectFails,
		}
		if !combining {
			s.AnnLen = annLen()
			s.Pending = pending()
		}
		return s
	}
}

// Submit hands one update to the combining layer and returns when it has
// been applied — by a combiner's batch, by this goroutine running a round,
// or directly through the per-op path when the slots are full or a stalled
// combiner forces the retraction fallback.
func (c *Combiner) Submit(op Op) {
	s := c.claim()
	if s == nil {
		c.stats.Direct.Add(1)
		c.applyOne(op)
		return
	}
	s.key, s.del = op.Key, op.Del
	s.state.Store(slotPending)
	// Read per call, not at init: GOMAXPROCS can change at runtime
	// (explicit call, container-aware updates), and only the wait
	// discipline — never the protocol — depends on it.
	singleP := runtime.GOMAXPROCS(0) == 1
	for attempt := 0; ; attempt++ {
		// Beat: wait for an in-flight round to pick us up, and give peers
		// a chance to publish before anyone elects.
		if waitBeat(s, singleP) {
			s.state.Store(slotEmpty)
			return
		}
		if s.state.Load() == slotDone {
			s.state.Store(slotEmpty)
			return
		}
		if c.round.CompareAndSwap(0, 1) {
			c.runRound()
			c.round.Store(0)
			if s.state.Load() == slotDone {
				s.state.Store(slotEmpty)
				return
			}
			continue // defensive: our op was pending, the round took it
		}
		if attempt == 0 {
			c.stats.ElectFails.Add(1)
		}
		// A combiner is mid-round. After enough beats of waiting — the
		// combiner may be stalled, not just slow — retract if it has not
		// claimed our op and go direct, the lock-free escape; once it has
		// (taken), later beats wait for the round to finish.
		if attempt >= retractAfter && s.state.CompareAndSwap(slotPending, slotEmpty) {
			c.stats.Direct.Add(1)
			c.stats.Retracts.Add(1)
			c.events.Publish(obs.KindCombinerRetract, c.evShard, int64(attempt))
			c.applyOne(op)
			return
		}
	}
}

// waitBeat runs one wait beat against slot s and reports whether the op
// completed (state reached slotDone) during the beat. The discipline is
// P-aware: spin-then-park at P > 1, pure Gosched pacing at P = 1 (see the
// spinPhase/parkPolls and yieldBeat comments).
func waitBeat(s *slot, singleP bool) bool {
	if singleP {
		for i := 0; i < yieldBeat; i++ {
			if s.state.Load() == slotDone {
				return true
			}
			runtime.Gosched()
		}
		return false
	}
	for i := 0; i < spinPhase; i++ {
		if s.state.Load() == slotDone {
			return true
		}
	}
	for i := 0; i < parkPolls; i++ {
		if s.state.Load() == slotDone {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// claim finds a free slot and moves it empty→writing, or returns nil after
// one full scan — the combiner is saturated and the caller should go
// direct. The probe start rotates so concurrent publishers spread across
// lines.
func (c *Combiner) claim() *slot {
	start := c.ticket.Add(1)
	for i := uint32(0); i <= c.mask; i++ {
		s := &c.slots[(start+i)&c.mask]
		if s.state.Load() == slotEmpty && s.state.CompareAndSwap(slotEmpty, slotWriting) {
			return s
		}
	}
	return nil
}

// runRound drains every pending slot, applies the deduped batch, and
// releases the drained slots. Called with the round word held.
func (c *Combiner) runRound() {
	c.taken = c.taken[:0]
	for i := range c.slots {
		s := &c.slots[i]
		if s.state.Load() == slotPending && s.state.CompareAndSwap(slotPending, slotTaken) {
			c.taken = append(c.taken, s)
		}
	}
	if len(c.taken) == 0 {
		return
	}
	if h := testHookMidRound; h != nil {
		h()
	}
	c.batch = c.batch[:0]
	for _, s := range c.taken {
		c.batch = append(c.batch, Op{Key: s.key, Del: s.del})
	}
	c.apply(SortDedup(c.batch))
	for _, s := range c.taken {
		s.state.Store(slotDone)
	}
	rounds := c.stats.Rounds.Add(1)
	c.stats.Batched.Add(int64(len(c.taken)))
	if n := int64(len(c.taken)); n > c.stats.MaxBatch.Load() {
		c.stats.MaxBatch.Store(n) // monotone; the combiner is the only writer
	}
	// Elections happen once per round — far too hot to trace unsampled
	// (a clustered mix runs a round every ~7 ops), so one round in
	// ElectEventEvery carries the trace, with the batch size as its
	// signal value. Retractions and the adaptive events stay
	// unsampled; they are rare and individually meaningful.
	if c.events != nil && rounds%obs.ElectEventEvery == 0 {
		c.events.Publish(obs.KindCombinerElect, c.evShard, int64(len(c.taken)), rounds)
	}
}

// taggedOp carries an op's original position so an UNSTABLE sort can
// still recover arrival order among equal keys: (key, idx) is a total
// order, so pdqsort — roughly twice as fast as the stable merge sort on
// the random-ish batches the server's sweeps produce — yields exactly the
// stable result, and the dedup below keeps the last-arrived op per key.
type taggedOp struct {
	key int64
	idx int32
	del bool
}

// sortScratch pools the tagged buffers so SortDedup allocates nothing in
// steady state (it runs once per combining round and once per server
// sweep).
var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

type sortScratch struct{ t []taggedOp }

// SortDedup sorts ops by key (ties resolved by the given order) and
// keeps, per key, the LAST op — the form core.ApplyBatch requires. It
// reorders ops in place and returns the deduped prefix; the Won fields of
// the result are reset (they are output fields of the batch apply).
// Keeping the last op is a valid linearization for void-returning
// concurrent updates: the dropped ops order immediately before the kept
// one (see the package comment); callers batching a SEQUENTIAL op list
// get exactly its final-state semantics.
func SortDedup(ops []Op) []Op {
	s := sortPool.Get().(*sortScratch)
	t := s.t[:0]
	for i := range ops {
		t = append(t, taggedOp{key: ops[i].Key, idx: int32(i), del: ops[i].Del})
	}
	slices.SortFunc(t, func(a, b taggedOp) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	out := ops[:0]
	for i := 0; i < len(t); i++ {
		if i+1 < len(t) && t[i+1].key == t[i].key {
			continue // a later op on the same key supersedes this one
		}
		out = append(out, Op{Key: t[i].key, Del: t[i].del})
	}
	s.t = t
	sortPool.Put(s)
	return out
}
