package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates control-plane trace events.
type Kind int32

// Control-plane event kinds. Arg layouts are documented per kind; every
// arg is an int64 (fractional signals ship ×1000, as milli-units).
const (
	// KindAdaptiveEnable: a shard's controller flipped direct→combining.
	// Args: [0] contention-estimate EWMA ×1000, [1] 1 if the
	// throughput-collapse signal (not the estimate threshold) triggered
	// the flip, [2] throughput EWMA (ops/sec), [3] best direct-mode
	// throughput observed (ops/sec).
	KindAdaptiveEnable Kind = iota + 1
	// KindAdaptiveDisable: combining→direct. Args: [0] estimate EWMA
	// ×1000, [1] retraction rate ×1000 over the deciding window, [2]
	// rounds in the window, [3] retractions in the window.
	KindAdaptiveDisable
	// KindEpochAdvance: an EBR domain's global epoch moved. Args: [0]
	// the new epoch.
	KindEpochAdvance
	// KindCombinerElect: a goroutine won a combiner election and drained
	// a round. Sampled — one event per ElectEventEvery rounds, or the
	// ring would be all elections. Args: [0] ops drained by this round,
	// [1] cumulative rounds of this combiner.
	KindCombinerElect
	// KindCombinerRetract: a submission outwaited a busy combiner and
	// escaped to the direct path. Args: [0] wait beats before retracting.
	KindCombinerRetract
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAdaptiveEnable:
		return "adaptive-enable"
	case KindAdaptiveDisable:
		return "adaptive-disable"
	case KindEpochAdvance:
		return "epoch-advance"
	case KindCombinerElect:
		return "combiner-elect"
	case KindCombinerRetract:
		return "combiner-retract"
	default:
		return "unknown"
	}
}

// ElectEventEvery is the combiner-election sampling period: one
// KindCombinerElect event per this many rounds. Elections are the only
// high-frequency event source (one per round, so potentially one per ~7
// ops on a clustered mix); unsampled they would both lap the ring past
// the rare events that matter and put a publish on a near-hot path.
const ElectEventEvery = 64

// EventArgs is the per-event payload arity (the widest kind, an adaptive
// flip, carries four).
const EventArgs = 4

// Event is one drained control-plane event.
type Event struct {
	// Seq is the event's global publication ticket (monotone per ring).
	Seq uint64 `json:"seq"`
	// Kind discriminates the Args layout.
	Kind Kind `json:"kind"`
	// Shard is the shard the event concerns (0 on an unsharded trie).
	Shard int32 `json:"shard"`
	// UnixNanos is the publication wall-clock time.
	UnixNanos int64            `json:"unix_nanos"`
	Args      [EventArgs]int64 `json:"args"`
}

// Time returns the publication time.
func (e Event) Time() time.Time { return time.Unix(0, e.UnixNanos) }

// ringSlot is one seqlock-protected event cell. The payload is stored
// word-by-word through atomics, so a reader racing a writer is
// data-race-free by construction; the seq word makes a torn copy
// DETECTABLE and keeps writers exclusive. A writer claims the slot by
// CASing seq from its current value to ringInFlight, stores the payload,
// and publishes ticket+1. A claim only moves seq forward — a writer that
// finds the slot in flight, or already holding a later ticket, skips its
// stores — so at most one writer stores into a slot at a time, published
// values never repeat, and a reader that sees the same expected seq before
// and after its copy holds exactly that ticket's payload.
type ringSlot struct {
	seq  atomic.Uint64 // 0 before the first write; ringInFlight while claimed; ticket+1 when published
	meta atomic.Int64  // kind<<32 | uint32(shard)
	time atomic.Int64
	args [EventArgs]atomic.Int64
}

// ringInFlight is the seq value of a claimed slot whose payload is being
// stored. Published values are ticket+1, so no ticket ever reaches it.
const ringInFlight = ^uint64(0)

// Ring is a bounded lock-free multi-producer event buffer with overwrite
// semantics: publishers never block and never fail — when the ring is
// full the oldest undrained events are overwritten, and the drain
// accounts them in Dropped. One ring serves a whole trie; slot count is
// a power of two.
type Ring struct {
	mask    uint64
	ticket  atomic.Uint64 // next publication ticket
	dropped atomic.Int64
	slots   []ringSlot

	// Drain state: drains serialize on mu (publishers never touch it).
	mu   sync.Mutex
	next uint64 // first undrained ticket

	// Test hooks, nil outside tests and set before concurrent use:
	// midPublish runs between a writer's first payload store and the rest,
	// drainBound right after a drain has loaded its ticket bound.
	midPublish func(ticket uint64)
	drainBound func()
}

// DefaultRingSize is the slot count NewRing uses for n ≤ 0: large enough
// that sampled elections do not lap an adaptive flip between two drains of
// a 1 Hz monitor at realistic round rates, small enough (~100 KiB) to be
// always-on.
const DefaultRingSize = 1024

// NewRing returns a ring with n slots (n ≤ 0 selects DefaultRingSize; n
// rounds up to a power of two).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return &Ring{mask: uint64(p - 1), slots: make([]ringSlot, p)}
}

// Cap returns the slot count.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Dropped returns the cumulative count of events lost to overwrite, to a
// writer lapped before it could store (its slot was in flight or held a
// later ticket), or to a copy the drain could not certify (a write in
// flight during the drain). Nil-safe.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Publish records one event. Nil-safe (a nil ring is the stripped
// configuration: publishing is a no-op), lock-free, never blocks: a full
// ring overwrites its oldest slot. args beyond EventArgs are ignored,
// missing ones record as zero.
func (r *Ring) Publish(kind Kind, shard int32, args ...int64) {
	if r == nil {
		return
	}
	t := r.ticket.Add(1) - 1
	s := &r.slots[t&r.mask]
	// Claim the slot. A writer that finds it in flight, or holding a later
	// ticket, has been lapped: it skips its stores, and the drain counts
	// the lost ticket in Dropped when ticket+1 never shows up in the slot.
	for {
		cur := s.seq.Load()
		if cur == ringInFlight || cur > t {
			return
		}
		if s.seq.CompareAndSwap(cur, ringInFlight) {
			break
		}
	}
	s.meta.Store(int64(kind)<<32 | int64(uint32(shard)))
	if h := r.midPublish; h != nil {
		h(t)
	}
	s.time.Store(time.Now().UnixNano())
	for i := 0; i < EventArgs; i++ {
		var v int64
		if i < len(args) {
			v = args[i]
		}
		s.args[i].Store(v)
	}
	s.seq.Store(t + 1)
}

// Drain returns every event published since the previous drain, oldest
// first, and advances the drain cursor. Events the ring overwrote — or
// whose write was still in flight during this drain — are counted in
// Dropped instead of returned. Drains serialize on an internal mutex;
// publishers are never blocked by a drain. Nil-safe.
func (r *Ring) Drain() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.ticket.Load()
	if h := r.drainBound; h != nil {
		h()
	}
	start := r.next
	if size := uint64(len(r.slots)); cur > size && cur-size > start {
		// The window [start, cur−size) was overwritten before this drain.
		r.dropped.Add(int64(cur - size - start))
		start = cur - size
	}
	var out []Event
	for t := start; t < cur; t++ {
		s := &r.slots[t&r.mask]
		want := t + 1
		if s.seq.Load() != want {
			r.dropped.Add(1) // in flight, lapped since cur was read, or skipped by a lapped writer
			continue
		}
		var e Event
		meta := s.meta.Load()
		e.Seq = t
		e.Kind = Kind(meta >> 32)
		e.Shard = int32(uint32(meta))
		e.UnixNanos = s.time.Load()
		for i := 0; i < EventArgs; i++ {
			e.Args[i] = s.args[i].Load()
		}
		if s.seq.Load() != want {
			r.dropped.Add(1) // a lapping writer tore the copy; discard it
			continue
		}
		out = append(out, e)
	}
	r.next = cur
	return out
}
