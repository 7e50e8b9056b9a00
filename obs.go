// Facade half of the unified observability layer (internal/obs): the
// functional options, the per-trie metric/trace state, the instrumentation
// hooks New attaches to every shard of the backend, and the exported
// surface — MetricsSnapshot, Events, Stats.
//
// Cost model (DESIGN.md §Observability): with observability on (the
// default), each primitive operation pays ONE striped counter increment —
// an uncontended atomic add on a padded cache line selected by the key's
// hash — plus a modulo against the sampling cadence. Every every-th
// operation of a stripe additionally takes two time.Now readings around
// the backend call and one histogram bucket add. Nothing on the record
// path allocates, locks, or touches the registry. WithoutObservability
// removes even the counter (the obs pointer is nil and every hook is one
// predictable branch).
package lockfreetrie

import (
	"fmt"
	"time"

	"repro/internal/bitstrie"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sharded"
)

// DefaultLatencySampling is the default op-latency sampling cadence: one
// in this many operations (per counter stripe) is timed into the latency
// histograms. See WithLatencySampling.
const DefaultLatencySampling = 1024

// Operation kinds of the ops.* counters and latency.* histograms, in
// schema order.
const (
	opSearch = iota
	opPredecessor
	opSuccessor
	opInsert
	opDelete
	opApplyBatch
	opKinds
)

// opNames are the schema metric-name stems, indexed by op kind.
var opNames = [opKinds]string{
	"search", "predecessor", "successor", "insert", "delete", "apply_batch",
}

// WithLatencySampling sets the latency sampling cadence: one in n
// operations (per counter stripe, so ~1/n of the traffic) is timed into
// the per-op-kind latency histograms; the rest pay only the counter
// increment. n = 1 times every operation — useful for offline analysis,
// far too hot for a benchmark. The default is DefaultLatencySampling.
// Incompatible with WithoutObservability. NewRelaxed accepts and ignores
// the observability options (the relaxed trie is a building-block export
// without the instrumented facade).
func WithLatencySampling(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("lockfreetrie: WithLatencySampling(%d): cadence must be at least 1", n)
		}
		c.latEvery = int64(n)
		return nil
	}
}

// WithoutObservability strips the observability layer entirely: no
// counters, no histograms, no event ring — every hook reduces to one nil
// check. This is the measurement baseline the OB1 experiment compares the
// instrumented default against (BENCH_obs.json); MetricsSnapshot returns
// an empty snapshot and Events returns nil. Incompatible with
// WithLatencySampling and WithDescentStats.
func WithoutObservability() Option {
	return func(c *config) error {
		c.obsOff = true
		return nil
	}
}

// WithDescentStats additionally attaches the descent-engine counters
// (bit reads, CAS attempts/failures, summary loads, skipped bit reads —
// internal/bitstrie's Stats) to every shard, folding them into the
// snapshot schema under the bits.* names and into Trie.Stats. Off by
// default: a predecessor-heavy descent evaluates tens of interpreted bits
// per operation, and counting each one is measurement the default
// configuration should not pay. Incompatible with WithoutObservability.
func WithDescentStats() Option {
	return func(c *config) error {
		c.descentStats = true
		return nil
	}
}

// validateObservability checks the observability options against each
// other (shared by New; NewRelaxed ignores the fields).
func (c *config) validateObservability() error {
	if c.obsOff && c.latEvery != 0 {
		return fmt.Errorf("lockfreetrie: WithLatencySampling is incompatible with WithoutObservability")
	}
	if c.obsOff && c.descentStats {
		return fmt.Errorf("lockfreetrie: WithDescentStats is incompatible with WithoutObservability")
	}
	return nil
}

// obsState is one trie's observability plumbing: the registry naming the
// metrics, the event ring the control planes publish into, the hot-path
// counter/histogram handles, and the shared Stats structs every shard
// writes into (atomic adds aggregate across shards with no carry logic).
type obsState struct {
	reg   *obs.Registry
	ring  *obs.Ring
	every int64 // latency sampling cadence (per counter stripe)
	ops   [opKinds]*obs.Counter
	lats  [opKinds]*obs.Histogram
	// coreStats is attached to every core shard (SetStats); bitsStats to
	// every descent engine, only under WithDescentStats (nil otherwise —
	// attaching it would put an atomic add on every InterpretedBit).
	coreStats *core.Stats
	bitsStats *bitstrie.Stats
}

// newObsState builds the registry, ring, and hot-path handles.
func newObsState(cfg *config) *obsState {
	o := &obsState{
		reg:       obs.NewRegistry(),
		ring:      obs.NewRing(obs.DefaultRingSize),
		every:     cfg.latEvery,
		coreStats: &core.Stats{},
	}
	if o.every <= 0 {
		o.every = DefaultLatencySampling
	}
	if cfg.descentStats {
		o.bitsStats = &bitstrie.Stats{}
	}
	for k := 0; k < opKinds; k++ {
		o.ops[k] = o.reg.Counter("ops." + opNames[k])
		o.lats[k] = o.reg.Histogram("latency." + opNames[k] + "_ns")
	}
	return o
}

// instrumentSharded wires every shard of one sharded table: the shared
// core and descent Stats structs, the EBR trace, and — where the
// configuration built them — the per-shard combiner and adaptive-controller
// traces. Must run before the table sees concurrent use (the attach points
// are plain stores): New instruments the table while it is still private.
func (o *obsState) instrumentSharded(t *sharded.Trie) {
	for i := 0; i < t.Shards(); i++ {
		c := t.Shard(i)
		c.SetStats(o.coreStats)
		if o.bitsStats != nil {
			c.Bits().SetStats(o.bitsStats)
		}
		c.Reclaimer().SetEvents(o.ring, int32(i))
		if comb := t.ShardCombiner(i); comb != nil {
			comb.SetEvents(o.ring, int32(i))
		}
		if ctl := t.ShardController(i); ctl != nil {
			ctl.SetEvents(o.ring, int32(i))
		}
	}
}

// eachCore visits the trie's core shards.
func (t *Trie) eachCore(fn func(*core.Trie)) {
	for i := 0; i < t.st.Shards(); i++ {
		fn(t.st.Shard(i))
	}
}

// eachCombiner visits the trie's combiners (none when combining is off).
func (t *Trie) eachCombiner(fn func(*combine.Combiner)) {
	for i := 0; i < t.st.Shards(); i++ {
		if c := t.st.ShardCombiner(i); c != nil {
			fn(c)
		}
	}
}

// combineTotals sums the combiner counters across shards (MaxBatch takes
// the max).
func (t *Trie) combineTotals() combine.Counters {
	var tot combine.Counters
	t.eachCombiner(func(c *combine.Combiner) {
		cs := c.Counters()
		tot.Rounds += cs.Rounds
		tot.Batched += cs.Batched
		tot.Direct += cs.Direct
		if cs.MaxBatch > tot.MaxBatch {
			tot.MaxBatch = cs.MaxBatch
		}
		tot.Retracts += cs.Retracts
		tot.ElectFails += cs.ElectFails
	})
	return tot
}

// registerObsGauges folds every existing subsystem Stats surface into the
// snapshot schema as gauges — closures over the atomics the subsystems
// already maintain, so no hot path changes shape. Called once from New,
// after the backend is assembled.
func (t *Trie) registerObsGauges() {
	o := t.obs
	r := o.reg

	// Core-layer counters (shared struct, aggregated across shards by
	// construction).
	r.Gauge("core.notifications", o.coreStats.Notifications.Load)
	r.Gauge("core.bottom_cases", o.coreStats.BottomCases.Load)
	r.Gauge("core.help_activations", o.coreStats.HelpActivations.Load)
	r.Gauge("core.uall_traversal_steps", o.coreStats.UallTraversalSteps.Load)
	r.Gauge("core.ruall_traversal_steps", o.coreStats.RuallTraversalSteps.Load)
	r.Gauge("core.announces", o.coreStats.Announces.Load)

	// Descent-engine counters (WithDescentStats only).
	if b := o.bitsStats; b != nil {
		r.Gauge("bits.bit_reads", b.BitReads.Load)
		r.Gauge("bits.cas_attempts", b.CASAttempts.Load)
		r.Gauge("bits.cas_failures", b.CASFailures.Load)
		r.Gauge("bits.second_cas_success", b.SecondCASSuccess.Load)
		r.Gauge("bits.min_writes", b.MinWrites.Load)
		r.Gauge("bits.traversal_steps", b.TraversalSteps.Load)
		r.Gauge("bits.summary_loads", b.SummaryLoads.Load)
		r.Gauge("bits.skipped_bit_reads", b.SkippedBitReads.Load)
	}

	// Combining layer.
	if t.st.Combining() {
		r.Gauge("combine.rounds", func() int64 { return t.combineTotals().Rounds })
		r.Gauge("combine.batched", func() int64 { return t.combineTotals().Batched })
		r.Gauge("combine.direct", func() int64 { return t.combineTotals().Direct })
		r.Gauge("combine.max_batch", func() int64 { return t.combineTotals().MaxBatch })
		r.Gauge("combine.retracts", func() int64 { return t.combineTotals().Retracts })
		r.Gauge("combine.elect_fails", func() int64 { return t.combineTotals().ElectFails })
	}
	if t.st.Adaptive() {
		r.Gauge("adaptive.enables", func() int64 { e, _ := t.AdaptiveStats(); return e })
		r.Gauge("adaptive.disables", func() int64 { _, d := t.AdaptiveStats(); return d })
	}

	// Reclamation: the highest domain epoch across the shards (each shard
	// owns an EBR domain; the max tracks overall reclamation progress).
	r.Gauge("ebr.epoch", func() int64 {
		var max int64
		t.eachCore(func(c *core.Trie) {
			if e := int64(c.Reclaimer().Epoch()); e > max {
				max = e
			}
		})
		return max
	})

	// The trie itself, and the ring's own loss accounting.
	r.Gauge("trie.len", t.set.Len)
	r.Gauge("trie.shards", func() int64 { return int64(t.st.Shards()) })
	r.Gauge("events.dropped", o.ring.Dropped)
}

// MetricsSnapshot returns a timestamped reading of every metric the trie
// maintains, under the versioned repro.trie schema: ops.* operation
// counters, latency.*_ns sampled histograms, and the per-subsystem gauges
// (core.*, bits.*, combine.*, adaptive.*, ebr.*, trie.*, events.*).
// Weakly consistent — each value is one atomic read, the set is not a
// consistent cut. Rate a window with Snapshot.Delta; serve it with
// internal/obs/export. Empty (schema header only) under
// WithoutObservability.
func (t *Trie) MetricsSnapshot() obs.Snapshot {
	var snap obs.Snapshot
	if t.obs == nil {
		snap = obs.Snapshot{
			Schema:    obs.SchemaName,
			Version:   obs.SchemaVersion,
			UnixNanos: time.Now().UnixNano(),
			Counters:  map[string]int64{},
		}
	} else {
		snap = t.obs.reg.Snapshot()
	}
	// Durability keeps its own registry (the log outlives no trie, and
	// WithoutObservability must not silence the wal.* counters the crash
	// smoke asserts on); merge it over the trie's.
	if t.wal != nil {
		snap = snap.Merge(t.wal.Registry().Snapshot())
	}
	return snap
}

// TraceEvent is one drained control-plane event, decoded for consumers:
// Kind is the event name, Shard the shard it concerns, and Values the
// kind-specific named readings — the triggering signal values of an
// adaptive flip, the drained batch of a combiner election, and so on (see
// internal/obs for the layouts).
type TraceEvent struct {
	// Seq is the ring ticket: strictly increasing in publication order;
	// gaps mark events overwritten before they were drained.
	Seq   uint64
	Kind  string
	Shard int32
	Time  time.Time
	// Values maps the kind's argument names to readings. Unused arguments
	// are omitted.
	Values map[string]int64
}

// traceArgNames maps each event kind to the names of its arguments, in
// obs arg order. Kinds absent here surface their raw args as arg0….
var traceArgNames = map[obs.Kind][]string{
	obs.KindAdaptiveEnable:  {"ewma_milli", "throughput_fired", "throughput_ops", "direct_peak_ops"},
	obs.KindAdaptiveDisable: {"ewma_milli", "retract_rate_milli", "rounds", "retracts"},
	obs.KindEpochAdvance:    {"epoch"},
	obs.KindCombinerElect:   {"batch", "rounds"},
	obs.KindCombinerRetract: {"wait_beats"},
}

// Events drains the control-plane trace ring: adaptive-combining flips
// with the signal values that triggered them, EBR epoch advances, sampled
// combiner elections, and retractions. Each event is returned exactly once
// across all Events calls; when the bounded ring wraps before a drain,
// the OLDEST undrained events are dropped (counted in the
// events.dropped gauge) and the newest kept. Nil under
// WithoutObservability, or when nothing happened since the last drain.
func (t *Trie) Events() []TraceEvent {
	if t.obs == nil {
		return nil
	}
	evs := t.obs.ring.Drain()
	if len(evs) == 0 {
		return nil
	}
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		te := TraceEvent{
			Seq:    e.Seq,
			Kind:   e.Kind.String(),
			Shard:  e.Shard,
			Time:   e.Time(),
			Values: make(map[string]int64),
		}
		names := traceArgNames[e.Kind]
		for a, name := range names {
			te.Values[name] = e.Args[a]
		}
		if names == nil {
			for a := 0; a < obs.EventArgs; a++ {
				te.Values[fmt.Sprintf("arg%d", a)] = e.Args[a]
			}
		}
		out[i] = te
	}
	return out
}

// Stats is a snapshot of the core-layer counters aggregated over every
// shard: the paper-protocol counters plus — under WithDescentStats — the
// descent engine's cache-work counters (zero otherwise). Zero entirely
// under WithoutObservability.
type Stats struct {
	// Notifications counts notify nodes added to notify lists.
	Notifications int64
	// BottomCases counts predecessor queries that ran the ⊥ recovery.
	BottomCases int64
	// HelpActivations counts HelpActivate calls that found work.
	HelpActivations int64
	// UallTraversalSteps / RuallTraversalSteps count announcement-list
	// cells visited.
	UallTraversalSteps  int64
	RuallTraversalSteps int64
	// Announces counts U-ALL announcement passes — the quantity the
	// combining layer amortizes.
	Announces int64
	// BitReads, SummaryLoads and SkippedBitReads are the descent engine's
	// cache-work counters (WithDescentStats only): interpreted-bit
	// evaluations performed, occupancy-summary words loaded, and bit
	// reads the compressed descents avoided.
	BitReads        int64
	SummaryLoads    int64
	SkippedBitReads int64
}

// Stats returns the aggregated core-layer counters. Weakly consistent,
// like MetricsSnapshot (each field is one atomic read).
func (t *Trie) Stats() Stats {
	o := t.obs
	if o == nil {
		return Stats{}
	}
	s := Stats{
		Notifications:       o.coreStats.Notifications.Load(),
		BottomCases:         o.coreStats.BottomCases.Load(),
		HelpActivations:     o.coreStats.HelpActivations.Load(),
		UallTraversalSteps:  o.coreStats.UallTraversalSteps.Load(),
		RuallTraversalSteps: o.coreStats.RuallTraversalSteps.Load(),
		Announces:           o.coreStats.Announces.Load(),
	}
	if b := o.bitsStats; b != nil {
		s.BitReads = b.BitReads.Load()
		s.SummaryLoads = b.SummaryLoads.Load()
		s.SkippedBitReads = b.SkippedBitReads.Load()
	}
	return s
}
