// Package obs is the trie's unified observability layer: a lock-free
// metrics registry (striped padded counters, gauges over the existing
// per-subsystem Stats structs, log-bucketed latency histograms) behind
// one named, versioned Snapshot/Delta schema, plus a bounded lock-free
// event ring tracing the control planes (EBR epoch advances, combiner
// elections and retractions).
//
// Design constraints, in order:
//
//   - The record paths are lock-free and allocation-free: counters are
//     striped over padded cache lines (one atomic add), histograms are
//     fixed power-of-two bucket arrays (one atomic add), and the ring
//     writes through per-slot seqlocks (a handful of atomic stores).
//   - Snapshots are weakly consistent: each counter read is individually
//     atomic, but the set is not a consistent cut — the same contract as
//     every existing Stats struct (combine.Counters documents it).
//   - Registration is cold-path only (mutex-guarded maps); hot paths
//     hold *Counter / *Histogram directly and never touch the registry.
package obs

import (
	"sort"
	"sync"
	"time"

	"repro/internal/atomicx"
)

// Schema identity of every Snapshot this package produces. Consumers
// (cmd/triestat, the export handlers) check Schema/Version instead of
// guessing at field layouts.
const (
	SchemaName = "repro.trie"
	// SchemaVersion 2: the histogram bucket array became log-linear
	// (sub-bucketed 1 µs–134 ms band, 93 buckets) — a v1 consumer would
	// misread the bucket indices, so the version gates it.
	SchemaVersion = 2
)

// counterStripes is the number of padded stripes per counter. Sixteen
// keeps a hammered counter off one shared cache line while bounding each
// counter at one KiB.
const counterStripes = 16

// Counter is a monotone counter striped over padded cache lines. Add and
// Inc take a caller-supplied hint (typically the operation's key) that a
// multiplicative hash spreads across stripes, so concurrent bumps from
// disjoint key ranges land on disjoint lines. Load sums the stripes —
// weakly consistent like every other snapshot read here.
type Counter struct {
	stripes [counterStripes]atomicx.PadInt64
}

// stripeOf hashes a hint to a stripe index (Fibonacci hashing).
func stripeOf(hint int64) uint64 {
	return (uint64(hint) * 0x9E3779B97F4A7C15) >> 60
}

// Inc adds one and returns the new value of the hint's stripe — NOT the
// counter total. The per-stripe value is exactly what the sampling
// facades need (n % every == 0 picks ~1/every of the stripe's traffic)
// without a second atomic.
func (c *Counter) Inc(hint int64) int64 {
	return c.stripes[stripeOf(hint)].Add(1)
}

// Add adds n to the hint's stripe.
func (c *Counter) Add(hint, n int64) {
	c.stripes[stripeOf(hint)].Add(n)
}

// Load returns the sum over stripes.
func (c *Counter) Load() int64 {
	var v int64
	for i := range c.stripes {
		v += c.stripes[i].Load()
	}
	return v
}

// Registry names the metrics of one trie instance. Registration and
// snapshotting are cold paths behind a mutex; the returned *Counter /
// *Histogram handles are the lock-free hot-path objects.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		gauges:   map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Gauge registers fn as the named instantaneous reading. This is how the
// existing per-subsystem Stats structs fold into the schema without
// rewiring their hot paths: the closure reads whatever atomic the
// subsystem already maintains. Re-registering a name replaces the
// closure.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Names returns every registered metric name, sorted (exposition order).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot is one timestamped reading of every registered metric, under
// the versioned schema. Counter and gauge readings share the Counters
// map: both are int64 time series, and the cumulative-vs-instantaneous
// distinction only matters to the consumer computing rates (Delta handles
// both the same way — a gauge's delta is its change over the window).
type Snapshot struct {
	Schema      string                  `json:"schema"`
	Version     int                     `json:"version"`
	UnixNanos   int64                   `json:"unix_nanos"`
	WindowNanos int64                   `json:"window_nanos,omitempty"`
	Counters    map[string]int64        `json:"counters"`
	Hists       map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot reads every registered metric. Weakly consistent: each value
// is an atomic read, the set is not a cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Schema:    SchemaName,
		Version:   SchemaVersion,
		UnixNanos: time.Now().UnixNano(),
		Counters:  make(map[string]int64, len(r.counters)+len(r.gauges)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, fn := range r.gauges {
		s.Counters[n] = fn()
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Hists[n] = h.Snapshot()
		}
	}
	return s
}

// Merge folds src into s and returns the combined snapshot: the union of
// both metric sets, summing values (counter and bucket-wise histogram
// addition) where names collide. This is how a process exposes several
// registries — the server front-end's own metrics plus the embedded
// trie's MetricsSnapshot — through one exposition endpoint without
// cross-wiring the registries themselves. The result carries the later
// timestamp; s and src are unmodified.
func (s Snapshot) Merge(src Snapshot) Snapshot {
	m := Snapshot{
		Schema:      s.Schema,
		Version:     s.Version,
		UnixNanos:   s.UnixNanos,
		WindowNanos: s.WindowNanos,
		Counters:    make(map[string]int64, len(s.Counters)+len(src.Counters)),
	}
	if src.UnixNanos > m.UnixNanos {
		m.UnixNanos = src.UnixNanos
	}
	for n, v := range s.Counters {
		m.Counters[n] = v
	}
	for n, v := range src.Counters {
		m.Counters[n] += v
	}
	if len(s.Hists)+len(src.Hists) > 0 {
		m.Hists = make(map[string]HistSnapshot, len(s.Hists)+len(src.Hists))
		for n, h := range s.Hists {
			m.Hists[n] = h
		}
		for n, h := range src.Hists {
			prev, ok := m.Hists[n]
			if !ok {
				m.Hists[n] = h
				continue
			}
			sum := HistSnapshot{Count: prev.Count + h.Count, Sum: prev.Sum + h.Sum}
			for i := range sum.Buckets {
				sum.Buckets[i] = prev.Buckets[i] + h.Buckets[i]
			}
			m.Hists[n] = sum
		}
	}
	return m
}

// Delta returns the window s − prev: counter-by-counter (names missing
// from prev read as zero, so a consumer restarted mid-run still gets a
// sane first window), histogram-by-histogram, with WindowNanos set to the
// timestamp difference. s and prev are unmodified.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Schema:      s.Schema,
		Version:     s.Version,
		UnixNanos:   s.UnixNanos,
		WindowNanos: s.UnixNanos - prev.UnixNanos,
		Counters:    make(map[string]int64, len(s.Counters)),
	}
	for n, v := range s.Counters {
		d.Counters[n] = v - prev.Counters[n]
	}
	if len(s.Hists) > 0 {
		d.Hists = make(map[string]HistSnapshot, len(s.Hists))
		for n, h := range s.Hists {
			d.Hists[n] = h.Delta(prev.Hists[n])
		}
	}
	return d
}
