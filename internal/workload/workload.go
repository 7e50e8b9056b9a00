// Package workload generates deterministic operation streams for the
// benchmark harness: operation mixes (insert/delete/search/predecessor
// ratios) and key distributions (uniform, zipf-skewed, clustered hot
// range). Determinism — same seed, same stream — makes the EXPERIMENTS.md
// numbers reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// OpKind enumerates generated operation types.
type OpKind uint8

const (
	// OpInsert adds the key.
	OpInsert OpKind = iota + 1
	// OpDelete removes the key.
	OpDelete
	// OpSearch queries membership.
	OpSearch
	// OpPredecessor queries the predecessor.
	OpPredecessor
)

// Mix is an operation mix in percent; fields must sum to 100.
type Mix struct {
	InsertPct, DeletePct, SearchPct, PredecessorPct int
}

// Validate checks the percentages.
func (m Mix) Validate() error {
	sum := m.InsertPct + m.DeletePct + m.SearchPct + m.PredecessorPct
	if sum != 100 {
		return fmt.Errorf("workload: mix sums to %d, want 100", sum)
	}
	return nil
}

// Standard mixes used across the experiment suite (C3, C5).
var (
	// MixUpdateHeavy is 50% updates, 25% searches, 25% predecessors.
	MixUpdateHeavy = Mix{InsertPct: 25, DeletePct: 25, SearchPct: 25, PredecessorPct: 25}
	// MixReadHeavy is 90% searches.
	MixReadHeavy = Mix{InsertPct: 5, DeletePct: 5, SearchPct: 90}
	// MixPredHeavy is predecessor-dominated.
	MixPredHeavy = Mix{InsertPct: 10, DeletePct: 10, SearchPct: 10, PredecessorPct: 70}
	// MixUpdateOnly alternates inserts and deletes.
	MixUpdateOnly = Mix{InsertPct: 50, DeletePct: 50}
)

// NamedMix is one entry of BenchMixes.
type NamedMix struct {
	Name string
	Mix  Mix
}

// BenchMixes is the (label, mix) table the allocation-trajectory
// measurements key their recorded baselines by (BenchmarkPredMixes and
// triebench's a3 experiment / BENCH_allocs.json). The mapping is deliberate
// and LOAD-BEARING: "update-heavy" is the pure insert/delete stream
// (MixUpdateOnly); "uniform" spreads ops evenly across all four kinds,
// which is what the Mix constants call MixUpdateHeavy (25/25/25/25).
// Rebinding a label would silently invalidate every recorded trajectory
// point.
var BenchMixes = []NamedMix{
	{Name: "pred-heavy", Mix: MixPredHeavy},
	{Name: "update-heavy", Mix: MixUpdateOnly},
	{Name: "uniform", Mix: MixUpdateHeavy},
}

var ()

// KeyDist generates keys in [0, u).
type KeyDist interface {
	// Next returns the next key.
	Next(rng *rand.Rand) int64
	// Name labels the distribution in reports.
	Name() string
}

// Uniform draws keys uniformly from [0, u).
type Uniform struct{ U int64 }

// Next implements KeyDist.
func (d Uniform) Next(rng *rand.Rand) int64 { return rng.Int63n(d.U) }

// Name implements KeyDist.
func (d Uniform) Name() string { return "uniform" }

// Zipf draws keys with a zipfian skew (s = 1.2) over [0, u), mapping rank 0
// to the middle of the universe outward so hotness is not correlated with
// key order.
type Zipf struct {
	U    int64
	zipf *rand.Zipf
}

// NewZipf builds a zipf distribution; the generator is bound to seed.
func NewZipf(u int64, seed int64) *Zipf {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, uint64(u-1))
	return &Zipf{U: u, zipf: z}
}

// Next implements KeyDist. The internal zipf source is deterministic and
// the caller's rng is unused, keeping streams reproducible per generator.
func (d *Zipf) Next(*rand.Rand) int64 {
	rank := int64(d.zipf.Uint64())
	// Spread ranks around the middle: 0 → u/2, 1 → u/2+1, 2 → u/2−1, …
	offset := (rank + 1) / 2
	if rank%2 == 1 {
		offset = -offset
	}
	k := d.U/2 + offset
	if k < 0 {
		k = 0
	}
	if k >= d.U {
		k = d.U - 1
	}
	return k
}

// Name implements KeyDist.
func (d *Zipf) Name() string { return "zipf" }

// Band draws keys uniformly from [Lo, Lo+Width). Give each worker its own
// band (harness.Config.DistFor) to build disjoint-range workloads — the
// zero-key-contention regime where sharding's announcement-list split pays
// off (experiment S1).
type Band struct {
	Lo    int64
	Width int64
}

// Next implements KeyDist.
func (d Band) Next(rng *rand.Rand) int64 { return d.Lo + rng.Int63n(d.Width) }

// Name implements KeyDist.
func (d Band) Name() string { return "band" }

// Bands partitions [0, u) into n equal-width disjoint bands, one per
// worker — the standard disjoint-range workload, where worker i's keys
// never collide with worker j's. The trailing band absorbs any remainder when n
// does not divide u.
func Bands(u int64, n int) []Band {
	if n <= 0 {
		return nil
	}
	width := u / int64(n)
	if width <= 0 {
		width = 1
	}
	bands := make([]Band, n)
	for i := range bands {
		bands[i] = Band{Lo: int64(i) * width, Width: width}
	}
	// Give the last band whatever remains so the union covers [0, u).
	if last := &bands[n-1]; last.Lo+last.Width < u {
		last.Width = u - last.Lo
	}
	return bands
}

// HotRange draws keys from a narrow hot range with probability HotPct/100,
// otherwise uniformly — the contention knob for experiment C3 (point
// contention concentrates where keys collide).
type HotRange struct {
	U        int64
	HotLo    int64
	HotWidth int64
	HotPct   int
}

// Next implements KeyDist.
func (d HotRange) Next(rng *rand.Rand) int64 {
	if rng.Intn(100) < d.HotPct {
		return d.HotLo + rng.Int63n(d.HotWidth)
	}
	return rng.Int63n(d.U)
}

// Name implements KeyDist.
func (d HotRange) Name() string { return "hotrange" }

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  int64
}

// Generator produces a deterministic stream of operations.
type Generator struct {
	mix  Mix
	dist KeyDist
	rng  *rand.Rand
}

// NewGenerator builds a generator; identical arguments give identical
// streams.
func NewGenerator(mix Mix, dist KeyDist, seed int64) (*Generator, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	return &Generator{mix: mix, dist: dist, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Intn(100)
	var kind OpKind
	switch {
	case p < g.mix.InsertPct:
		kind = OpInsert
	case p < g.mix.InsertPct+g.mix.DeletePct:
		kind = OpDelete
	case p < g.mix.InsertPct+g.mix.DeletePct+g.mix.SearchPct:
		kind = OpSearch
	default:
		kind = OpPredecessor
	}
	return Op{Kind: kind, Key: g.dist.Next(g.rng)}
}

// Fill generates n operations into a fresh slice.
func (g *Generator) Fill(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// PoissonSchedule generates deterministic exponential inter-arrival gaps —
// a Poisson arrival process at a configured rate. Closed-loop workers
// (harness.Run) issue the next operation the moment the previous one
// returns, so the measured system sets its own arrival rate and queueing
// delay is invisible; an open-loop driver holds the arrival process fixed
// regardless of service speed, which is what latency-under-load numbers
// (and any p999 worth reporting) require. Same seed, same schedule.
type PoissonSchedule struct {
	rng    *rand.Rand
	meanNs float64
}

// NewPoissonSchedule builds a schedule with the given mean arrival rate.
// A non-positive rate yields zero gaps (arrive as fast as the consumer
// can take, the closed-loop degenerate case).
func NewPoissonSchedule(ratePerSec float64, seed int64) *PoissonSchedule {
	p := &PoissonSchedule{rng: rand.New(rand.NewSource(seed))}
	if ratePerSec > 0 {
		p.meanNs = 1e9 / ratePerSec
	}
	return p
}

// Next returns the gap between this arrival and the next.
func (p *PoissonSchedule) Next() time.Duration {
	if p.meanNs == 0 {
		return 0
	}
	return time.Duration(p.rng.ExpFloat64() * p.meanNs)
}
