// Sharded façade over the wait-free relaxed trie (§4), satisfying the same
// §4.1 contract as the unsharded one: a non-abstaining (k, true) answer
// promises only that k was present at some point during the call and that
// k is exact when no update on a key in (k, y) ran concurrently; ⊥ is
// returned only under such interference. The cross-shard stitch therefore
// needs no version validation — but note the answer distribution is weaker
// than the unsharded implementation's: the scan can return a key from a
// lower shard while a concurrent insert lands unseen in an already-skipped
// shard above it, a definite-but-inexact answer the contract permits
// (there was interference in (k, y)) where the unsharded trie would have
// answered exactly or abstained. At quiescence the occupancy counters are
// exact and every answer is exact.
package sharded

import (
	"fmt"
	"sync/atomic"

	"repro/internal/adapt"
	"repro/internal/combine"
	"repro/internal/relaxed"
)

// rshard is one relaxed partition: an independent relaxed trie plus its
// occupancy over-approximation, optional combiner and optional adaptive
// controller, padded like shard. pending mirrors shard's in-flight count
// (the relaxed trie has no announcement list, so it is the adaptive
// layer's only direct-mode clustering signal).
type rshard struct {
	trie    *relaxed.Trie
	count   atomic.Int64 // cardinality over-approximation (≥ |S ∩ shard|)
	pending atomic.Int64 // in-flight direct updates
	comb    *combine.Combiner
	ctl     *adapt.Controller
	_       [88]byte
}

// Relaxed is the sharded wait-free relaxed binary trie. Create with
// NewRelaxed; the zero value is not usable.
type Relaxed struct {
	u         int64
	k         int
	width     int64
	shardBits uint
	shards    []rshard
	placement []int // shard→group placement hint; nil when unplaced
}

// NewRelaxed returns an empty sharded relaxed trie over {0,…,u−1} split
// into k contiguous shards, under the same bounds as New.
func NewRelaxed(u int64, k int) (*Relaxed, error) { return newRelaxed(u, k, false, nil) }

// NewRelaxedCombining is NewRelaxed with per-shard combining: updates
// publish to the owning shard's slots and a combiner applies each round
// op by op (the relaxed trie has no announcement lists to amortize; see
// combine.RelaxedSet for when this is still worth it). Batched updates
// trade the §4 per-op wait-freedom for the combiner handoff; queries are
// untouched.
func NewRelaxedCombining(u int64, k int) (*Relaxed, error) { return newRelaxed(u, k, true, nil) }

// NewRelaxedAdaptive is NewRelaxedCombining with per-shard adaptive
// controllers, mirroring NewAdaptive: each shard publishes directly until
// its in-flight update count says publishers are clustering, and combines
// until its drained batches degenerate (with hysteresis and dwell). cfg's
// zero fields take the tuned defaults.
func NewRelaxedAdaptive(u int64, k int, cfg adapt.Config) (*Relaxed, error) {
	return NewRelaxedWithOptions(u, k, Options{Combining: true, Adaptive: &cfg})
}

// NewRelaxedWithOptions mirrors NewWithOptions over the relaxed backend,
// with the same Options semantics (placement requires combining, arena
// carves per placement group, sticky claims).
func NewRelaxedWithOptions(u int64, k int, o Options) (*Relaxed, error) {
	combining := o.Combining || o.Adaptive != nil
	if o.Placement != nil {
		if !combining {
			return nil, fmt.Errorf("sharded: placement requires the combining layer (it shapes publication slots)")
		}
		if err := ValidatePlacement(o.Placement, k); err != nil {
			return nil, err
		}
	}
	pu, width, shardBits, err := geometry(u, k)
	if err != nil {
		return nil, err
	}
	t := &Relaxed{
		u:         pu,
		k:         k,
		width:     width,
		shardBits: shardBits,
		shards:    make([]rshard, k),
	}
	var arenas map[int]*combine.Arena
	var slotsPer int
	if o.Placement != nil {
		sizes := map[int]int{}
		for _, g := range o.Placement {
			sizes[g]++
		}
		slotsPer = placementSlots(len(sizes))
		arenas = make(map[int]*combine.Arena, len(sizes))
		for g, n := range sizes {
			arenas[g] = combine.NewArena(slotsPer * n)
		}
		t.placement = append([]int(nil), o.Placement...)
	}
	for i := range t.shards {
		r, err := relaxed.New(t.width)
		if err != nil {
			return nil, err
		}
		t.shards[i].trie = r
		if combining {
			sh := &t.shards[i]
			apply1 := func(op combine.Op) {
				if op.Del {
					t.deleteDirect(sh, op.Key)
				} else {
					t.insertDirect(sh, op.Key)
				}
			}
			apply := func(ops []combine.Op) {
				for j := range ops {
					apply1(ops[j])
				}
			}
			if arenas != nil {
				sh.comb = combine.NewPlaced(arenas[o.Placement[i]].Carve(slotsPer), apply, apply1)
			} else {
				sh.comb = combine.New(0, apply, apply1)
			}
			if o.Adaptive != nil {
				sh.ctl = adapt.New(*o.Adaptive, combine.Sampler(sh.comb, nil, sh.pending.Load))
			}
		}
	}
	return t, nil
}

func newRelaxed(u int64, k int, combining bool, acfg *adapt.Config) (*Relaxed, error) {
	return NewRelaxedWithOptions(u, k, Options{Combining: combining, Adaptive: acfg})
}

// U returns the (padded) universe size.
func (t *Relaxed) U() int64 { return t.u }

// Shards returns the shard count.
func (t *Relaxed) Shards() int { return t.k }

// Shard exposes shard i's relaxed trie (facade configuration, tests).
func (t *Relaxed) Shard(i int) *relaxed.Trie { return t.shards[i].trie }

// Len returns the summed occupancy summary — an O(k) cardinality estimate,
// exact at quiescence.
func (t *Relaxed) Len() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].count.Load()
	}
	return n
}

func (t *Relaxed) home(x int64) (*rshard, int64) {
	return &t.shards[x>>t.shardBits], x & (t.width - 1)
}

// Search reports whether x is in the set. O(1) worst-case.
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Search(x int64) bool {
	sh, lx := t.home(x)
	return sh.trie.Search(lx)
}

// Insert adds x to the set. Wait-free, O(log(u/k)) worst-case steps
// (routed through the owning shard's combiner under NewRelaxedCombining).
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Insert(x int64) {
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

func (t *Relaxed) insertDirect(sh *rshard, lx int64) {
	// pending feeds only the adaptive controller's direct-mode signal;
	// non-adaptive tries skip the two extra RMWs on the wait-free path.
	adaptive := sh.ctl != nil
	if adaptive {
		sh.pending.Add(1)
	}
	sh.count.Add(1)
	if !sh.trie.Add(lx) {
		sh.count.Add(-1)
	}
	if adaptive {
		sh.pending.Add(-1)
	}
}

// Delete removes x from the set. Wait-free, O(log(u/k)) worst-case steps
// (routed like Insert under NewRelaxedCombining).
//
// Precondition: 0 ≤ x < U().
func (t *Relaxed) Delete(x int64) {
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

func (t *Relaxed) deleteDirect(sh *rshard, lx int64) {
	adaptive := sh.ctl != nil
	if adaptive {
		sh.pending.Add(1)
	}
	if sh.trie.Remove(lx) {
		sh.count.Add(-1)
	}
	if adaptive {
		sh.pending.Add(-1)
	}
}

// Adaptive reports whether per-shard controllers drive the publication
// mode at runtime.
func (t *Relaxed) Adaptive() bool { return t.shards[0].ctl != nil }

// RelaxedShardController returns shard i's adaptive controller, or nil
// (tests, stats).
func (t *Relaxed) RelaxedShardController(i int) *adapt.Controller { return t.shards[i].ctl }

// Placement returns a copy of the placement hint the trie was built with,
// or nil when unplaced.
func (t *Relaxed) Placement() []int {
	if t.placement == nil {
		return nil
	}
	return append([]int(nil), t.placement...)
}

// AdaptiveStats sums the per-shard mode-transition counters (zeros when
// the trie is not adaptive).
func (t *Relaxed) AdaptiveStats() (enables, disables int64) {
	for i := range t.shards {
		if c := t.shards[i].ctl; c != nil {
			e, d := c.Transitions()
			enables += e
			disables += d
		}
	}
	return enables, disables
}

// Predecessor returns the largest key smaller than y under the relaxed
// specification (§4.1): (k, true) for a key present during the call,
// (−1, true) when no key below y was visible, (0, false) for ⊥ when a
// concurrent update interfered. The owning shard is queried first; lower
// shards are scanned for their max, skipping shards whose occupancy
// over-approximation reads zero. Wait-free: O(log(u/k) + k) worst-case
// steps.
//
// Precondition: 0 ≤ y < U().
func (t *Relaxed) Predecessor(y int64) (int64, bool) {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly > 0 {
		p, ok := t.shards[j].trie.Predecessor(ly)
		if !ok {
			return 0, false
		}
		if p >= 0 {
			return int64(j)<<t.shardBits | p, true
		}
	}
	for i := j - 1; i >= 0; i-- {
		sh := &t.shards[i]
		if sh.count.Load() == 0 {
			continue
		}
		if sh.trie.Search(t.width - 1) {
			return int64(i)<<t.shardBits | (t.width - 1), true
		}
		p, ok := sh.trie.Predecessor(t.width - 1)
		if !ok {
			return 0, false
		}
		if p >= 0 {
			return int64(i)<<t.shardBits | p, true
		}
	}
	return -1, true
}

// Successor returns the smallest key greater than y with the mirrored
// relaxed semantics of Predecessor. Wait-free: O(log(u/k) + k) worst-case
// steps.
//
// Precondition: 0 ≤ y < U().
func (t *Relaxed) Successor(y int64) (int64, bool) {
	j := int(y >> t.shardBits)
	ly := y & (t.width - 1)
	if ly < t.width-1 {
		s, ok := t.shards[j].trie.Successor(ly)
		if !ok {
			return 0, false
		}
		if s >= 0 {
			return int64(j)<<t.shardBits | s, true
		}
	}
	for i := j + 1; i < t.k; i++ {
		sh := &t.shards[i]
		if sh.count.Load() == 0 {
			continue
		}
		if sh.trie.Search(0) {
			return int64(i) << t.shardBits, true
		}
		s, ok := sh.trie.Successor(0)
		if !ok {
			return 0, false
		}
		if s >= 0 {
			return int64(i)<<t.shardBits | s, true
		}
	}
	return -1, true
}
