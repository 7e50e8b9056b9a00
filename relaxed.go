package lockfreetrie

import (
	"fmt"

	"repro/internal/combine"
	"repro/internal/relaxed"
	"repro/internal/sharded"
)

// relaxedSet is the backend contract shared by the unsharded relaxed trie
// and its sharded façade.
type relaxedSet interface {
	Search(x int64) bool
	Insert(x int64)
	Delete(x int64)
	Predecessor(y int64) (int64, bool)
	Successor(y int64) (int64, bool)
	Len() int64
	U() int64
}

// Relaxed is the paper's §4 wait-free relaxed binary trie: updates and
// membership are strongly linearizable and wait-free (O(log u) worst-case
// steps), but Predecessor may abstain while concurrent updates interfere.
// It is the right structure when bounded per-operation work matters more
// than always-answering queries (e.g. real-time producers with a
// best-effort scanner). The full Trie builds on it.
type Relaxed struct {
	set       relaxedSet
	shards    int
	adaptive  bool
	placement []int // WithPlacementHint copy; nil when unplaced
}

// newRelaxedSharded mirrors config.newSharded for the relaxed backends.
func (c *config) newRelaxedSharded(universe int64, k int) (*sharded.Relaxed, error) {
	t, err := sharded.NewRelaxedWithOptions(universe, k, c.shardedOptions())
	if err != nil {
		return nil, err
	}
	if c.noCompress {
		for i := 0; i < t.Shards(); i++ {
			t.Shard(i).Bits().SetCompressedDescents(false)
		}
	}
	return t, nil
}

// NewRelaxed returns an empty relaxed trie over {0,…,universe−1} (same
// bounds as New). WithShards(k) partitions the universe across k
// independent relaxed tries under the same §4.1 contract — answers exact
// at quiescence, abstention only under interference — though under
// concurrent updates the sharded scan returns definite-but-inexact
// answers (a key present during the call that interference kept from
// being the true predecessor) in some cases where the unsharded trie
// would answer exactly or abstain. WithCombining routes updates through
// per-shard combiners; the relaxed trie has no announcement lists to
// amortize, so this trades the §4 per-op wait-freedom of batched updates
// for the combiner handoff and is only worth it under extreme same-range
// churn (see internal/combine.RelaxedSet). WithAdaptiveCombining makes
// that call per shard at runtime from the in-flight update count, with
// the same caveat.
func NewRelaxed(universe int64, opts ...Option) (*Relaxed, error) {
	cfg := config{shards: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.validatePlacement(); err != nil {
		return nil, err
	}
	if cfg.dur != nil {
		return nil, fmt.Errorf("lockfreetrie: WithDurability is incompatible with NewRelaxed (no batch entrypoint to seed recovery through)")
	}
	// Placement always routes through newRelaxedSharded, as in New.
	if cfg.shards == 1 && !cfg.placementSet {
		r, err := relaxed.New(universe)
		if err != nil {
			return nil, fmt.Errorf("lockfreetrie: %w", err)
		}
		if cfg.noCompress {
			r.Bits().SetCompressedDescents(false)
		}
		var s relaxedSet
		if cfg.adaptive {
			s = combine.WrapRelaxedAdaptive(r, cfg.acfg, 0)
		} else {
			s = combine.WrapRelaxed(r, cfg.combining, 0)
		}
		return &Relaxed{set: s, shards: 1, adaptive: cfg.adaptive}, nil
	}
	st, err := cfg.newRelaxedSharded(universe, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("lockfreetrie: %w", err)
	}
	return &Relaxed{set: st, shards: cfg.shards, adaptive: cfg.adaptive,
		placement: cfg.placement}, nil
}

// PlacementHint returns a copy of the WithPlacementHint owners slice, or
// nil when the trie is unplaced.
func (t *Relaxed) PlacementHint() []int {
	if t.placement == nil {
		return nil
	}
	return append([]int(nil), t.placement...)
}

// Universe returns the padded universe size.
func (t *Relaxed) Universe() int64 { return t.set.U() }

// Shards returns the configured shard count (1 for the unsharded trie).
func (t *Relaxed) Shards() int { return t.shards }

// AdaptiveCombining reports whether WithAdaptiveCombining was set.
func (t *Relaxed) AdaptiveCombining() bool { return t.adaptive }

// AdaptiveStats returns the cumulative mode-transition counts summed over
// all shards, mirroring Trie.AdaptiveStats. Zeros unless
// WithAdaptiveCombining was set.
func (t *Relaxed) AdaptiveStats() (enables, disables int64) {
	if a, ok := t.set.(adaptiveStats); ok {
		return a.AdaptiveStats()
	}
	return 0, 0
}

// Len returns the number of keys currently in the set, under the same
// weak-consistency contract as Trie.Len: exact at quiescence, off by at
// most the number of in-flight updates under concurrency. O(1) unsharded,
// O(shards) with WithShards.
func (t *Relaxed) Len() int64 { return t.set.Len() }

func (t *Relaxed) check(x int64) error {
	if x < 0 || x >= t.set.U() {
		return &KeyRangeError{Key: x, Universe: t.set.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
func (t *Relaxed) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	return t.set.Search(x), nil
}

// Insert adds x to the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.set.Insert(x)
	return nil
}

// Delete removes x from the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.set.Delete(x)
	return nil
}

// Predecessor returns the largest key smaller than y. ok=false means the
// query abstained because concurrent updates on keys in (result, y)
// interfered; when every key in that range is quiescent the answer is exact
// (−1 for "no predecessor"). Wait-free, O(log u) worst-case steps (plus
// O(shards) for the sharded variant).
func (t *Relaxed) Predecessor(y int64) (pred int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	pred, ok = t.set.Predecessor(y)
	return pred, ok, nil
}

// Successor returns the smallest key greater than y, with the mirrored
// abstention semantics of Predecessor (−1 means "no successor"). An
// extension beyond the paper. Wait-free, O(log u) worst-case steps (plus
// O(shards) for the sharded variant).
func (t *Relaxed) Successor(y int64) (succ int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	succ, ok = t.set.Successor(y)
	return succ, ok, nil
}
