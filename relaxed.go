package lockfreetrie

import (
	"fmt"

	"repro/internal/relaxed"
)

// Relaxed is the paper's §4 wait-free relaxed binary trie: updates and
// membership are strongly linearizable and wait-free (O(log u) worst-case
// steps), but Predecessor may abstain while concurrent updates interfere.
// It is the right structure when bounded per-operation work matters more
// than always-answering queries (e.g. real-time producers with a
// best-effort scanner). The full Trie builds on it.
type Relaxed struct {
	trie *relaxed.Trie
}

// NewRelaxed returns an empty relaxed trie over {0,…,universe−1} (same
// bounds as New). It is always the paper's single unsharded §4 trie:
// WithShards(k) with k > 1, WithCombining, WithAdaptiveCombining,
// WithPlacementHint and WithDurability return an error naming the option.
// WithoutCompressedDescents applies; the observability options are
// accepted and ignored.
func NewRelaxed(universe int64, opts ...Option) (*Relaxed, error) {
	cfg := config{shards: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	var rejected string
	switch {
	case cfg.shards > 1:
		rejected = fmt.Sprintf("WithShards(%d)", cfg.shards)
	case cfg.combining:
		rejected = "WithCombining"
	case cfg.adaptive:
		rejected = "WithAdaptiveCombining"
	case cfg.placement != nil:
		rejected = "WithPlacementHint"
	case cfg.dur != nil:
		return nil, fmt.Errorf("lockfreetrie: WithDurability is incompatible with NewRelaxed (no batch entrypoint to seed recovery through)")
	}
	if rejected != "" {
		return nil, fmt.Errorf("lockfreetrie: %s is incompatible with NewRelaxed (the relaxed trie is one unsharded trie with no combining layer)", rejected)
	}
	r, err := relaxed.New(universe)
	if err != nil {
		return nil, fmt.Errorf("lockfreetrie: %w", err)
	}
	if cfg.noCompress {
		r.Bits().SetCompressedDescents(false)
	}
	return &Relaxed{trie: r}, nil
}

// Universe returns the padded universe size.
func (t *Relaxed) Universe() int64 { return t.trie.U() }

// Len returns the number of keys currently in the set, under the same
// weak-consistency contract as Trie.Len: exact at quiescence, off by at
// most the number of in-flight updates under concurrency. O(1).
func (t *Relaxed) Len() int64 { return t.trie.Len() }

func (t *Relaxed) check(x int64) error {
	if x < 0 || x >= t.trie.U() {
		return &KeyRangeError{Key: x, Universe: t.trie.U()}
	}
	return nil
}

// Contains reports whether x is in the set. O(1) worst-case steps.
func (t *Relaxed) Contains(x int64) (bool, error) {
	if err := t.check(x); err != nil {
		return false, err
	}
	return t.trie.Search(x), nil
}

// Insert adds x to the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Insert(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.trie.Insert(x)
	return nil
}

// Delete removes x from the set. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Delete(x int64) error {
	if err := t.check(x); err != nil {
		return err
	}
	t.trie.Delete(x)
	return nil
}

// Predecessor returns the largest key smaller than y. ok=false means the
// query abstained because concurrent updates on keys in (result, y)
// interfered; when every key in that range is quiescent the answer is exact
// (−1 for "no predecessor"). Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Predecessor(y int64) (pred int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	pred, ok = t.trie.Predecessor(y)
	return pred, ok, nil
}

// Successor returns the smallest key greater than y, with the mirrored
// abstention semantics of Predecessor (−1 means "no successor"). An
// extension beyond the paper. Wait-free, O(log u) worst-case steps.
func (t *Relaxed) Successor(y int64) (succ int64, ok bool, err error) {
	if err := t.check(y); err != nil {
		return -1, false, err
	}
	succ, ok = t.trie.Successor(y)
	return succ, ok, nil
}
