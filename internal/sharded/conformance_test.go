package sharded_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/combine"
	"repro/internal/settest"
	"repro/internal/sharded"
)

// shardCounts is the matrix the whole suite runs against: unsharded (the
// reference behaviour), lightly sharded, and heavily sharded relative to
// the test universes (u=64 at k=16 leaves shards only 4 keys wide, so
// cross-shard stitching dominates).
var shardCounts = []int{1, 4, 16}

func factory(k int) settest.Factory {
	return func(u int64) (settest.Set, error) { return sharded.New(u, k) }
}

// adaptiveFlipFactory builds adaptive tries (aggressive controller,
// combining at start so rounds run from the first op) and wires the
// mid-round test hook to force-flip a rotating shard's mode inside every
// round — the mid-flip window of DESIGN.md §Adaptive combining. Two
// thirds of the forced flips re-enable combining so rounds (and therefore
// the hook) keep firing.
func adaptiveFlipFactory(t *testing.T, k int) settest.Factory {
	t.Helper()
	var cur atomic.Pointer[sharded.Trie]
	var n atomic.Int64
	combine.SetTestHookMidRound(func() {
		if tr := cur.Load(); tr != nil {
			i := n.Add(1)
			tr.ShardController(int(i) % k).ForceMode(i%3 != 0)
		}
	})
	t.Cleanup(func() { combine.SetTestHookMidRound(nil) })
	return func(u int64) (settest.Set, error) {
		cfg := aggressiveCfg()
		cfg.StartCombining = true
		tr, err := sharded.NewAdaptive(u, k, cfg)
		if err != nil {
			return nil, err
		}
		cur.Store(tr)
		return tr, nil
	}
}

// combiningFactory builds combining tries and wires the mid-round test
// hook to yield the processor inside every round, after the round's slots
// are taken and before its batch applies: the widest window of the
// combining protocol, in which peers retract, elect and publish against a
// round that holds claimed ops.
func combiningFactory(t *testing.T, k int) settest.Factory {
	t.Helper()
	combine.SetTestHookMidRound(runtime.Gosched)
	t.Cleanup(func() { combine.SetTestHookMidRound(nil) })
	return func(u int64) (settest.Set, error) { return sharded.NewCombining(u, k) }
}

// forEachVariant runs fn against the plain factory, the adaptive
// flip-stressed one and the static combining one, at every shard count.
func forEachVariant(t *testing.T, fn func(t *testing.T, f settest.Factory)) {
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			fn(t, factory(k))
		})
		t.Run(fmt.Sprintf("shards=%d/adaptive", k), func(t *testing.T) {
			fn(t, adaptiveFlipFactory(t, k))
		})
		t.Run(fmt.Sprintf("shards=%d/combining", k), func(t *testing.T) {
			fn(t, combiningFactory(t, k))
		})
	}
}

func TestSequentialConformance(t *testing.T) {
	forEachVariant(t, func(t *testing.T, f settest.Factory) {
		settest.RunSequential(t, f, 64)
	})
}

func TestEdgeCases(t *testing.T) {
	forEachVariant(t, func(t *testing.T, f settest.Factory) {
		settest.RunEdgeCases(t, f, 64)
	})
}

func TestConcurrentConformance(t *testing.T) {
	forEachVariant(t, func(t *testing.T, f settest.Factory) {
		settest.RunConcurrent(t, f, 256, 8, 1200)
	})
}
