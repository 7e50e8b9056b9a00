// Benchmarks regenerating the experiment suite of EXPERIMENTS.md. The paper
// has no empirical tables; each benchmark here measures one theorem-shaped
// claim (C1–C7) or ablation (A1–A2) from DESIGN.md's experiment index.
//
// Run all:  go test -bench=. -benchmem
// One row:  go test -bench=BenchmarkSearchVsUniverse -benchmem
package lockfreetrie_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/bitstrie"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/efrb"
	"repro/internal/frlist"
	"repro/internal/harness"
	"repro/internal/locktrie"
	"repro/internal/relaxed"
	"repro/internal/sharded"
	"repro/internal/skiplist"
	"repro/internal/versioned"
	"repro/internal/workload"
)

// newCore builds a core trie or aborts the benchmark.
func newCore(b *testing.B, u int64) *core.Trie {
	b.Helper()
	tr, err := core.New(u)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// prefillEvery inserts every gap-th key in shuffled order (sequential order
// is a pathological input for the unbalanced-BST baseline).
func prefillEvery(s harness.Set, u, gap int64) {
	keys := make([]int64, 0, u/gap)
	for k := int64(0); k < u; k += gap {
		keys = append(keys, k)
	}
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		s.Insert(k)
	}
}

// --- C1: Search is O(1) — flat across universe sizes ------------------------

func BenchmarkSearchVsUniverse(b *testing.B) {
	for _, exp := range []uint{8, 12, 16, 20} {
		u := int64(1) << exp
		b.Run(fmt.Sprintf("u=2^%d", exp), func(b *testing.B) {
			tr := newCore(b, u)
			prefillEvery(tr, u, 2)
			keys := randomKeys(u, 1<<12, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Search(keys[i&(len(keys)-1)])
			}
		})
	}
}

// --- C2: solo update/predecessor cost grows with log u ----------------------

func BenchmarkSoloOpsVsLogU(b *testing.B) {
	for _, exp := range []uint{8, 12, 16, 20} {
		u := int64(1) << exp
		b.Run(fmt.Sprintf("insert+delete/u=2^%d", exp), func(b *testing.B) {
			tr := newCore(b, u)
			keys := randomKeys(u, 1<<12, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&(len(keys)-1)]
				tr.Insert(k)
				tr.Delete(k)
			}
		})
		b.Run(fmt.Sprintf("predecessor/u=2^%d", exp), func(b *testing.B) {
			tr := newCore(b, u)
			prefillEvery(tr, u, 16)
			keys := randomKeys(u, 1<<12, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Predecessor(keys[i&(len(keys)-1)])
			}
		})
	}
}

// --- C3: steps per op vs point contention (hot-range workload) --------------

func BenchmarkStepsVsContention(b *testing.B) {
	const u = int64(1 << 16)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := newCore(b, u)
			stats := &core.Stats{}
			tr.SetStats(stats)
			bstats := &bitstrie.Stats{}
			tr.Bits().SetStats(bstats)
			dist := workload.HotRange{U: u, HotLo: u / 2, HotWidth: 64, HotPct: 80}
			runParallelOps(b, workers, func(id int, rng *rand.Rand) {
				k := dist.Next(rng)
				switch rng.Intn(4) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				case 2:
					tr.Search(k)
				default:
					tr.Predecessor(k)
				}
			})
			ops := float64(b.N)
			b.ReportMetric(float64(bstats.CASAttempts.Load())/ops, "cas/op")
			b.ReportMetric(float64(bstats.BitReads.Load())/ops, "bitreads/op")
			b.ReportMetric(float64(stats.UallTraversalSteps.Load())/ops, "uallsteps/op")
			b.ReportMetric(float64(stats.Notifications.Load())/ops, "notifies/op")
		})
	}
}

// --- C4: bystander progress under an in-operation staller --------------------
//
// The staller repeatedly parks for 2ms inside its operation: inside the
// write lock for the rwlock trie (InsertStalled), anywhere for the
// lock-free trie — a stalled goroutine cannot block others wherever it
// stops. ns/op measures the BYSTANDERS; lock-freedom predicts the
// lock-free ns/op is unchanged by the staller while the rwlock ns/op
// explodes.
func BenchmarkThroughputWithStalls(b *testing.B) {
	const u = int64(1 << 12)
	const pause = 2 * time.Millisecond
	run := func(b *testing.B, s harness.Set, staller func(stop <-chan struct{})) {
		b.Helper()
		prefillEvery(s, u, 4)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if staller != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				staller(stop)
			}()
		}
		rng := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := 2 + rng.Int63n(u-2)
			if i%2 == 0 {
				s.Insert(k)
			} else {
				s.Delete(k)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	}
	b.Run("lockfree/baseline", func(b *testing.B) {
		run(b, mustCore(u), nil)
	})
	b.Run("lockfree/staller", func(b *testing.B) {
		s := mustCore(u)
		run(b, s, func(stop <-chan struct{}) {
			for {
				select {
				case <-stop:
					return
				default:
					s.Insert(1)
					time.Sleep(pause)
				}
			}
		})
	})
	b.Run("rwlock/baseline", func(b *testing.B) {
		run(b, mustLock(u), nil)
	})
	b.Run("rwlock/staller", func(b *testing.B) {
		s := mustLock(u)
		run(b, s, func(stop <-chan struct{}) {
			for {
				select {
				case <-stop:
					return
				default:
					s.InsertStalled(1, func() { time.Sleep(pause) })
				}
			}
		})
	})
}

// --- C5: mixed-workload throughput vs baselines ------------------------------

func BenchmarkMixedThroughput(b *testing.B) {
	const u = int64(1 << 16)
	impls := []struct {
		name string
		mk   func() harness.Set
	}{
		{"lockfree-trie", func() harness.Set { return mustCore(u) }},
		{"sharded-trie-16", func() harness.Set { return mustSharded(u, 16) }},
		{"rwlock-trie", func() harness.Set { return mustLock(u) }},
		{"versioned-cas-trie", func() harness.Set { return mustVersioned(u) }},
		{"lockfree-skiplist", func() harness.Set { return mustSkip(u) }},
		{"lockfree-bst", func() harness.Set { return mustBST(u) }},
	}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"update-heavy", workload.MixUpdateHeavy},
		{"read-heavy", workload.MixReadHeavy},
		{"pred-heavy", workload.MixPredHeavy},
	}
	for _, impl := range impls {
		for _, m := range mixes {
			b.Run(impl.name+"/"+m.name, func(b *testing.B) {
				s := impl.mk()
				prefillEvery(s, u, 8)
				gens := makeGens(b, m.mix, u, 4)
				runParallelOps(b, 4, func(id int, rng *rand.Rand) {
					harness.ApplyOp(s, gens[id].Next())
				})
			})
		}
	}
}

// --- C5b: crossover — FR linked list (O(n)) vs trie (O(log u)) ---------------
//
// The paper's motivation: list-shaped structures degrade linearly in the
// set size while the trie stays logarithmic in the universe. Half-full
// sets, mixed search/predecessor load.
func BenchmarkListVsTrieCrossover(b *testing.B) {
	for _, exp := range []uint{4, 6, 8, 10, 12} {
		u := int64(1) << exp
		impls := []struct {
			name string
			mk   func() harness.Set
		}{
			{"frlist", func() harness.Set { return mustFR(u) }},
			{"lockfree-trie", func() harness.Set { return mustCore(u) }},
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/u=2^%d", impl.name, exp), func(b *testing.B) {
				s := impl.mk()
				prefillEvery(s, u, 2)
				keys := randomKeys(u, 1<<10, 9)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := keys[i&(len(keys)-1)]
					if i%2 == 0 {
						s.Search(k)
					} else {
						s.Predecessor(k)
					}
				}
			})
		}
	}
}

func mustFR(u int64) *frlist.List {
	l, err := frlist.New(u)
	if err != nil {
		panic(err)
	}
	return l
}

// --- C6: RelaxedPredecessor ⊥-rate vs update pressure ------------------------

func BenchmarkRelaxedBottomRate(b *testing.B) {
	const u = int64(1 << 10)
	for _, churners := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("churners=%d", churners), func(b *testing.B) {
			tr, err := relaxed.New(u)
			if err != nil {
				b.Fatal(err)
			}
			tr.Insert(1) // stable floor
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < churners; c++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
							k := u/2 + rng.Int63n(u/4)
							tr.Insert(k)
							tr.Delete(k)
						}
					}
				}(int64(c + 1))
			}
			var bottoms int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Predecessor(u - 1); !ok {
					bottoms++
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(bottoms)/float64(b.N), "bottom-rate")
		})
	}
}

// --- C7: auxiliary space vs contention ---------------------------------------

func BenchmarkAuxSpaceVsContention(b *testing.B) {
	const u = int64(1 << 12)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := newCore(b, u)
			var maxU, maxP int64
			var sampler sync.WaitGroup
			stop := make(chan struct{})
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if n := int64(tr.AnnouncedUpdates()); n > maxU {
							maxU = n
						}
						if n := int64(tr.AnnouncedPredecessors()); n > maxP {
							maxP = n
						}
					}
				}
			}()
			runParallelOps(b, workers, func(id int, rng *rand.Rand) {
				k := rng.Int63n(u)
				switch rng.Intn(3) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				default:
					tr.Predecessor(k)
				}
			})
			close(stop)
			sampler.Wait()
			b.ReportMetric(float64(maxU), "max-uall")
			b.ReportMetric(float64(maxP), "max-pall")
		})
	}
}

// --- S1: sharding breaks the global announcement-list bottleneck -------------
//
// Workers update disjoint key bands (the embarrassingly-parallel regime).
// Unsharded, every operation still announces on the one U-ALL/RU-ALL/P-ALL,
// so each op traverses and notifies the announcements other workers parked
// there; sharded with k ≥ workers, each worker's announcements stay on its
// own shard's lists, which also removes the cache-line ping-pong when
// workers run on separate CPUs.
func BenchmarkShardedDisjointUpdates(b *testing.B) {
	const u = int64(1 << 16)
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{2, 8} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				s := mustSharded(u, shards)
				band := u / int64(workers)
				runParallelOps(b, workers, func(id int, rng *rand.Rand) {
					k := int64(id)*band + rng.Int63n(band)
					switch rng.Intn(4) {
					case 0:
						s.Insert(k)
					case 1:
						s.Delete(k)
					case 2:
						s.Search(k)
					default:
						s.Predecessor(k)
					}
				})
			})
		}
	}
}

// --- S2: the price of sharding — cross-shard predecessor stitching -----------
//
// Worst case for the fallback scan: a sparse set (only low keys present)
// with predecessor queries from the top of the universe, forcing a validated
// scan over all k shards. Measures the O(k) summary-scan overhead the
// WithShards documentation warns about.
func BenchmarkShardedCrossShardPredecessor(b *testing.B) {
	const u = int64(1 << 16)
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := mustSharded(u, shards)
			s.Insert(1)
			s.Insert(2)
			keys := randomKeys(u/2, 1<<12, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Predecessor(u/2 + keys[i&(len(keys)-1)])
			}
		})
	}
}

// --- A1: how often the second CAS attempt rescues a delete -------------------

func BenchmarkDeleteCASAttempts(b *testing.B) {
	const u = int64(1 << 8)
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := newCore(b, u)
			bstats := &bitstrie.Stats{}
			tr.Bits().SetStats(bstats)
			runParallelOps(b, workers, func(id int, rng *rand.Rand) {
				k := rng.Int63n(16) // tight band: deletes collide on parents
				tr.Insert(k)
				tr.Delete(k)
			})
			ops := float64(b.N)
			b.ReportMetric(float64(bstats.SecondCASSuccess.Load())/ops, "2ndcas-rescues/op")
			b.ReportMetric(float64(bstats.CASFailures.Load())/ops, "casfail/op")
		})
	}
}

// --- A2: notification cost vs announced predecessors -------------------------

func BenchmarkNotifyCostVsPredecessors(b *testing.B) {
	const u = int64(1 << 12)
	for _, parked := range []int{0, 2, 8} {
		b.Run(fmt.Sprintf("parked-preds=%d", parked), func(b *testing.B) {
			tr := newCore(b, u)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for p := 0; p < parked; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							tr.Predecessor(u - 1) // keeps a P-ALL entry live
						}
					}
				}()
			}
			var k atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := k.Add(1) & (u/2 - 1)
				tr.Insert(key)
				tr.Delete(key)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// --- A3: allocation behaviour of the hot paths --------------------------------
//
// Steady-state allocs/op and B/op across the three trie variants and the
// three mixes the a3 trajectory gate tracks (DESIGN.md experiment index).
// The Predecessor-heavy mix is the acceptance gate: the scratch-arena
// recovery must hold allocs/op far below the per-call-map baseline recorded
// in BENCH_allocs.json.
func BenchmarkPredMixes(b *testing.B) {
	const u = int64(1 << 16)
	impls := []struct {
		name string
		mk   func() harness.Set
	}{
		{"core", func() harness.Set { return mustCore(u) }},
		{"relaxed", func() harness.Set { return harness.Collapse(mustRelaxed(u)) }},
		{"sharded-16", func() harness.Set { return mustSharded(u, 16) }},
	}
	for _, impl := range impls {
		for _, m := range workload.BenchMixes {
			b.Run(impl.name+"/"+m.Name, func(b *testing.B) {
				s := impl.mk()
				prefillEvery(s, u, 8)
				gens := makeGens(b, m.Mix, u, 4)
				b.ReportAllocs()
				runParallelOps(b, 4, func(id int, rng *rand.Rand) {
					harness.ApplyOp(s, gens[id].Next())
				})
			})
		}
	}
}

// --- CB1: flat combining amortizes announcements ------------------------------
//
// Same-shard update pressure with and without the combining layer, plus the
// explicit pre-batched ApplyBatch path. The triebench cb1 experiment runs
// the calibrated sweep (throughput + announcements/op into
// BENCH_combine.json); these benchmarks keep the three code paths hot in
// the -benchtime 1x CI smoke.
func BenchmarkCombiningUpdates(b *testing.B) {
	const u = int64(1 << 14)
	for _, combining := range []bool{false, true} {
		b.Run(fmt.Sprintf("combining=%v", combining), func(b *testing.B) {
			mk := sharded.New
			if combining {
				mk = sharded.NewCombining
			}
			s, err := mk(u, 1)
			if err != nil {
				b.Fatal(err)
			}
			prefillEvery(s, u, 4)
			runParallelOps(b, 8, func(id int, rng *rand.Rand) {
				k := rng.Int63n(u)
				if rng.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Delete(k)
				}
			})
		})
	}
}

// BenchmarkAdaptiveUpdates measures the adaptive mode word's cost on the
// update path against both static modes, on one clustered shard (8
// goroutines, one combiner catchment — the regime the controller should
// converge into combining on).
func BenchmarkAdaptiveUpdates(b *testing.B) {
	const u = int64(1 << 14)
	makers := []struct {
		name string
		mk   func() (*sharded.Trie, error)
	}{
		{"direct", func() (*sharded.Trie, error) { return sharded.New(u, 1) }},
		{"combining", func() (*sharded.Trie, error) { return sharded.NewCombining(u, 1) }},
		{"adaptive", func() (*sharded.Trie, error) { return sharded.NewAdaptive(u, 1, adapt.Config{}) }},
	}
	for _, m := range makers {
		b.Run(m.name, func(b *testing.B) {
			s, err := m.mk()
			if err != nil {
				b.Fatal(err)
			}
			prefillEvery(s, u, 4)
			runParallelOps(b, 8, func(id int, rng *rand.Rand) {
				k := rng.Int63n(u)
				if rng.Intn(2) == 0 {
					s.Insert(k)
				} else {
					s.Delete(k)
				}
			})
		})
	}
}

func BenchmarkApplyBatch(b *testing.B) {
	const u = int64(1 << 14)
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			s := mustSharded(u, 4)
			prefillEvery(s, u, 4)
			rng := rand.New(rand.NewSource(5))
			ops := make([]core.BatchOp, size)
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				ops = ops[:0]
				for len(ops) < size {
					ops = append(ops, core.BatchOp{Key: rng.Int63n(u), Del: rng.Intn(2) == 0})
				}
				s.ApplyBatch(combine.SortDedup(ops))
				ops = ops[:size]
			}
		})
	}
}

// --- CC1: cache-compressed descents -------------------------------------------
//
// Compressed vs uncompressed traversals on a sparse universe (256 keys in
// 2^20): the per-64-node occupancy words let a descent step over
// certified-empty regions in one load. The triebench cc1 experiment runs
// the calibrated sweep into BENCH_cache.json; these benchmarks keep both
// code paths hot in the -benchtime 1x CI smoke.

// BenchmarkSparseSearch is the no-regression control: Search reads its
// leaf in O(1) and never descends, so the summary machinery must cost it
// nothing.
func BenchmarkSparseSearch(b *testing.B) {
	const u = int64(1 << 20)
	for _, compressed := range []bool{true, false} {
		b.Run(fmt.Sprintf("compressed=%v", compressed), func(b *testing.B) {
			tr := newCore(b, u)
			tr.Bits().SetCompressedDescents(compressed)
			prefillEvery(tr, u, 4096)
			keys := randomKeys(u, 1<<12, 21)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Search(keys[i&(len(keys)-1)])
			}
		})
	}
}

// BenchmarkPredDescent is the win regime the summaries exist for:
// predecessor descents over long empty gaps between occupied leaves.
func BenchmarkPredDescent(b *testing.B) {
	const u = int64(1 << 20)
	for _, compressed := range []bool{true, false} {
		b.Run(fmt.Sprintf("compressed=%v", compressed), func(b *testing.B) {
			tr := newCore(b, u)
			tr.Bits().SetCompressedDescents(compressed)
			prefillEvery(tr, u, 4096)
			keys := randomKeys(u, 1<<12, 22)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Predecessor(keys[i&(len(keys)-1)])
			}
		})
	}
}

// --- shared helpers -----------------------------------------------------------

func mustRelaxed(u int64) *relaxed.Trie {
	tr, err := relaxed.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustCore(u int64) *core.Trie {
	tr, err := core.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustSharded(u int64, k int) *sharded.Trie {
	tr, err := sharded.New(u, k)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustLock(u int64) *locktrie.Trie {
	tr, err := locktrie.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustVersioned(u int64) *versioned.Trie {
	tr, err := versioned.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustSkip(u int64) *skiplist.List {
	tr, err := skiplist.New(u, 42)
	if err != nil {
		panic(err)
	}
	return tr
}

func mustBST(u int64) *efrb.Tree {
	tr, err := efrb.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

func randomKeys(u int64, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(u)
	}
	return keys
}

func makeGens(b *testing.B, mix workload.Mix, u int64, workers int) []*workload.Generator {
	b.Helper()
	gens := make([]*workload.Generator, workers)
	for i := range gens {
		g, err := workload.NewGenerator(mix, workload.Uniform{U: u}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gens[i] = g
	}
	return gens
}

// runParallelOps distributes b.N operations over `workers` goroutines, each
// with its own deterministic rng, timing only the parallel phase.
func runParallelOps(b *testing.B, workers int, op func(id int, rng *rand.Rand)) {
	b.Helper()
	per := b.N / workers
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*101 + 7))
			<-start
			for i := 0; i < per; i++ {
				op(id, rng)
			}
		}(w)
	}
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
}
