package sharded_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adapt"
	"repro/internal/combine"
	"repro/internal/sharded"
)

// aggressiveCfg samples and flips fast enough for test-sized workloads,
// with thresholds pinned so the suite is independent of default
// re-tuning.
func aggressiveCfg() adapt.Config {
	return adapt.Config{SampleEvery: 8, MinDwell: 1,
		Alpha: 0.5, Enable: 2.5, Disable: 1.4}
}

// TestAdaptiveDeterministicRouting flips one shard's mode by injecting
// synthetic signal samples through the controller's Step hook — no
// contention, no sleeps — and asserts the publication path follows the
// mode word: direct ops leave the combiner counters untouched, enabled
// ops drain through rounds, and the organic size-1 rounds of a solo
// publisher then disable the shard within the dwell bound.
func TestAdaptiveDeterministicRouting(t *testing.T) {
	cfg := adapt.Config{SampleEvery: 16, MinDwell: 2,
		Alpha: 0.5, Enable: 2.5, Disable: 1.4}
	tr, err := sharded.NewAdaptive(256, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Adaptive() || !tr.Combining() {
		t.Fatalf("Adaptive() = %v, Combining() = %v, want true, true", tr.Adaptive(), tr.Combining())
	}
	ctl := tr.ShardController(0)
	if ctl == nil || tr.ShardCombining(0) {
		t.Fatalf("shard 0: controller %v, combining %v; want non-nil, direct", ctl, tr.ShardCombining(0))
	}

	// Direct mode: ops must not touch the publication slots.
	for i := int64(0); i < 10; i++ {
		tr.Insert(i)
	}
	if _, batched, direct, _ := tr.CombineStats(); batched+direct != 0 {
		t.Fatalf("direct-mode ops reached the combiner: batched %d, direct %d", batched, direct)
	}

	// Inject clustering evidence: two visible peers per sample walk the
	// EWMA 1 → 2 → 2.5, reaching the enable threshold exactly at the
	// MinDwell-th sample (and leaving the estimate close enough to the
	// band that the later organic disable decays in 2 samples).
	ctl.Step(adapt.Sample{AnnLen: 2})
	ctl.Step(adapt.Sample{AnnLen: 2})
	if !tr.ShardCombining(0) {
		t.Fatalf("shard 0 still direct after injected clustering (estimate %v)", ctl.Estimate())
	}
	if e, d := tr.AdaptiveStats(); e != 1 || d != 0 {
		t.Fatalf("AdaptiveStats = (%d, %d), want (1, 0)", e, d)
	}

	// Enabled: ops route through rounds. A solo publisher drains size-1
	// rounds, so the same stretch of ops is also the organic thin-spread
	// evidence; the controller must disable within the dwell bound —
	// max(MinDwell, 2) samples (2 = the EWMA's decay distance here) plus
	// one sample of cadence slack.
	bound := cfg.SampleEvery * 4
	for i := int64(0); i < bound; i++ {
		if i%2 == 0 {
			tr.Insert(i % 64)
		} else {
			tr.Delete(i % 64)
		}
	}
	if _, batched, _, _ := tr.CombineStats(); batched == 0 {
		t.Fatal("enabled shard drained no ops through rounds")
	}
	if tr.ShardCombining(0) {
		t.Fatalf("solo publisher still combining after %d ops (estimate %v)", bound, ctl.Estimate())
	}
	if e, d := tr.AdaptiveStats(); e != 1 || d != 1 {
		t.Fatalf("AdaptiveStats = (%d, %d), want (1, 1)", e, d)
	}

	// Other shards never saw signals and must still be direct, untouched.
	for i := 1; i < 4; i++ {
		if tr.ShardCombining(i) {
			t.Fatalf("shard %d flipped without traffic", i)
		}
	}
}

// TestAdaptiveMidFlipStress is the disable-drain stress: a mid-round test
// hook toggles the round's shard mode inside the widest combiner window
// (slots taken, batch not yet applied), an unsynchronized flipper
// goroutine forces modes on every shard, and the aggressive controller
// config keeps organic flips churning underneath. Under -race this is the
// mid-flip linearizability scenario of DESIGN.md §Adaptive combining;
// the quiescent state must still be exact and the slots empty.
func TestAdaptiveMidFlipStress(t *testing.T) {
	for _, k := range shardCounts {
		t.Run(shardLabel(k), func(t *testing.T) {
			const u = int64(1 << 10)
			tr, err := sharded.NewAdaptive(u, k, aggressiveCfg())
			if err != nil {
				t.Fatal(err)
			}
			var flips atomic.Int64
			combine.SetTestHookMidRound(func() {
				n := flips.Add(1)
				tr.ShardController(int(n) % k).ForceMode(n%3 == 0)
			})
			defer combine.SetTestHookMidRound(nil)

			stop := make(chan struct{})
			var flipper sync.WaitGroup
			flipper.Add(1)
			go func() {
				defer flipper.Done()
				rng := rand.New(rand.NewSource(42))
				for {
					select {
					case <-stop:
						return
					default:
						tr.ShardController(rng.Intn(k)).ForceMode(rng.Intn(2) == 0)
					}
				}
			}()

			const goroutines, per = 8, 400
			width := u / goroutines
			var wg sync.WaitGroup
			finals := make([]map[int64]bool, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(id)*101 + 7))
					lo := int64(id) * width
					final := map[int64]bool{}
					for i := 0; i < per; i++ {
						x := lo + rng.Int63n(width)
						switch rng.Intn(5) {
						case 0, 1:
							tr.Insert(x)
							final[x] = true
						case 2:
							tr.Delete(x)
							delete(final, x)
						case 3:
							tr.Search(x)
						case 4:
							if p := tr.Predecessor(x); p >= x {
								t.Errorf("Predecessor(%d) = %d", x, p)
								return
							}
						}
					}
					finals[id] = final
				}(g)
			}
			wg.Wait()
			close(stop)
			flipper.Wait()

			present := map[int64]bool{}
			var n int64
			for _, final := range finals {
				for x := range final {
					present[x] = true
					n++
				}
			}
			for x := int64(0); x < u; x++ {
				if got := tr.Search(x); got != present[x] {
					t.Fatalf("quiescent Search(%d) = %v, want %v", x, got, present[x])
				}
			}
			if got := tr.Len(); got != n {
				t.Fatalf("quiescent Len = %d, want %d", got, n)
			}
			e, d := tr.AdaptiveStats()
			t.Logf("k=%d hook flips=%d organic enables=%d disables=%d", k, flips.Load(), e, d)
		})
	}
}
