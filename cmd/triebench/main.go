// Command triebench drives the experiment sweeps of EXPERIMENTS.md and
// prints one table per experiment, mirroring the benchmark suite in
// bench_test.go but with explicit parameter sweeps and a fixed op budget so
// runs are comparable across machines.
//
// Usage:
//
//	triebench -experiment all
//	triebench -experiment c5 -ops 200000 -workers 4
//	triebench -experiment s1 -shards 16 -json BENCH_shards.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lockfreetrie "repro"
	"repro/internal/bitstrie"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/efrb"
	"repro/internal/harness"
	"repro/internal/locktrie"
	"repro/internal/relaxed"
	"repro/internal/sharded"
	"repro/internal/skiplist"
	"repro/internal/versioned"
	"repro/internal/workload"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id: c1,c2,c3,c4,c5,c6,c7,a1,a2,a3,s1,cb1,cc1,ob1,sv1,wl1, or all (the paper-claim sweeps c1–a2; s1, a3, cb1, cc1, ob1, sv1 and wl1 run only when named, since they rewrite their recorded trajectory artifacts; the combining experiment is cb1 because c1 is the paper's C1 Search-cost claim)")
		ops         = flag.Int("ops", 100000, "operations per measurement")
		workers     = flag.Int("workers", 4, "default worker count")
		seed        = flag.Int64("seed", 1, "workload seed")
		shards      = flag.Int("shards", 16, "high shard count for the s1 sharding sweep and the a3 sharded variant")
		gomaxprocs  = flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS sweep for the trajectory experiments (e.g. 1,4,8); empty keeps the current setting")
		jsonPath    = flag.String("json", "BENCH_shards.json", "s1 trajectory output path (empty disables)")
		allocsPath  = flag.String("allocsjson", "BENCH_allocs.json", "a3 trajectory output path (empty disables)")
		combinePath = flag.String("combinejson", "BENCH_combine.json", "cb1 trajectory output path (empty disables)")
		combineReps = flag.Int("cb1reps", cb1Reps, "cb1 repetitions per configuration (median reported; CI smoke uses 1)")
		cachePath   = flag.String("cachejson", "BENCH_cache.json", "cc1 trajectory output path (empty disables)")
		cacheReps   = flag.Int("cc1reps", cc1Reps, "cc1 repetitions per configuration (median reported; CI smoke uses 1)")
		obsPath     = flag.String("obsjson", "BENCH_obs.json", "ob1 trajectory output path (empty disables)")
		obsReps     = flag.Int("ob1reps", ob1Reps, "ob1 repetitions per configuration (median reported; CI smoke uses 1)")
		serverPath  = flag.String("sv1json", "BENCH_sv1.json", "sv1 trajectory output path (empty disables)")
		serverReps  = flag.Int("sv1reps", sv1Reps, "sv1 repetitions per configuration (median reported; CI smoke uses 1)")
		serverDur   = flag.Duration("sv1dur", 1500*time.Millisecond, "sv1 open-loop measurement window per side per rep")
		walPath     = flag.String("waljson", "BENCH_wal.json", "wl1 trajectory output path (empty disables)")
		walReps     = flag.Int("wl1reps", wl1Reps, "wl1 repetitions per configuration (median reported; CI smoke uses 1)")
	)
	flag.Parse()
	inv := invocation{
		ops: *ops, workers: *workers, seed: *seed, shards: *shards,
		gomaxprocs: *gomaxprocs,
		jsonPath:   *jsonPath, allocsPath: *allocsPath,
		combinePath: *combinePath, combineReps: *combineReps,
		cachePath: *cachePath, cacheReps: *cacheReps,
		obsPath: *obsPath, obsReps: *obsReps,
		serverPath: *serverPath, serverReps: *serverReps, serverDur: *serverDur,
		walPath: *walPath, walReps: *walReps,
	}
	if err := run(*experiment, inv); err != nil {
		fmt.Fprintln(os.Stderr, "triebench:", err)
		os.Exit(1)
	}
}

// invocation carries one triebench run's parameters: the shared workload
// knobs, the GOMAXPROCS sweep, and each trajectory experiment's artifact
// path and repetition count.
type invocation struct {
	ops     int
	workers int
	seed    int64
	shards  int
	// gomaxprocs is the raw -gomaxprocs value: a comma-separated list of
	// GOMAXPROCS settings every trajectory experiment re-measures each of
	// its configurations under. Empty means "the current setting only".
	gomaxprocs  string
	jsonPath    string
	allocsPath  string
	combinePath string
	combineReps int
	cachePath   string
	cacheReps   int
	obsPath     string
	obsReps     int
	serverPath  string
	serverReps  int
	serverDur   time.Duration
	walPath     string
	walReps     int
}

// procs resolves the -gomaxprocs sweep; empty means the current setting.
func (inv invocation) procs() ([]int, error) {
	return parseGomaxprocs(inv.gomaxprocs)
}

// parseGomaxprocs parses a comma-separated GOMAXPROCS list. Entries must
// be positive integers; duplicates collapse (re-measuring the same P
// twice would only double the runtime, not the information). An empty
// string resolves to the process's current setting, preserving the
// single-P behaviour of every pre-sweep invocation.
func parseGomaxprocs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var procs []int
	seen := map[int]bool{}
	for _, field := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("-gomaxprocs %q: %q is not a positive integer", s, field)
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		procs = append(procs, p)
	}
	return procs, nil
}

// hostTopology is the per-point parallelism metadata every multi-P
// trajectory point carries: the GOMAXPROCS it was measured under plus
// what the host actually offers, so a reader (or the CI host-shape
// guard) can tell a true 8-core measurement from 8-way timeslicing on
// one core. Oversubscribed flags the latter: P above NumCPU is a legal
// and useful setting — it exercises the preemption-driven interleavings
// single-P runs cannot reach — but its throughput numbers measure
// scheduler pressure, not parallel speedup.
type hostTopology struct {
	GoMaxProcs     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"num_cpu"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	Oversubscribed bool   `json:"oversubscribed"`
}

// topologyAt describes the host at GOMAXPROCS=p.
func topologyAt(p int) hostTopology {
	return hostTopology{
		GoMaxProcs:     p,
		NumCPU:         runtime.NumCPU(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Oversubscribed: p > runtime.NumCPU(),
	}
}

// perP runs f once per requested GOMAXPROCS setting and restores the
// original value afterwards. The setting applies process-wide, so the
// sweep is strictly sequential — each point must finish (and its worker
// goroutines exit) before the next setting takes effect.
func perP(procs []int, f func(p int) error) error {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		if len(procs) > 1 {
			fmt.Printf("-- GOMAXPROCS=%d (NumCPU=%d) --\n", p, runtime.NumCPU())
		}
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// experimentIDs lists every runnable -experiment id, for the unknown-id
// error (a typo'd id in a CI step must fail the step loudly, not record
// nothing).
func experimentIDs() []string {
	return []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7",
		"a1", "a2", "a3", "s1", "cb1", "cc1", "ob1", "sv1", "wl1", "all"}
}

// runnersFor binds the experiment table to this invocation's artifact
// paths and repetition counts. Split from run so the id registry is
// testable against experimentIDs.
func runnersFor(inv invocation) map[string]func() error {
	simple := func(f func(ops, workers int, seed int64) error) func() error {
		return func() error { return f(inv.ops, inv.workers, inv.seed) }
	}
	return map[string]func() error{
		"c1": simple(expC1), "c2": simple(expC2), "c3": simple(expC3),
		"c4": simple(expC4), "c5": simple(expC5), "c6": simple(expC6),
		"c7": simple(expC7), "a1": simple(expA1), "a2": simple(expA2),
		"s1":  func() error { return expS1(inv) },
		"a3":  func() error { return expA3(inv) },
		"cb1": func() error { return expCB1(inv) },
		"cc1": func() error { return expCC1(inv) },
		"ob1": func() error { return expOB1(inv) },
		"sv1": func() error { return expSV1(inv) },
		"wl1": func() error { return expWL1(inv) },
	}
}

func run(experiment string, inv invocation) error {
	// A malformed -gomaxprocs must fail before any experiment burns time.
	if _, err := inv.procs(); err != nil {
		return err
	}
	runners := runnersFor(inv)
	// "all" covers the paper-claim sweeps; s1, a3, cb1, cc1, ob1, sv1
	// and wl1 are opt-in because they overwrite the recorded
	// BENCH_shards.json / BENCH_allocs.json / BENCH_combine.json /
	// BENCH_cache.json / BENCH_obs.json / BENCH_sv1.json /
	// BENCH_wal.json trajectory points (and s1/cb1/cc1/ob1/sv1 enforce
	// their own ops/workers floors — minutes, not seconds).
	if experiment == "all" {
		for _, id := range []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "a1", "a2"} {
			if err := runners[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	fn, ok := runners[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q (valid: %s)", experiment, strings.Join(experimentIDs(), ", "))
	}
	return fn()
}

func mustTrie(u int64) *core.Trie {
	tr, err := core.New(u)
	if err != nil {
		panic(err)
	}
	return tr
}

// expC1: Search latency vs universe size (claim: O(1), flat in steps).
func expC1(ops, _ int, seed int64) error {
	fmt.Println("== C1: Search cost vs universe size (claim: O(1) steps) ==")
	tab := harness.NewTable("u", "ns/op")
	for _, exp := range []uint{8, 12, 16, 20, 22} {
		u := int64(1) << exp
		tr := mustTrie(u)
		for k := int64(0); k < u; k += 2 {
			tr.Insert(k)
		}
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, 4096)
		for i := range keys {
			keys[i] = rng.Int63n(u)
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			tr.Search(keys[i&4095])
		}
		tab.AddRow(fmt.Sprintf("2^%d", exp), float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	fmt.Println(tab)
	return nil
}

// expC2: solo Insert/Delete/Predecessor vs log u (claim: linear in log u).
func expC2(ops, _ int, seed int64) error {
	fmt.Println("== C2: solo update/predecessor cost vs log u (claim: Θ(log u)) ==")
	tab := harness.NewTable("u", "log u", "ins+del ns/op", "pred ns/op")
	for _, exp := range []uint{8, 12, 16, 20} {
		u := int64(1) << exp
		tr := mustTrie(u)
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, 4096)
		for i := range keys {
			keys[i] = rng.Int63n(u)
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			k := keys[i&4095]
			tr.Insert(k)
			tr.Delete(k)
		}
		upd := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		for k := int64(0); k < u; k += 16 {
			tr.Insert(k)
		}
		t1 := time.Now()
		for i := 0; i < ops; i++ {
			tr.Predecessor(keys[i&4095])
		}
		pred := float64(time.Since(t1).Nanoseconds()) / float64(ops)
		tab.AddRow(fmt.Sprintf("2^%d", exp), exp, upd, pred)
	}
	fmt.Println(tab)
	return nil
}

// expC3: engine steps per op vs worker count on a hot range.
func expC3(ops, _ int, seed int64) error {
	fmt.Println("== C3: steps/op vs contention (claim: O(ċ² + log u) amortized) ==")
	const u = int64(1 << 16)
	tab := harness.NewTable("workers", "ops/s", "cas/op", "bitreads/op", "notifies/op")
	for _, g := range []int{1, 2, 4, 8} {
		tr := mustTrie(u)
		stats := &core.Stats{}
		tr.SetStats(stats)
		bstats := &bitstrie.Stats{}
		tr.Bits().SetStats(bstats)
		res, err := harness.Run(tr, harness.Config{
			Workers:      g,
			OpsPerWorker: ops / g,
			Mix:          workload.MixUpdateHeavy,
			Dist:         workload.HotRange{U: u, HotLo: u / 2, HotWidth: 64, HotPct: 80},
			Seed:         seed,
		})
		if err != nil {
			return err
		}
		n := float64(res.Ops)
		tab.AddRow(g, res.Throughput,
			float64(bstats.CASAttempts.Load())/n,
			float64(bstats.BitReads.Load())/n,
			float64(stats.Notifications.Load())/n)
	}
	fmt.Println(tab)
	return nil
}

// expC4: throughput of the NON-stalling workers while one adversary
// repeatedly stalls inside its operation — inside the critical section for
// the lock-based trie (via InsertStalled), anywhere for the lock-free trie
// (a stalled goroutine cannot block others no matter where it stops). This
// is the operational meaning of lock-freedom.
func expC4(_, workers int, seed int64) error {
	fmt.Println("== C4: bystander throughput under an in-operation staller (claim: lock-freedom) ==")
	const (
		u      = int64(1 << 12)
		window = 300 * time.Millisecond
		pause  = 2 * time.Millisecond
	)
	if workers < 2 {
		workers = 2
	}
	tab := harness.NewTable("impl", "baseline ops/s", "with staller ops/s", "retained %")

	type stallable struct {
		name    string
		mk      func() harness.Set
		staller func(s harness.Set, stop <-chan struct{})
	}
	impls := []stallable{
		{
			name: "lockfree-trie",
			mk:   func() harness.Set { return mustTrie(u) },
			staller: func(s harness.Set, stop <-chan struct{}) {
				for {
					select {
					case <-stop:
						return
					default:
						s.Insert(1)
						time.Sleep(pause) // stalled wherever the scheduler left it
					}
				}
			},
		},
		{
			name: "rwlock-trie",
			mk:   func() harness.Set { s, _ := locktrie.New(u); return s },
			staller: func(s harness.Set, stop <-chan struct{}) {
				lt, ok := s.(*locktrie.Trie)
				if !ok {
					return
				}
				for {
					select {
					case <-stop:
						return
					default:
						lt.InsertStalled(1, func() { time.Sleep(pause) })
					}
				}
			},
		},
	}

	measure := func(impl stallable, withStaller bool) float64 {
		s := impl.mk()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withStaller {
			wg.Add(1)
			go func() {
				defer wg.Done()
				impl.staller(s, stop)
			}()
		}
		var total int64
		var counts sync.WaitGroup
		for w := 0; w < workers-1; w++ {
			counts.Add(1)
			go func(id int) {
				defer counts.Done()
				rng := rand.New(rand.NewSource(seed + int64(id)))
				n := int64(0)
				for {
					select {
					case <-stop:
						atomicAdd(&total, n)
						return
					default:
						k := 2 + rng.Int63n(u-2)
						if rng.Intn(2) == 0 {
							s.Insert(k)
						} else {
							s.Delete(k)
						}
						n++
					}
				}
			}(w)
		}
		time.Sleep(window)
		close(stop)
		counts.Wait()
		wg.Wait()
		return float64(total) / window.Seconds()
	}

	for _, impl := range impls {
		base := measure(impl, false)
		stalled := measure(impl, true)
		tab.AddRow(impl.name, base, stalled, 100*stalled/base)
	}
	fmt.Println(tab)
	return nil
}

// atomicAdd avoids importing sync/atomic at every call site above.
func atomicAdd(p *int64, v int64) { atomic.AddInt64(p, v) }

// median sorts v in place and returns the middle element (upper middle
// for even lengths) — the repetition aggregator shared by the trajectory
// sweeps.
func median(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

// expC5: throughput vs baselines across mixes.
func expC5(ops, workers int, seed int64) error {
	fmt.Println("== C5: throughput vs baselines (ops/s) ==")
	const u = int64(1 << 16)
	impls := []struct {
		name string
		mk   func() harness.Set
	}{
		{"lockfree-trie", func() harness.Set { return mustTrie(u) }},
		{"rwlock-trie", func() harness.Set { s, _ := locktrie.New(u); return s }},
		{"versioned-cas-trie", func() harness.Set { s, _ := versioned.New(u); return s }},
		{"lockfree-skiplist", func() harness.Set { s, _ := skiplist.New(u, 42); return s }},
		{"lockfree-bst", func() harness.Set { s, _ := efrb.New(u); return s }},
	}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"update-heavy", workload.MixUpdateHeavy},
		{"read-heavy", workload.MixReadHeavy},
		{"pred-heavy", workload.MixPredHeavy},
	}
	tab := harness.NewTable("impl", "update-heavy", "read-heavy", "pred-heavy")
	for _, impl := range impls {
		row := []any{impl.name}
		for _, m := range mixes {
			s := impl.mk()
			res, err := harness.Run(s, harness.Config{
				Workers: workers, OpsPerWorker: ops / workers,
				Mix: m.mix, Dist: workload.Uniform{U: u}, Seed: seed, Prefill: u / 8,
			})
			if err != nil {
				return err
			}
			row = append(row, res.Throughput)
		}
		tab.AddRow(row...)
	}
	fmt.Println(tab)
	return nil
}

// expC6: RelaxedPredecessor ⊥-rate vs churn.
func expC6(ops, _ int, seed int64) error {
	fmt.Println("== C6: RelaxedPredecessor ⊥-rate vs update churn ==")
	const u = int64(1 << 10)
	tab := harness.NewTable("churn goroutines", "bottom-rate %")
	for _, churners := range []int{0, 1, 2, 4} {
		tr, err := relaxed.New(u)
		if err != nil {
			return err
		}
		tr.Insert(1)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < churners; c++ {
			wg.Add(1)
			go func(s int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(s))
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
			}(seed + int64(c))
		}
		bottoms := 0
		for i := 0; i < ops; i++ {
			if _, ok := tr.Predecessor(u - 1); !ok {
				bottoms++
			}
		}
		close(stop)
		wg.Wait()
		tab.AddRow(churners, 100*float64(bottoms)/float64(ops))
	}
	fmt.Println(tab)
	return nil
}

// expC7: peak announcement-list occupancy vs workers.
func expC7(ops, _ int, seed int64) error {
	fmt.Println("== C7: peak announcement occupancy vs workers (claim: O(ċ)) ==")
	const u = int64(1 << 12)
	tab := harness.NewTable("workers", "peak U-ALL", "peak P-ALL")
	for _, g := range []int{1, 2, 4, 8} {
		tr := mustTrie(u)
		stop := make(chan struct{})
		var maxU, maxP int
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					if n := tr.AnnouncedUpdates(); n > maxU {
						maxU = n
					}
					if n := tr.AnnouncedPredecessors(); n > maxP {
						maxP = n
					}
				}
			}
		}()
		_, err := harness.Run(tr, harness.Config{
			Workers: g, OpsPerWorker: ops / g,
			Mix: workload.MixUpdateHeavy, Dist: workload.Uniform{U: u}, Seed: seed,
		})
		if err != nil {
			return err
		}
		close(stop)
		<-done
		tab.AddRow(g, maxU, maxP)
	}
	fmt.Println(tab)
	return nil
}

// expA1: second-CAS rescues under delete contention. The rescue needs an
// outdated delete poised at its CAS while a newer same-key delete races
// past — rare by construction (that is the point of the two-attempt rule),
// so we report per 10k operations on a tiny, fully contended universe.
func expA1(ops, _ int, seed int64) error {
	fmt.Println("== A1: second CAS attempt rescues (DeleteBinaryTrie, per 10k ops) ==")
	const u = int64(8)
	tab := harness.NewTable("workers", "2nd-CAS rescues/10k", "CAS failures/10k")
	for _, g := range []int{2, 4, 8} {
		tr := mustTrie(u)
		bstats := &bitstrie.Stats{}
		tr.Bits().SetStats(bstats)
		res, err := harness.Run(tr, harness.Config{
			Workers: g, OpsPerWorker: ops / g,
			Mix:  workload.MixUpdateOnly,
			Dist: workload.Uniform{U: u},
			Seed: seed,
		})
		if err != nil {
			return err
		}
		per10k := 10000 / float64(res.Ops)
		tab.AddRow(g, float64(bstats.SecondCASSuccess.Load())*per10k,
			float64(bstats.CASFailures.Load())*per10k)
	}
	fmt.Println(tab)
	return nil
}

// s1Reps is the repetition count per (workload, shard count) configuration
// of experiment S1; the median repetition is reported.
const s1Reps = 5

// s1Result is one (workload, shard count) measurement of the sharding sweep.
type s1Result struct {
	Shards    int     `json:"shards"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// s1Workload groups the shard-count sweep for one key distribution.
type s1Workload struct {
	Dist    string     `json:"dist"`
	Mix     string     `json:"mix"`
	Results []s1Result `json:"results"`
	Speedup float64    `json:"speedup_high_vs_1"`
}

// s1ProcPoint is one GOMAXPROCS setting's full sweep.
type s1ProcPoint struct {
	hostTopology
	Workloads []s1Workload `json:"workloads"`
}

// s1Report is the BENCH_shards.json trajectory point. The top-level
// GoMaxProcs/NumCPU/Workloads fields are the first swept P's point
// repeated — the compatibility row every pre-sweep consumer (and the
// recorded gate history) keeps reading — while Points carries the full
// -gomaxprocs sweep with per-point topology.
type s1Report struct {
	Experiment string        `json:"experiment"`
	Timestamp  string        `json:"timestamp"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Universe   int64         `json:"universe"`
	Goroutines int           `json:"goroutines"`
	Ops        int           `json:"ops"`
	HighShards int           `json:"high_shards"`
	Workloads  []s1Workload  `json:"workloads"`
	Points     []s1ProcPoint `json:"proc_points"`
}

// expS1: sharding sweep — k=1 vs k=highShards at ≥ 8 goroutines on
// update-heavy disjoint-band, uniform and hotrange workloads. The disjoint
// bands are the announcement-list-bottleneck regime the sharded layer
// exists for: workers never collide on keys, so all remaining contention is
// the shared U-ALL/RU-ALL/P-ALL traffic that sharding splits. On a
// single-core host (each point records its topology) the measured
// relief comes from shorter announcement-list traversals and notify scans,
// not cache-line transfer; hotrange is expected to show no benefit at any
// core count since its hot keys map to a single shard. The whole sweep
// repeats per -gomaxprocs setting; the first setting doubles as the
// compatibility row. Writes the BENCH_shards.json trajectory point unless
// -json is empty.
func expS1(inv invocation) error {
	ops, workers, seed := inv.ops, inv.workers, inv.seed
	highShards, jsonPath := inv.shards, inv.jsonPath
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	const u = int64(1 << 16)
	// The announcement-list tax grows with the number of operations parked
	// mid-announcement, so the sweep needs enough goroutines to keep the
	// lists populated; 16 comfortably exceeds the experiment's ≥8 floor.
	if workers < 16 {
		fmt.Printf("s1: raising -workers to 16 (announcement lists need that much overlap)\n")
		workers = 16
	}
	// It also needs each measurement to run for many scheduler slices per
	// goroutine: below ~1s of wall clock the goroutines run nearly
	// back-to-back, announcement lists stay empty, and the experiment
	// measures warm-up instead of the contended steady state.
	if ops < 800000 {
		fmt.Printf("s1: raising -ops to 800000 (shorter runs measure warm-up, not steady state)\n")
		ops = 800000
	}
	fmt.Printf("== S1: sharded vs unsharded throughput (ops/s, %d goroutines, update-heavy) ==\n", workers)
	dists := []struct {
		name    string
		dist    workload.KeyDist
		distFor func(w int) workload.KeyDist
	}{
		{name: "disjoint", distFor: func(w int) workload.KeyDist {
			band := u / int64(workers)
			return workload.Band{Lo: int64(w) * band, Width: band}
		}},
		{name: "uniform", dist: workload.Uniform{U: u}},
		{name: "hotrange", dist: workload.HotRange{U: u, HotLo: u / 2, HotWidth: 64, HotPct: 80}},
	}
	report := s1Report{
		Experiment: "s1-sharding",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Universe:   u,
		Goroutines: workers,
		Ops:        ops,
		HighShards: highShards,
	}
	// One measurement: fresh trie, half-full prefill (so deletes and
	// predecessors do real work from the first operation — a winning Delete
	// runs two embedded predecessor operations, the announcement-heavy path
	// sharding exists to relieve), then the timed run.
	measure := func(k int, d int) (float64, error) {
		tr, err := sharded.New(u, k)
		if err != nil {
			return 0, err
		}
		for key := int64(0); key < u; key += 2 {
			tr.Insert(key)
		}
		res, err := harness.Run(tr, harness.Config{
			Workers:      workers,
			OpsPerWorker: ops / workers,
			Mix:          workload.MixUpdateHeavy,
			Dist:         dists[d].dist,
			DistFor:      dists[d].distFor,
			Seed:         seed,
		})
		if err != nil {
			return 0, err
		}
		return res.Throughput, nil
	}
	// Per configuration, report the median of s1Reps repetitions,
	// interleaving the shard counts so slow machine phases (GC, noisy
	// neighbours on shared runners) penalize both sides equally. The
	// median, not the best: run-to-run variance here is dominated by
	// scheduling luck — whether preemptions park operations mid-
	// announcement — which IS the contention under study, and best-of
	// would select exactly the baseline runs where it failed to manifest.
	if err := perP(procs, func(p int) error {
		pt := s1ProcPoint{hostTopology: topologyAt(p)}
		tab := harness.NewTable("dist", "k=1 ops/s", fmt.Sprintf("k=%d ops/s", highShards), "speedup")
		for d := range dists {
			wl := s1Workload{Dist: dists[d].name, Mix: "update-heavy"}
			samples := map[int][]float64{}
			for rep := 0; rep < s1Reps; rep++ {
				for _, k := range []int{1, highShards} {
					tput, err := measure(k, d)
					if err != nil {
						return err
					}
					samples[k] = append(samples[k], tput)
				}
			}
			lo, hi := median(samples[1]), median(samples[highShards])
			wl.Results = []s1Result{{Shards: 1, OpsPerSec: lo}, {Shards: highShards, OpsPerSec: hi}}
			wl.Speedup = hi / lo
			pt.Workloads = append(pt.Workloads, wl)
			tab.AddRow(dists[d].name, lo, hi, wl.Speedup)
		}
		fmt.Println(tab)
		report.Points = append(report.Points, pt)
		return nil
	}); err != nil {
		return err
	}
	// Compatibility row: the first swept P, where the recorded trajectory
	// history lives.
	report.GoMaxProcs = report.Points[0].GoMaxProcs
	report.NumCPU = report.Points[0].NumCPU
	report.Workloads = report.Points[0].Workloads
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

// expA2: update latency vs parked predecessor announcements.
func expA2(ops, _ int, seed int64) error {
	fmt.Println("== A2: update cost vs announced predecessors (notify cost) ==")
	const u = int64(1 << 12)
	tab := harness.NewTable("parked preds", "ins+del ns/op")
	for _, parked := range []int{0, 2, 8, 16} {
		tr := mustTrie(u)
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
						tr.Predecessor(u - 1)
					}
				}
			}()
		}
		rng := rand.New(rand.NewSource(seed))
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			k := rng.Int63n(u / 2)
			tr.Insert(k)
			tr.Delete(k)
		}
		elapsed := time.Since(t0)
		close(stop)
		wg.Wait()
		tab.AddRow(parked, float64(elapsed.Nanoseconds())/float64(ops))
	}
	fmt.Println(tab)
	return nil
}

// --- A3: allocation behaviour of the hot paths --------------------------------

// a3BaselineAllocs / a3BaselineBytes record the pre-arena steady state —
// measured with `go test -bench=BenchmarkPredMixes -benchmem` at the PR-1
// tree (commit 0ff536f, per-call maps in the ⊥ recovery, heap-allocated
// announcement refs) — so every later trajectory point carries the number
// the ≥70% predecessor-mix reduction gate is judged against.
var a3BaselineAllocs = map[string]float64{
	"core/pred-heavy": 11, "core/update-heavy": 17, "core/uniform": 10,
	"relaxed/pred-heavy": 0, "relaxed/update-heavy": 0, "relaxed/uniform": 0,
	"sharded/pred-heavy": 9, "sharded/update-heavy": 12, "sharded/uniform": 8,
}

var a3BaselineBytes = map[string]float64{
	"core/pred-heavy": 221, "core/update-heavy": 411, "core/uniform": 241,
	"relaxed/pred-heavy": 12, "relaxed/update-heavy": 53, "relaxed/uniform": 27,
	"sharded/pred-heavy": 181, "sharded/update-heavy": 281, "sharded/uniform": 186,
}

// a3Point is one (impl, mix) steady-state measurement.
type a3Point struct {
	Impl           string  `json:"impl"`
	Mix            string  `json:"mix"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	NsPerOp        float64 `json:"ns_per_op"`
	BaselineAllocs float64 `json:"baseline_allocs_per_op"`
	BaselineBytes  float64 `json:"baseline_bytes_per_op"`
	ReductionPct   float64 `json:"allocs_reduction_pct"`
}

// a3ProcPoint is one GOMAXPROCS setting's full impl×mix sweep. The gate
// rides per point: allocation discipline must hold at every P, not just
// the compatibility row.
type a3ProcPoint struct {
	hostTopology
	Points           []a3Point `json:"points"`
	GateReductionPct float64   `json:"gate_core_pred_heavy_reduction_pct"`
}

// a3Report is the BENCH_allocs.json trajectory point. Top-level
// GoMaxProcs/NumCPU/Points/GateReductionPct are the first swept P's
// values — the compatibility row — while ProcPoints carries the full
// -gomaxprocs sweep.
type a3Report struct {
	Experiment string    `json:"experiment"`
	Timestamp  string    `json:"timestamp"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Universe   int64     `json:"universe"`
	Goroutines int       `json:"goroutines"`
	Ops        int       `json:"ops"`
	Shards     int       `json:"shards"`
	Baseline   string    `json:"baseline"`
	Points     []a3Point `json:"points"`
	// GateReductionPct is the core/pred-heavy allocs/op reduction the
	// acceptance gate tracks (≥ 70).
	GateReductionPct float64       `json:"gate_core_pred_heavy_reduction_pct"`
	ProcPoints       []a3ProcPoint `json:"proc_points"`
}

// expA3: steady-state allocs/op and B/op across the three trie variants and
// three operation mixes, measured from runtime.MemStats deltas around a
// fixed op budget. A warm-up phase populates the scratch-arena pools and the
// lazily materialized latest-list dummies first, so the measurement sees the
// steady state the allocation-free-hot-paths work targets, not construction
// cost. Writes the BENCH_allocs.json trajectory point unless -allocsjson is
// empty; the recorded pre-arena baseline rides along in every point so the
// ≥70% predecessor-mix reduction gate stays machine-checkable. The whole
// impl×mix sweep repeats per -gomaxprocs setting.
func expA3(inv invocation) error {
	ops, workers, seed := inv.ops, inv.workers, inv.seed
	highShards, jsonPath := inv.shards, inv.allocsPath
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	const u = int64(1 << 16)
	if workers < 1 {
		workers = 1
	}
	if ops < workers*100 {
		fmt.Printf("a3: raising -ops to %d (at least 100 per goroutine, so per-op averages mean something)\n", workers*100)
		ops = workers * 100
	}
	fmt.Printf("== A3: steady-state allocations per operation (%d goroutines) ==\n", workers)
	impls := []struct {
		name string
		mk   func() (harness.Set, error)
	}{
		{"core", func() (harness.Set, error) { return core.New(u) }},
		{"relaxed", func() (harness.Set, error) {
			tr, err := relaxed.New(u)
			if err != nil {
				return nil, err
			}
			return harness.Collapse(tr), nil
		}},
		{"sharded", func() (harness.Set, error) { return sharded.New(u, highShards) }},
	}
	report := a3Report{
		Experiment: "a3-allocs",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Universe:   u,
		Goroutines: workers,
		Ops:        ops,
		Shards:     highShards,
		Baseline:   "pre-arena PR-1 tree (commit 0ff536f), go test -bench=BenchmarkPredMixes -benchmem",
	}
	measurePoint := func(p int) (a3ProcPoint, error) {
		pt := a3ProcPoint{hostTopology: topologyAt(p)}
		tab := harness.NewTable("impl", "mix", "allocs/op", "B/op", "ns/op", "baseline allocs/op", "reduction %")
		for _, impl := range impls {
			for _, m := range workload.BenchMixes {
				s, err := impl.mk()
				if err != nil {
					return a3ProcPoint{}, err
				}
				for k := int64(0); k < u; k += 8 {
					s.Insert(k)
				}
				gens := make([]*workload.Generator, workers)
				for i := range gens {
					g, err := workload.NewGenerator(m.Mix, workload.Uniform{U: u}, seed+int64(i))
					if err != nil {
						return a3ProcPoint{}, err
					}
					gens[i] = g
				}
				runOps := func(n int) time.Duration {
					var wg sync.WaitGroup
					start := make(chan struct{})
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(id int) {
							defer wg.Done()
							<-start
							g := gens[id]
							for i := 0; i < n/workers; i++ {
								harness.ApplyOp(s, g.Next())
							}
						}(w)
					}
					// Workers are parked on the barrier; the clock starts when
					// they are released, so spawn cost stays out of ns/op.
					t0 := time.Now()
					close(start)
					wg.Wait()
					return time.Since(t0)
				}
				// Warm up pools and dummies, settle the heap, then re-warm the
				// pools (a GC cycles sync.Pool through its victim cache).
				runOps(ops / 2)
				runtime.GC()
				runOps(ops / 10)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				elapsed := runOps(ops)
				runtime.ReadMemStats(&m1)
				n := float64(ops / workers * workers)
				key := impl.name + "/" + m.Name
				p := a3Point{
					Impl:           impl.name,
					Mix:            m.Name,
					AllocsPerOp:    float64(m1.Mallocs-m0.Mallocs) / n,
					BytesPerOp:     float64(m1.TotalAlloc-m0.TotalAlloc) / n,
					NsPerOp:        float64(elapsed.Nanoseconds()) / n,
					BaselineAllocs: a3BaselineAllocs[key],
					BaselineBytes:  a3BaselineBytes[key],
				}
				if p.BaselineAllocs > 0 {
					p.ReductionPct = 100 * (1 - p.AllocsPerOp/p.BaselineAllocs)
				}
				if key == "core/pred-heavy" {
					pt.GateReductionPct = p.ReductionPct
				}
				pt.Points = append(pt.Points, p)
				tab.AddRow(impl.name, m.Name, p.AllocsPerOp, p.BytesPerOp, p.NsPerOp,
					p.BaselineAllocs, p.ReductionPct)
			}
		}
		fmt.Println(tab)
		return pt, nil
	}
	if err := perP(procs, func(p int) error {
		pt, err := measurePoint(p)
		if err != nil {
			return err
		}
		report.ProcPoints = append(report.ProcPoints, pt)
		return nil
	}); err != nil {
		return err
	}
	report.GoMaxProcs = report.ProcPoints[0].GoMaxProcs
	report.NumCPU = report.ProcPoints[0].NumCPU
	report.Points = report.ProcPoints[0].Points
	report.GateReductionPct = report.ProcPoints[0].GateReductionPct
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

// --- CB1: flat combining amortizes announcement traffic -----------------------

// cb1Reps is the default repetition count per configuration (-cb1reps
// overrides); the median is
// reported, for the same scheduling-luck reasons as S1.
const cb1Reps = 5

// cb1Side is one side (combining on or off) of a CB1 configuration.
type cb1Side struct {
	OpsPerSec      float64 `json:"ops_per_sec"`
	AnnouncesPerOp float64 `json:"announces_per_op"`
	// AvgBatch is ops drained per combining round (1 implicitly for the
	// uncombined side, where every update announces alone).
	AvgBatch float64 `json:"avg_batch,omitempty"`
	// DirectPct is the share of combined submissions that fell back to
	// the direct per-op path (slot saturation or retraction).
	DirectPct float64 `json:"direct_pct,omitempty"`
}

// cb1Workload is one (mix, shard count) configuration: the combined
// measurement with its uncombined baseline embedded alongside.
type cb1Workload struct {
	Mix                string  `json:"mix"`
	Shards             int     `json:"shards"`
	Combined           cb1Side `json:"combined"`
	Uncombined         cb1Side `json:"uncombined_baseline"`
	AnnounceReductionX float64 `json:"announce_reduction_x"`
	ThroughputRatio    float64 `json:"throughput_ratio_combined_vs_uncombined"`
}

// cb1ProcPoint is one GOMAXPROCS setting's full sweep. The announce-
// reduction gate rides per point: at P=1 it guards the recorded history
// (the spin-then-park wait beat must not regress the single-P pacing),
// at P>1 it proves combining still amortizes when submitters genuinely
// overlap instead of interleaving on one core.
type cb1ProcPoint struct {
	hostTopology
	Workloads                 []cb1Workload `json:"workloads"`
	GateUpdateHeavyReductionX float64       `json:"gate_update_heavy_announce_reduction_x"`
}

// cb1Report is the BENCH_combine.json trajectory point. Top-level
// GoMaxProcs/NumCPU/Workloads/Gate are the first swept P's values — the
// compatibility row — while Points carries the full -gomaxprocs sweep.
type cb1Report struct {
	Experiment string        `json:"experiment"`
	Timestamp  string        `json:"timestamp"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Universe   int64         `json:"universe"`
	Goroutines int           `json:"goroutines"`
	Ops        int           `json:"ops"`
	SlotsPerSh int           `json:"slots_per_shard"`
	Reps       int           `json:"reps_median_of"`
	Workloads  []cb1Workload `json:"workloads"`
	// GateUpdateHeavyReductionX is the announce_reduction_x of the
	// update-heavy mix at the LOWEST shard count measured — the
	// worst-case-contention shard all 16 goroutines share; expCB1 fails
	// when any swept P reads below cb1MinReductionX.
	GateUpdateHeavyReductionX float64        `json:"gate_update_heavy_announce_reduction_x"`
	Points                    []cb1ProcPoint `json:"proc_points"`
}

// cb1MinReductionX is CB1's gate: at every swept P, combining must cut the
// update-heavy k=1 mix's announcement passes per op at least this many
// times.
const cb1MinReductionX = 2.0

// expCB1: per-shard flat combining vs the per-op announcement path.
// Announces/op counts U-ALL announcement passes (core.Stats.Announces) per
// executed operation: the per-op path pays one pass per winning update
// plus one per help-activation, the combining path one pass per drained
// round — the serialization the publication slots exist to amortize.
//
// The sweep measures the oversubscribed-shard regime combining exists for
// (ROADMAP: "an update-heavy shard at high goroutine counts"): the three
// mixes at k=1, where all goroutines share one combiner, plus a hotshard
// row — k=16 with 90% of keys landing in a single shard — showing the
// per-shard layer composing with sharding. The converse is deliberately
// NOT a headline row but is worth knowing: spreading goroutines thin
// (uniform keys over k ≥ 4 shards leaves ~1 publisher per combiner) makes
// batches degenerate toward size 1 and the handoff pure overhead (0.38×
// the per-op throughput at GOMAXPROCS=2 on a 2-vCPU host) — WithCombining
// is a workload decision, exactly like WithShards. The whole sweep repeats per
// -gomaxprocs setting. Writes the BENCH_combine.json trajectory point
// unless -combinejson is empty.
func expCB1(inv invocation) error {
	ops, workers, seed := inv.ops, inv.workers, inv.seed
	reps, jsonPath := inv.combineReps, inv.combinePath
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	const u = int64(1 << 16)
	if workers < 16 {
		fmt.Printf("cb1: raising -workers to 16 (the gate is defined at 16 goroutines)\n")
		workers = 16
	}
	if reps < 1 {
		reps = 1
	}
	if ops < 400000 {
		fmt.Printf("cb1: raising -ops to 400000 (short runs measure warm-up, not the combining steady state)\n")
		ops = 400000
	}
	fmt.Printf("== CB1: combined vs uncombined announcements and throughput (%d goroutines) ==\n", workers)
	report := cb1Report{
		Experiment: "cb1-combining",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Universe:   u,
		Goroutines: workers,
		Ops:        ops,
		SlotsPerSh: combine.DefaultSlots(),
		Reps:       reps,
	}
	// One measurement: fresh trie, half-full prefill (stats attach after,
	// so construction announcements stay out of the metric), timed run,
	// counters summed across shards.
	measure := func(k int, combining bool, mix workload.Mix, dist workload.KeyDist) (cb1Side, error) {
		mk := sharded.New
		if combining {
			mk = sharded.NewCombining
		}
		tr, err := mk(u, k)
		if err != nil {
			return cb1Side{}, err
		}
		for key := int64(0); key < u; key += 2 {
			tr.Insert(key)
		}
		stats := make([]*core.Stats, k)
		for i := range stats {
			stats[i] = &core.Stats{}
			tr.Shard(i).SetStats(stats[i])
		}
		// The combiner counters are cumulative and the prefill runs
		// through Submit (32768 solo size-1 rounds); snapshot here so the
		// reported batch shape covers only the timed run, matching the
		// post-prefill attach of the announce counters.
		before := tr.CombineStats()
		res, err := harness.Run(tr, harness.Config{
			Workers:      workers,
			OpsPerWorker: ops / workers,
			Mix:          mix,
			Dist:         dist,
			Seed:         seed,
		})
		if err != nil {
			return cb1Side{}, err
		}
		var ann int64
		for _, s := range stats {
			ann += s.Announces.Load()
		}
		side := cb1Side{
			OpsPerSec:      res.Throughput,
			AnnouncesPerOp: float64(ann) / float64(res.Ops),
		}
		if combining {
			after := tr.CombineStats()
			rounds := after.Rounds - before.Rounds
			batched := after.Batched - before.Batched
			direct := after.Direct - before.Direct
			if rounds > 0 {
				side.AvgBatch = float64(batched) / float64(rounds)
			}
			if batched+direct > 0 {
				side.DirectPct = 100 * float64(direct) / float64(batched+direct)
			}
		}
		return side, nil
	}
	// The shard width at k=16 is u/16; the hotshard row aims 90% of keys
	// at exactly one of those shards.
	configs := []struct {
		name string
		mix  workload.Mix
		k    int
		dist workload.KeyDist
	}{
		{"pred-heavy", workload.MixPredHeavy, 1, workload.Uniform{U: u}},
		{"update-heavy", workload.MixUpdateOnly, 1, workload.Uniform{U: u}},
		{"uniform", workload.MixUpdateHeavy, 1, workload.Uniform{U: u}},
		{"hotshard-update-heavy", workload.MixUpdateOnly, 16,
			workload.HotRange{U: u, HotLo: u / 2, HotWidth: u / 16, HotPct: 90}},
	}
	if err := perP(procs, func(p int) error {
		pt := cb1ProcPoint{hostTopology: topologyAt(p)}
		tab := harness.NewTable("workload", "k", "ops/s off", "ops/s on", "ann/op off", "ann/op on", "reduction x", "tput ratio", "avg batch")
		for _, cfg := range configs {
			var offT, onT, offA, onA, onB, onD []float64
			for rep := 0; rep < reps; rep++ {
				// Interleave sides so machine-noise phases hit both.
				off, err := measure(cfg.k, false, cfg.mix, cfg.dist)
				if err != nil {
					return err
				}
				on, err := measure(cfg.k, true, cfg.mix, cfg.dist)
				if err != nil {
					return err
				}
				offT, onT = append(offT, off.OpsPerSec), append(onT, on.OpsPerSec)
				offA, onA = append(offA, off.AnnouncesPerOp), append(onA, on.AnnouncesPerOp)
				onB, onD = append(onB, on.AvgBatch), append(onD, on.DirectPct)
			}
			wl := cb1Workload{
				Mix:    cfg.name,
				Shards: cfg.k,
				Uncombined: cb1Side{
					OpsPerSec: median(offT), AnnouncesPerOp: median(offA),
				},
				Combined: cb1Side{
					OpsPerSec: median(onT), AnnouncesPerOp: median(onA),
					AvgBatch: median(onB), DirectPct: median(onD),
				},
			}
			if wl.Combined.AnnouncesPerOp > 0 {
				wl.AnnounceReductionX = wl.Uncombined.AnnouncesPerOp / wl.Combined.AnnouncesPerOp
			}
			if wl.Uncombined.OpsPerSec > 0 {
				wl.ThroughputRatio = wl.Combined.OpsPerSec / wl.Uncombined.OpsPerSec
			}
			if cfg.name == "update-heavy" && cfg.k == 1 {
				pt.GateUpdateHeavyReductionX = wl.AnnounceReductionX
			}
			pt.Workloads = append(pt.Workloads, wl)
			tab.AddRow(cfg.name, cfg.k, wl.Uncombined.OpsPerSec, wl.Combined.OpsPerSec,
				wl.Uncombined.AnnouncesPerOp, wl.Combined.AnnouncesPerOp,
				wl.AnnounceReductionX, wl.ThroughputRatio, wl.Combined.AvgBatch)
		}
		fmt.Println(tab)
		report.Points = append(report.Points, pt)
		return nil
	}); err != nil {
		return err
	}
	report.GoMaxProcs = report.Points[0].GoMaxProcs
	report.NumCPU = report.Points[0].NumCPU
	report.Workloads = report.Points[0].Workloads
	report.GateUpdateHeavyReductionX = report.Points[0].GateUpdateHeavyReductionX
	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n\n", jsonPath)
	}
	return cb1Gate(report.Points)
}

// cb1Gate fails the run when any swept P's update-heavy announce
// reduction reads below cb1MinReductionX. The artifact is written first,
// so a miss is recorded, not hidden.
func cb1Gate(points []cb1ProcPoint) error {
	for _, pt := range points {
		if x := pt.GateUpdateHeavyReductionX; x < cb1MinReductionX {
			return fmt.Errorf("cb1 gate: update-heavy announce reduction %.2f× at GOMAXPROCS=%d, want ≥ %.0f×",
				x, pt.GoMaxProcs, cb1MinReductionX)
		}
	}
	return nil
}

// --- CC1: cache-compressed descents skip empty regions in one load -------------

// cc1Reps is the default repetition count per configuration (-cc1reps
// overrides); the median is reported and the gate is the median of
// per-repetition ratios: load on a shared 2-vCPU VM drifts 2–3× between
// minutes, and a ratio of two sides measured back to back cancels most
// of it.
const cc1Reps = 5

// cc1Side is one compression setting of a CC1 configuration.
type cc1Side struct {
	OpsPerSec     float64 `json:"ops_per_sec"`
	BitReadsPerOp float64 `json:"bit_reads_per_op"`
	StepsPerOp    float64 `json:"traversal_steps_per_op"`
	// SummaryLoadsPerOp / SkippedBitReadsPerOp quantify what the
	// compression bought: occupancy words consulted, and interior bit
	// reads the certified-empty skips made unnecessary. Zeros on the
	// uncompressed side, whose descents never consult the summary.
	SummaryLoadsPerOp    float64 `json:"summary_loads_per_op"`
	SkippedBitReadsPerOp float64 `json:"skipped_bit_reads_per_op"`
}

// cc1Workload is one (occupancy, mix) configuration measured with
// compression on and off.
type cc1Workload struct {
	Name        string  `json:"name"`
	Universe    int64   `json:"universe"`
	KeysPrefill int64   `json:"keys_prefilled"`
	Compressed  cc1Side `json:"compressed"`
	// Uncompressed is the baseline side, embedded alongside so the
	// trajectory point is self-contained.
	Uncompressed cc1Side `json:"uncompressed_baseline"`
	// SpeedupX is the median of per-repetition compressed/uncompressed
	// throughput ratios: the two sides run back-to-back inside each
	// repetition, so a drifting host-load phase hits both and cancels.
	SpeedupX float64 `json:"speedup_x"`
}

// cc1ProcPoint is one GOMAXPROCS setting's full sweep. CC1 measures solo
// descents, so P mostly moves GC/background scheduling; the per-point
// gate documents that the compression win is not a single-P accident.
type cc1ProcPoint struct {
	hostTopology
	Workloads              []cc1Workload `json:"workloads"`
	GateSparsePredSpeedupX float64       `json:"gate_sparse_pred_heavy_speedup_x"`
}

// cc1Report is the BENCH_cache.json trajectory point. Top-level
// GoMaxProcs/NumCPU/Workloads/gate are the first swept P's values — the
// compatibility row — while Points carries the full -gomaxprocs sweep.
type cc1Report struct {
	Experiment string         `json:"experiment"`
	Timestamp  string         `json:"timestamp"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Ops        int            `json:"ops"`
	Reps       int            `json:"reps_median_of"`
	Workloads  []cc1Workload  `json:"workloads"`
	Points     []cc1ProcPoint `json:"proc_points"`
	// GateSparsePredSpeedupX is the sparse-pred-heavy speedup the
	// acceptance gate tracks (≥ 1.15).
	GateSparsePredSpeedupX float64 `json:"gate_sparse_pred_heavy_speedup_x"`
}

// cc1VacuousGate returns a non-nil error when the trie's ever-inserted
// summary is all-ones: every summary probe would answer "maybe occupied",
// no descent could skip anything, and a compressed-vs-uncompressed gate
// measured in that state compares two identical traversals plus probe
// overhead — it can only pass by measuring noise. A miscalibrated prefill
// must fail the run loudly (main exits non-zero), not record a trajectory
// point that gated nothing.
func cc1VacuousGate(bits *bitstrie.Trie) error {
	if bits.SummaryAllOnes() {
		return fmt.Errorf("cc1: ever-inserted summary is all-ones after prefill (u=%d, %d keys ever inserted): no descent can skip an empty region, so the compression gate is vacuous — sparsify the prefill", bits.U(), bits.EverInsertedCount())
	}
	return nil
}

// expCC1: compressed vs uncompressed descents. Compression is a
// path-length effect — each descent consults per-64-node occupancy words
// to step over certified-empty regions in one load — so the sweep
// measures solo throughput; contention would only add scheduler noise
// around the same per-descent delta. Updates touch only the prefilled
// stride keys: the summary is monotone (ever-inserted), so uniform
// random updates would densify it over the run and drift the measurement
// out of the sparse regime under study.
//
// Rows: the sparse pred-heavy gate row (long certified-empty gaps
// between occupied leaves — the regime the summaries exist for), a
// sparse search row (Search reads its leaf in O(1) and never descends,
// so compression must be free there), and a half-full pred-heavy control
// (nothing to skip — the ratio bounds the summary-probe tax near 1×).
// The whole sweep repeats per -gomaxprocs setting. Writes the
// BENCH_cache.json trajectory point unless -cachejson is empty.
func expCC1(inv invocation) error {
	ops, seed := inv.ops, inv.seed
	reps, jsonPath := inv.cacheReps, inv.cachePath
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	if reps < 1 {
		reps = 1
	}
	if ops < 200000 {
		fmt.Printf("cc1: raising -ops to 200000 (short solo runs measure cache warm-up, not the descent steady state)\n")
		ops = 200000
	}
	fmt.Println("== CC1: compressed vs uncompressed descents (solo ops/s) ==")
	type cc1Config struct {
		name string
		u    int64
		gap  int64 // prefill stride; u/gap keys ever inserted
		// pred/search are op-mix percentages; the remainder is stride-key
		// updates (half Insert, half Delete).
		pred, search int
		// opsMul scales the op budget: rows dominated by sub-µs operations
		// need more ops for the same wall-clock measurement window.
		opsMul int
		gate   bool
	}
	configs := []cc1Config{
		{name: "sparse-pred-heavy", u: 1 << 22, gap: 16384, pred: 80, opsMul: 1, gate: true},
		{name: "sparse-search", u: 1 << 20, gap: 4096, search: 90, opsMul: 8},
		{name: "half-full-pred-heavy", u: 1 << 16, gap: 2, pred: 80, opsMul: 4},
	}
	report := cc1Report{
		Experiment: "cc1-cache",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Ops:        ops,
		Reps:       reps,
	}
	// One measurement: fresh trie with the compression setting applied
	// before any insert, stride prefill, vacuous-gate check, stats
	// attached post-prefill (construction traffic stays out of the
	// metric), then the timed solo loop over precomputed keys.
	measure := func(cfg cc1Config, compressed bool) (cc1Side, error) {
		tr := mustTrie(cfg.u)
		tr.Bits().SetCompressedDescents(compressed)
		for k := int64(0); k < cfg.u; k += cfg.gap {
			tr.Insert(k)
		}
		if cfg.gate {
			if err := cc1VacuousGate(tr.Bits()); err != nil {
				return cc1Side{}, err
			}
		}
		bstats := &bitstrie.Stats{}
		tr.Bits().SetStats(bstats)
		rng := rand.New(rand.NewSource(seed))
		queries := make([]int64, 4096)
		strides := make([]int64, 4096)
		picks := make([]int, 4096)
		for i := range queries {
			queries[i] = rng.Int63n(cfg.u)
			strides[i] = rng.Int63n(cfg.u/cfg.gap) * cfg.gap
			picks[i] = rng.Intn(100)
		}
		n0 := ops * cfg.opsMul
		t0 := time.Now()
		for i := 0; i < n0; i++ {
			j := i & 4095
			switch p := picks[j]; {
			case p < cfg.pred:
				tr.Predecessor(queries[j])
			case p < cfg.pred+cfg.search:
				tr.Search(queries[j])
			case p&1 == 0:
				tr.Insert(strides[j])
			default:
				tr.Delete(strides[j])
			}
		}
		elapsed := time.Since(t0)
		n := float64(n0)
		return cc1Side{
			OpsPerSec:            n / elapsed.Seconds(),
			BitReadsPerOp:        float64(bstats.BitReads.Load()) / n,
			StepsPerOp:           float64(bstats.TraversalSteps.Load()) / n,
			SummaryLoadsPerOp:    float64(bstats.SummaryLoads.Load()) / n,
			SkippedBitReadsPerOp: float64(bstats.SkippedBitReads.Load()) / n,
		}, nil
	}
	if err := perP(procs, func(p int) error {
		pt := cc1ProcPoint{hostTopology: topologyAt(p)}
		tab := harness.NewTable("workload", "ops/s off", "ops/s on", "speedup x",
			"bitreads/op off", "bitreads/op on", "skipped/op")
		for _, cfg := range configs {
			var offT, onT, offB, onB, offS, onS, onSum, onSkip, ratios []float64
			for rep := 0; rep < reps; rep++ {
				// Rotate which side runs first per repetition so monotone
				// host-load drift cannot systematically penalize one side.
				var on, off cc1Side
				for j := 0; j < 2; j++ {
					compressed := (rep+j)%2 == 0
					side, err := measure(cfg, compressed)
					if err != nil {
						return err
					}
					if compressed {
						on = side
					} else {
						off = side
					}
				}
				offT, onT = append(offT, off.OpsPerSec), append(onT, on.OpsPerSec)
				offB, onB = append(offB, off.BitReadsPerOp), append(onB, on.BitReadsPerOp)
				offS, onS = append(offS, off.StepsPerOp), append(onS, on.StepsPerOp)
				onSum = append(onSum, on.SummaryLoadsPerOp)
				onSkip = append(onSkip, on.SkippedBitReadsPerOp)
				if off.OpsPerSec > 0 {
					ratios = append(ratios, on.OpsPerSec/off.OpsPerSec)
				}
			}
			wl := cc1Workload{
				Name:        cfg.name,
				Universe:    cfg.u,
				KeysPrefill: cfg.u / cfg.gap,
				Compressed: cc1Side{
					OpsPerSec: median(onT), BitReadsPerOp: median(onB), StepsPerOp: median(onS),
					SummaryLoadsPerOp: median(onSum), SkippedBitReadsPerOp: median(onSkip),
				},
				Uncompressed: cc1Side{
					OpsPerSec: median(offT), BitReadsPerOp: median(offB), StepsPerOp: median(offS),
				},
				SpeedupX: median(ratios),
			}
			if cfg.gate {
				pt.GateSparsePredSpeedupX = wl.SpeedupX
			}
			pt.Workloads = append(pt.Workloads, wl)
			tab.AddRow(cfg.name, wl.Uncompressed.OpsPerSec, wl.Compressed.OpsPerSec, wl.SpeedupX,
				wl.Uncompressed.BitReadsPerOp, wl.Compressed.BitReadsPerOp,
				wl.Compressed.SkippedBitReadsPerOp)
		}
		fmt.Println(tab)
		report.Points = append(report.Points, pt)
		return nil
	}); err != nil {
		return err
	}
	report.GoMaxProcs = report.Points[0].GoMaxProcs
	report.NumCPU = report.Points[0].NumCPU
	report.Workloads = report.Points[0].Workloads
	report.GateSparsePredSpeedupX = report.Points[0].GateSparsePredSpeedupX
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

// --- OB1: the observability layer's hot-path cost ------------------------------

// ob1Reps is the default repetition count per configuration (-ob1reps
// overrides); the median of per-repetition ratios is reported, rotated
// per repetition, for the same host-load-drift reasons as CC1.
const ob1Reps = 5

// ob1Variant is one side (instrumented or stripped) of an OB1
// configuration, measured from a MemStats delta around the timed run the
// way A3 measures allocation cost.
type ob1Variant struct {
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ob1Workload is one gated mix: the default-instrumented facade against
// the WithoutObservability build of the identical configuration.
type ob1Workload struct {
	Mix          string     `json:"mix"`
	Workers      int        `json:"workers"`
	Combining    bool       `json:"combining"`
	Instrumented ob1Variant `json:"instrumented"`
	Stripped     ob1Variant `json:"stripped_baseline"`
	// ThroughputRatio is the median of per-repetition
	// instrumented/stripped ratios — the two sides run adjacently inside
	// each repetition with the order rotated, so drifting host load
	// cancels instead of systematically penalizing one side.
	ThroughputRatio float64 `json:"throughput_ratio_instrumented_vs_stripped"`
}

// ob1ProcPoint is one GOMAXPROCS setting's measurements with its gates.
type ob1ProcPoint struct {
	hostTopology
	Workloads []ob1Workload `json:"workloads"`
	// GateMinThroughputRatio is the smallest instrumented/stripped ratio
	// across this point's workloads; the acceptance gate tracks ≥ 0.97.
	GateMinThroughputRatio float64 `json:"gate_min_throughput_ratio"`
	// GateCoreAllocsPerOp is the instrumented allocs/op on the
	// core-pred-heavy mix — A3's ≤ 0.5 steady-state gate, re-measured
	// with instrumentation on: the record path must stay
	// allocation-free, so turning observability on cannot move it. The
	// clustered-combining mix's allocs are recorded on both sides for
	// the unchanged-vs-stripped comparison but not gated at 0.5 (the
	// combining batch machinery allocates ~1.5/op with or without
	// instrumentation).
	GateCoreAllocsPerOp float64 `json:"gate_core_pred_heavy_allocs_per_op"`
}

// ob1Report is the BENCH_obs.json trajectory point. Top-level
// GoMaxProcs/NumCPU/Workloads/gates are the first swept P's values — the
// compatibility row — while Points carries the full -gomaxprocs sweep.
type ob1Report struct {
	Experiment             string         `json:"experiment"`
	Timestamp              string         `json:"timestamp"`
	GoMaxProcs             int            `json:"gomaxprocs"`
	NumCPU                 int            `json:"num_cpu"`
	Universe               int64          `json:"universe"`
	Ops                    int            `json:"ops"`
	Sampling               int64          `json:"latency_sampling_1_in_n"`
	Reps                   int            `json:"reps_median_of"`
	Workloads              []ob1Workload  `json:"workloads"`
	GateMinThroughputRatio float64        `json:"gate_min_throughput_ratio"`
	GateCoreAllocsPerOp    float64        `json:"gate_core_pred_heavy_allocs_per_op"`
	Points                 []ob1ProcPoint `json:"proc_points"`
}

// ob1Set adapts the facade trie (error-returning methods over a
// validated universe) to the harness's plain Set interface. The workload
// generator only produces in-universe keys, so the errors cannot fire;
// they are discarded rather than branched on to keep the adapter off the
// measured difference between the two sides (both sides pay it equally).
type ob1Set struct{ t *lockfreetrie.Trie }

func (s ob1Set) Search(x int64) bool { ok, _ := s.t.Contains(x); return ok }
func (s ob1Set) Insert(x int64)      { _ = s.t.Insert(x) }
func (s ob1Set) Delete(x int64)      { _ = s.t.Delete(x) }
func (s ob1Set) Predecessor(y int64) (p int64) {
	p, _ = s.t.Predecessor(y)
	return p
}

// expOB1: what the always-on observability layer costs where it hurts —
// the two regimes the gate names. "core-pred-heavy" is the single-shard
// read-dominated path where one extra branch per op would show; the
// clustered update mix is cb1's oversubscribed-combiner regime, where
// the instrumentation rides the combiner election/retraction path and
// the EBR epoch-advance path as well as the op counters. Each side is a
// complete facade build — the instrumented one with the default-on
// registry, histograms (DefaultLatencySampling) and event ring; the
// stripped one WithoutObservability, which compiles the same trie with
// every o != nil branch dead. Writes the BENCH_obs.json trajectory
// point unless -obsjson is empty.
func expOB1(inv invocation) error {
	ops, seed := inv.ops, inv.seed
	reps, jsonPath := inv.obsReps, inv.obsPath
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	const u = int64(1 << 16)
	coreWorkers := inv.workers
	if coreWorkers < 2 {
		coreWorkers = 2
	}
	if reps < 1 {
		reps = 1
	}
	if ops < 400000 {
		fmt.Printf("ob1: raising -ops to 400000 (short runs measure warm-up, not the steady-state overhead)\n")
		ops = 400000
	}
	fmt.Println("== OB1: instrumented vs stripped facade (gate: ratio ≥ 0.97, allocs/op ≤ 0.5) ==")
	report := ob1Report{
		Experiment: "ob1-observability",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Universe:   u,
		Ops:        ops,
		Sampling:   lockfreetrie.DefaultLatencySampling,
		Reps:       reps,
	}
	configs := []struct {
		name      string
		mix       workload.Mix
		workers   int
		combining bool
		dist      workload.KeyDist
	}{
		{"core-pred-heavy", workload.MixPredHeavy, coreWorkers, false,
			workload.Uniform{U: u}},
		// cb1's oversubscribed-combiner regime: 16 goroutines funneling
		// 90% of an update-only stream into one hot range.
		{"clustered-update-combining", workload.MixUpdateOnly, 16, true,
			workload.HotRange{U: u, HotLo: u / 2, HotWidth: u / 16, HotPct: 90}},
	}
	// One measurement: fresh facade trie, half-full prefill, A3's
	// warm-settle-rewarm dance so sync.Pool victims and the first-GC heap
	// growth stay out of the MemStats window, then a timed barrier run.
	measure := func(ci int, instrumented bool) (ob1Variant, error) {
		cfg := configs[ci]
		var opts []lockfreetrie.Option
		if cfg.combining {
			opts = append(opts, lockfreetrie.WithCombining())
		}
		if !instrumented {
			opts = append(opts, lockfreetrie.WithoutObservability())
		}
		tr, err := lockfreetrie.New(u, opts...)
		if err != nil {
			return ob1Variant{}, err
		}
		for key := int64(0); key < u; key += 2 {
			if err := tr.Insert(key); err != nil {
				return ob1Variant{}, err
			}
		}
		s := ob1Set{tr}
		gens := make([]*workload.Generator, cfg.workers)
		for i := range gens {
			g, err := workload.NewGenerator(cfg.mix, cfg.dist, seed+int64(i))
			if err != nil {
				return ob1Variant{}, err
			}
			gens[i] = g
		}
		runOps := func(n int) time.Duration {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < cfg.workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					<-start
					g := gens[id]
					for i := 0; i < n/cfg.workers; i++ {
						harness.ApplyOp(s, g.Next())
					}
				}(w)
			}
			t0 := time.Now()
			close(start)
			wg.Wait()
			return time.Since(t0)
		}
		runOps(ops / 2)
		runtime.GC()
		runOps(ops / 10)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		elapsed := runOps(ops)
		runtime.ReadMemStats(&m1)
		n := float64(ops / cfg.workers * cfg.workers)
		return ob1Variant{
			OpsPerSec:   n / elapsed.Seconds(),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		}, nil
	}
	if err := perP(procs, func(p int) error {
		pt := ob1ProcPoint{hostTopology: topologyAt(p)}
		tab := harness.NewTable("workload", "workers", "ops/s instr", "ops/s stripped",
			"ratio", "allocs/op instr", "allocs/op stripped")
		for ci, cfg := range configs {
			var instT, strT, instA, strA, instB, strB, ratios []float64
			for rep := 0; rep < reps; rep++ {
				// Rotate which side runs first: a fixed order lets
				// monotone host-load drift systematically penalize
				// whichever side always runs last.
				var inst, str ob1Variant
				var err error
				if rep%2 == 0 {
					if inst, err = measure(ci, true); err == nil {
						str, err = measure(ci, false)
					}
				} else {
					if str, err = measure(ci, false); err == nil {
						inst, err = measure(ci, true)
					}
				}
				if err != nil {
					return err
				}
				instT, strT = append(instT, inst.OpsPerSec), append(strT, str.OpsPerSec)
				instA, strA = append(instA, inst.AllocsPerOp), append(strA, str.AllocsPerOp)
				instB, strB = append(instB, inst.BytesPerOp), append(strB, str.BytesPerOp)
				if str.OpsPerSec > 0 {
					ratios = append(ratios, inst.OpsPerSec/str.OpsPerSec)
				}
			}
			wl := ob1Workload{
				Mix: cfg.name, Workers: cfg.workers, Combining: cfg.combining,
				Instrumented: ob1Variant{
					OpsPerSec: median(instT), AllocsPerOp: median(instA), BytesPerOp: median(instB),
				},
				Stripped: ob1Variant{
					OpsPerSec: median(strT), AllocsPerOp: median(strA), BytesPerOp: median(strB),
				},
				ThroughputRatio: median(ratios),
			}
			if ci == 0 || wl.ThroughputRatio < pt.GateMinThroughputRatio {
				pt.GateMinThroughputRatio = wl.ThroughputRatio
			}
			if cfg.name == "core-pred-heavy" {
				pt.GateCoreAllocsPerOp = wl.Instrumented.AllocsPerOp
			}
			pt.Workloads = append(pt.Workloads, wl)
			tab.AddRow(cfg.name, cfg.workers, wl.Instrumented.OpsPerSec, wl.Stripped.OpsPerSec,
				wl.ThroughputRatio, wl.Instrumented.AllocsPerOp, wl.Stripped.AllocsPerOp)
		}
		fmt.Println(tab)
		report.Points = append(report.Points, pt)
		return nil
	}); err != nil {
		return err
	}
	report.GoMaxProcs = report.Points[0].GoMaxProcs
	report.NumCPU = report.Points[0].NumCPU
	report.Workloads = report.Points[0].Workloads
	for i, pt := range report.Points {
		if i == 0 || pt.GateMinThroughputRatio < report.GateMinThroughputRatio {
			report.GateMinThroughputRatio = pt.GateMinThroughputRatio
		}
		if pt.GateCoreAllocsPerOp > report.GateCoreAllocsPerOp {
			report.GateCoreAllocsPerOp = pt.GateCoreAllocsPerOp
		}
	}
	fmt.Printf("gate, worst over P: throughput ratio %.3f (want ≥ 0.97), core-pred-heavy instrumented allocs/op %.3f (want ≤ 0.5)\n",
		report.GateMinThroughputRatio, report.GateCoreAllocsPerOp)
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}
