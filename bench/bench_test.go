package main

import (
	"math"
	"math/rand"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestScheduleDeterministic runs the open-loop generator twice with one
// seed: the intended send times must match exactly, and the offered rate
// must be within 1% of the configured one.
func TestScheduleDeterministic(t *testing.T) {
	const rate, span = 200_000.0, int64(500 * time.Millisecond)
	schedule := func(seed int64) []int64 {
		var at []int64
		start := now()
		err := openLoop(newStream(&specs[0], 1, 0), rate, seed, start, start+span,
			func(a arrival) { at = append(at, a.intended-start) })
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	a, b := schedule(7), schedule(7)
	if !slices.Equal(a, b) {
		t.Fatalf("same seed, different schedules: %d vs %d arrivals", len(a), len(b))
	}
	if slices.Equal(a, schedule(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	got := float64(len(a)) / (float64(span) / 1e9)
	if math.Abs(got-rate)/rate > 0.01 {
		t.Fatalf("offered %.0f ops/s, want %.0f ± 1%%", got, rate)
	}
}

// TestHistQuantiles compares the histogram with exact nearest-rank
// quantiles of the sorted samples.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h, a, b hist
	var vals []int64
	for i := 0; i < 200_000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*1.5 + 11)) // ~60 µs, long tail
		if i%50 == 0 {
			v = rng.Int63n(64) // the exact small buckets
		}
		vals = append(vals, v)
		h.record(v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	slices.Sort(vals)
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
		for name, hh := range map[string]*hist{"recorded": &h, "merged": &a} {
			if got := hh.quantile(q); math.Abs(got-exact) > exact/float64(subCount)+1 {
				t.Errorf("%s q%.3f = %.1f, exact %.0f", name, q, got, exact)
			}
		}
	}
	if !math.IsNaN(new(hist).quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
}

// TestOwnershipDeterministic checks the key-ownership model: the same
// seed gives the same streams and set, and every update a connection
// issues is on a key of its own parity inside the universe.
func TestOwnershipDeterministic(t *testing.T) {
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			build := func() ([]workload.Op, []int64) {
				ms := []model{newModel(s.u), newModel(s.u)}
				for _, k := range s.prefill(3) {
					ms[k%conns].set(k, true)
				}
				var ops []workload.Op
				for c := 0; c < conns; c++ {
					st := newStream(s, 3, c)
					for j := 0; j < 20_000; j++ {
						op := st.next()
						if op.Key < 0 || op.Key >= s.u {
							t.Fatalf("key %d outside [0, %d)", op.Key, s.u)
						}
						if isUpdate(op.Kind) {
							if op.Key%conns != int64(c) {
								t.Fatalf("connection %d issued an update on key %d", c, op.Key)
							}
							ms[c].set(op.Key, op.Kind == workload.OpInsert)
						}
						ops = append(ops, op)
					}
				}
				return ops, expected(ms, s.u)
			}
			ops1, set1 := build()
			ops2, set2 := build()
			if !slices.Equal(ops1, ops2) || !slices.Equal(set1, set2) {
				t.Fatal("same seed, different op streams or final sets")
			}
			if len(set1) == 0 {
				t.Fatal("empty final set")
			}
		})
	}
}

// TestSmoke runs every workload end to end against a freshly built
// trieserve with a 1 s load point and one 0.5 s capacity window, then
// traced, and checks that every metric BENCHMARK.json names is produced.
// It keeps the benchmark, the trieserve flags it passes and the
// /snapshot metric names from drifting apart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "trieserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/trieserve").CombinedOutput(); err != nil {
		t.Fatalf("build trieserve: %v\n%s", err, out)
	}
	ph := phases{setups: 1, load: time.Second, window: 250 * time.Millisecond, capWins: 1, capWin: 500 * time.Millisecond}
	traced := phases{setups: 1, load: time.Second, window: 250 * time.Millisecond, rung: 200 * time.Millisecond}
	for i := range specs {
		s := &specs[i]
		t.Run(s.name, func(t *testing.T) {
			for _, run := range []struct {
				ph     phases
				traced bool
				want   []struct{ Name string }
			}{{ph, false, man.EndToEnd}, {traced, true, man.PerLayer}} {
				var n counts
				ms, err := runWorkload(s, 1, run.ph, run.traced, bin, dir, &n)
				if err != nil {
					t.Fatalf("traced=%v: %v", run.traced, err)
				}
				if n.failed.Load() != 0 {
					t.Errorf("traced=%v: %d of %d requests failed", run.traced, n.failed.Load(), n.attempted.Load())
				}
				got := map[string]float64{}
				for _, m := range ms {
					got[m.Name] = m.Value
				}
				for _, w := range run.want {
					if v, ok := got[w.Name]; !ok || math.IsNaN(v) {
						t.Errorf("traced=%v: metric %s missing or NaN", run.traced, w.Name)
					}
				}
			}
		})
	}
}
