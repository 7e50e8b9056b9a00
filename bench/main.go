// Command bench is the repository's end-to-end benchmark: it builds on
// the real trieserve binary, drives it over two TCP connections with an
// open-loop Poisson load through internal/server.Client, checks the
// served set against a model of the acknowledged updates, and reports
// end-to-end and per-layer metrics. bench/README.md describes the
// workloads, the metrics and how to read a trace.
//
// Usage (from the repository root; bench/run.sh builds both binaries):
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the metrics
// BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer
// list with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phases are the durations of one run, derived from its length.
type phases struct {
	setups  int           // set-ups timed; setup_s is their median
	load    time.Duration // the fixed-rate load point
	window  time.Duration // traced runs alternate traced and untraced windows
	warmup  time.Duration // capacity phase: warm-up, then capWins windows
	capWins int
	capWin  time.Duration
	rung    time.Duration // traced runs: time budget of each ladder rung
}

// phasesFor splits a run of `seconds`: two thirds for the load point,
// one third for the capacity phase (a tenth of it warm-up, then five
// windows). A traced run spends half on the load point and half on the
// five ladder rungs.
func phasesFor(seconds float64, traced bool) phases {
	s := time.Duration(seconds * float64(time.Second))
	p := phases{setups: 3, window: 250 * time.Millisecond, load: (2 * s / 3).Round(time.Second),
		warmup: s / 30, capWins: 5, capWin: (s/3 - s/30) / 5}
	if traced {
		p.setups, p.capWins = 1, 0
		p.load = (s / 2).Round(time.Second)
		p.rung = s / 10
	}
	if p.load < time.Second {
		p.load = time.Second
	}
	return p
}

// manifest is the part of BENCHMARK.json the benchmark reads: which
// metrics the last line reports.
type manifest struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var man manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("%s: %w", path, err)
	}
	return man, nil
}

func main() {
	runtime.GOMAXPROCS(2)
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced load point and the layer ladder")
		bin     = flag.String("server", "", "trieserve binary (bench/run.sh builds it)")
		out     = flag.String("out", "bench/out", "directory for results.json, traces and WAL data")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, bin, out string) error {
	if bin == "" {
		return fmt.Errorf("--server is required")
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	todo := specs
	if name != "all" {
		s, err := findSpec(name)
		if err != nil {
			return err
		}
		todo = []spec{*s}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	var n counts
	results := map[string]map[string]metric{}
	final := map[string]metric{}
	correct := true
	for i := range todo {
		s := &todo[i]
		ms, err := runWorkload(s, seed, phasesFor(seconds, traced), traced, bin, out, &n)
		var bad *mismatchError
		switch {
		case errors.As(err, &bad):
			fmt.Println(s.name, "output check FAILED:", bad)
			correct = false
		case err != nil:
			return fmt.Errorf("%s: %w", s.name, err)
		}
		byName := map[string]metric{}
		for _, m := range ms {
			fmt.Printf("%s %s %.6g %s\n", s.name, m.Name, m.Value, m.Unit)
			byName[m.Name] = m
		}
		results[s.name] = byName
		for _, w := range want {
			m, ok := byName[w.Name]
			if !ok {
				return fmt.Errorf("%s: BENCHMARK.json metric %s was not measured", s.name, w.Name)
			}
			key := w.Name
			if len(todo) > 1 {
				key = s.name + "." + w.Name
			}
			final[key] = m
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), results); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": n.attempted.Load(), "failed": n.failed.Load(), "metrics": final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return errors.New("output check failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
