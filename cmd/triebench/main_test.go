package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// testInvocation is the minimal invocation the registry tests drive run()
// with: tiny op budget, every artifact path disabled.
func testInvocation() invocation {
	return invocation{
		ops: 1000, workers: 1, seed: 1, shards: 16,
		combineReps: 1, cacheReps: 1,
	}
}

// TestRunUnknownExperimentFails: a typo'd -experiment id must surface an
// error (main exits non-zero on it), never silently run nothing — the CI
// experiment steps depend on a bad id failing the step loudly. The error
// must also name the valid ids, so the typo is a one-glance fix.
func TestRunUnknownExperimentFails(t *testing.T) {
	err := run("cbl", testInvocation())
	if err == nil {
		t.Fatal(`run("cbl") returned nil for an unknown experiment id`)
	}
	if !strings.Contains(err.Error(), `unknown experiment "cbl"`) {
		t.Fatalf("error %q does not name the unknown id", err)
	}
	for _, id := range experimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not list valid id %q", err, id)
		}
	}
}

// TestExperimentRegistryMatchesIDs: the advertised id list and the runner
// table cannot drift apart — every advertised id (except the "all" meta
// id) has a runner, and every runner is advertised.
func TestExperimentRegistryMatchesIDs(t *testing.T) {
	runners := runnersFor(testInvocation())
	advertised := map[string]bool{}
	for _, id := range experimentIDs() {
		advertised[id] = true
		if id == "all" {
			continue
		}
		if _, ok := runners[id]; !ok {
			t.Errorf("advertised experiment %q has no runner", id)
		}
	}
	for id := range runners {
		if !advertised[id] {
			t.Errorf("runner %q is not in experimentIDs", id)
		}
	}
}

// TestCommittedArtifactsHaveAnExperiment: every committed BENCH_*.json
// names, before the first '-' of its "experiment" field, an id with a
// runner, so deleting an experiment cannot leave its artifact behind with
// nothing to reproduce it.
func TestCommittedArtifactsHaveAnExperiment(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json found at the repository root")
	}
	runners := runnersFor(testInvocation())
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var art struct {
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(buf, &art); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		id, _, _ := strings.Cut(art.Experiment, "-")
		if _, ok := runners[id]; !ok {
			t.Errorf("%s: experiment %q names no registered id (%q)", path, art.Experiment, id)
		}
	}
}

// TestEmptyExperimentFails: the empty string is not a silent no-op either.
func TestEmptyExperimentFails(t *testing.T) {
	if err := run("", testInvocation()); err == nil {
		t.Fatal(`run("") returned nil`)
	}
}

// TestRunRejectsBadGomaxprocs: a malformed -gomaxprocs list must fail the
// run up front, before any experiment burns minutes of measurement time.
func TestRunRejectsBadGomaxprocs(t *testing.T) {
	for _, bad := range []string{"0", "-1", "1,x", "1,,4", "four"} {
		inv := testInvocation()
		inv.gomaxprocs = bad
		if err := run("c1", inv); err == nil {
			t.Errorf("run with -gomaxprocs %q succeeded", bad)
		}
	}
}

// TestParseGomaxprocs: the sweep parser keeps order, collapses
// duplicates, and resolves the empty string to the current setting.
func TestParseGomaxprocs(t *testing.T) {
	got, err := parseGomaxprocs("1, 4,8,4")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parseGomaxprocs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseGomaxprocs = %v, want %v", got, want)
		}
	}
	cur, err := parseGomaxprocs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 1 || cur[0] != runtime.GOMAXPROCS(0) {
		t.Fatalf("parseGomaxprocs(\"\") = %v, want [%d]", cur, runtime.GOMAXPROCS(0))
	}
}

// TestPerPRestoresSetting: the sweep helper must hand each requested P to
// the callback and leave GOMAXPROCS where it found it — a leaked setting
// would silently skew every later measurement in the same process.
func TestPerPRestoresSetting(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	var seen []int
	err := perP([]int{1, 2}, func(p int) error {
		if got := runtime.GOMAXPROCS(0); got != p {
			t.Errorf("callback at p=%d sees GOMAXPROCS=%d", p, got)
		}
		seen = append(seen, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("perP visited %v, want [1 2]", seen)
	}
	if got := runtime.GOMAXPROCS(0); got != orig {
		t.Fatalf("perP left GOMAXPROCS=%d, want %d restored", got, orig)
	}
}

// TestTopologyAt: every trajectory point must carry enough metadata to
// distinguish real parallelism from single-core timeslicing.
func TestTopologyAt(t *testing.T) {
	topo := topologyAt(runtime.NumCPU() + 1)
	if !topo.Oversubscribed {
		t.Error("P above NumCPU not flagged oversubscribed")
	}
	if topo.NumCPU != runtime.NumCPU() || topo.GOOS != runtime.GOOS || topo.GOARCH != runtime.GOARCH {
		t.Errorf("topology %+v does not describe this host", topo)
	}
	if topologyAt(1).Oversubscribed {
		t.Error("P=1 flagged oversubscribed")
	}
}

// TestCC1VacuousGateRefusesAllOnes: when every key has ever been inserted
// the occupancy summary is all-ones, no descent can skip anything, and a
// compression gate measured there is vacuous. The guard must refuse (main
// exits non-zero on the error) with a message naming the condition; a
// sparse prefill must pass.
func TestCC1VacuousGateRefusesAllOnes(t *testing.T) {
	dense := mustTrie(256)
	for k := int64(0); k < 256; k++ {
		dense.Insert(k)
	}
	err := cc1VacuousGate(dense.Bits())
	if err == nil {
		t.Fatal("cc1VacuousGate accepted an all-ones summary")
	}
	if !strings.Contains(err.Error(), "vacuous") {
		t.Fatalf("error %q does not explain the gate is vacuous", err)
	}

	sparse := mustTrie(256)
	for k := int64(0); k < 256; k += 64 {
		sparse.Insert(k)
	}
	if err := cc1VacuousGate(sparse.Bits()); err != nil {
		t.Fatalf("cc1VacuousGate rejected a sparse prefill: %v", err)
	}
}

// TestCB1GateRefusesLowReduction: CB1's gate binds every swept P, not just
// the compat row — a miss at any P must fail the run (main exits non-zero
// on the error) and name that P.
func TestCB1GateRefusesLowReduction(t *testing.T) {
	pass := cb1ProcPoint{hostTopology: topologyAt(1), GateUpdateHeavyReductionX: 7.5}
	miss := cb1ProcPoint{hostTopology: topologyAt(2), GateUpdateHeavyReductionX: 1.9}
	if err := cb1Gate([]cb1ProcPoint{pass, pass}); err != nil {
		t.Fatalf("cb1Gate refused passing points: %v", err)
	}
	err := cb1Gate([]cb1ProcPoint{pass, miss})
	if err == nil {
		t.Fatal("cb1Gate accepted a 1.9× reduction at P=2")
	}
	if !strings.Contains(err.Error(), "GOMAXPROCS=2") {
		t.Fatalf("error %q does not name the missing P", err)
	}
}
