package lockfreetrie_test

import (
	"sync"
	"testing"
	"time"

	lockfreetrie "repro"
)

// TestMetricsSnapshotCountsOps: the ops.* counters count exactly the
// primitive entrypoint calls, the snapshot carries the schema identity,
// and Delta windows subtract.
func TestMetricsSnapshotCountsOps(t *testing.T) {
	tr, err := lockfreetrie.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tr.Insert(i * 7 % 1024); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 40; i++ {
		if _, err := tr.Contains(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 25; i++ {
		if _, err := tr.Predecessor(i); err != nil {
			t.Fatal(err)
		}
	}
	s1 := tr.MetricsSnapshot()
	if s1.Schema == "" || s1.Version == 0 {
		t.Fatalf("snapshot missing schema identity: %q/%d", s1.Schema, s1.Version)
	}
	if got := s1.Counters["ops.insert"]; got != 100 {
		t.Errorf("ops.insert = %d, want 100", got)
	}
	if got := s1.Counters["ops.search"]; got != 40 {
		t.Errorf("ops.search = %d, want 40", got)
	}
	if got := s1.Counters["ops.predecessor"]; got != 25 {
		t.Errorf("ops.predecessor = %d, want 25", got)
	}
	// A key-validation failure never reaches the backend and is not an op.
	if err := tr.Insert(-1); err == nil {
		t.Fatal("Insert(-1) accepted")
	}
	for i := int64(0); i < 10; i++ {
		if err := tr.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	d := tr.MetricsSnapshot().Delta(s1)
	if got := d.Counters["ops.insert"]; got != 0 {
		t.Errorf("delta ops.insert = %d, want 0", got)
	}
	if got := d.Counters["ops.delete"]; got != 10 {
		t.Errorf("delta ops.delete = %d, want 10", got)
	}
}

// TestFixedBytesGauge: trie.fixed_bytes reports the universe-proportional
// structure summed over the shards — 8 B of latest and 8 B of internal
// dNodePtr per slot, plus the occupancy summary's 1/64 word per slot and
// its upper levels (under 0.13 B per slot in all).
func TestFixedBytesGauge(t *testing.T) {
	const u = 1 << 16
	for _, k := range []int{1, 16} {
		tr, err := lockfreetrie.New(u, lockfreetrie.WithShards(k))
		if err != nil {
			t.Fatal(err)
		}
		got := tr.MetricsSnapshot().Counters["trie.fixed_bytes"]
		if lo, hi := int64(16*u+u/8), int64(16*u+u/8+u/256); got < lo || got > hi {
			t.Errorf("k=%d: trie.fixed_bytes = %d (%.3f B per slot), want in [%d, %d]",
				k, got, float64(got)/u, lo, hi)
		}
	}
}

// TestLatencySamplingRecords: with cadence 1 every op is timed, so the
// histograms carry exactly the op counts; the core gauges move too.
func TestLatencySamplingRecords(t *testing.T) {
	tr, err := lockfreetrie.New(1<<10, lockfreetrie.WithLatencySampling(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 50; i++ {
		if err := tr.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < 20; i++ {
		if _, err := tr.Predecessor(i); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.MetricsSnapshot()
	if got := s.Hists["latency.insert_ns"].Count; got != 50 {
		t.Errorf("latency.insert_ns count = %d, want 50", got)
	}
	if got := s.Hists["latency.predecessor_ns"].Count; got != 19 {
		t.Errorf("latency.predecessor_ns count = %d, want 19", got)
	}
	if s.Counters["core.announces"] == 0 {
		t.Error("core.announces gauge never moved across 50 inserts")
	}
	if st := tr.Stats(); st.Announces == 0 || st.Notifications < 0 {
		t.Errorf("Stats() = %+v; want Announces > 0", st)
	}
}

// TestWithoutObservabilityStripsEverything: the stripped configuration
// returns an empty (schema-only) snapshot, nil events, zero Stats — and
// keeps operating.
func TestWithoutObservabilityStripsEverything(t *testing.T) {
	tr, err := lockfreetrie.New(1<<10, lockfreetrie.WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if err := tr.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.MetricsSnapshot()
	if len(s.Counters) != 0 || len(s.Hists) != 0 {
		t.Errorf("stripped snapshot carries %d counters, %d hists", len(s.Counters), len(s.Hists))
	}
	if s.Schema == "" {
		t.Error("stripped snapshot must still carry the schema identity")
	}
	if evs := tr.Events(); evs != nil {
		t.Errorf("stripped Events() = %d events, want nil", len(evs))
	}
	if st := tr.Stats(); st != (lockfreetrie.Stats{}) {
		t.Errorf("stripped Stats() = %+v, want zero", st)
	}
	if n := tr.Len(); n != 32 {
		t.Errorf("Len = %d, want 32", n)
	}
}

// TestObservabilityOptionValidation: the option conflicts error loudly.
func TestObservabilityOptionValidation(t *testing.T) {
	if _, err := lockfreetrie.New(1<<10, lockfreetrie.WithLatencySampling(0)); err == nil {
		t.Error("WithLatencySampling(0) accepted")
	}
	if _, err := lockfreetrie.New(1<<10,
		lockfreetrie.WithoutObservability(), lockfreetrie.WithLatencySampling(8)); err == nil {
		t.Error("WithoutObservability + WithLatencySampling accepted")
	}
	if _, err := lockfreetrie.New(1<<10,
		lockfreetrie.WithoutObservability(), lockfreetrie.WithDescentStats()); err == nil {
		t.Error("WithoutObservability + WithDescentStats accepted")
	}
}

// TestDescentStatsGated: the bits.* counters exist only under
// WithDescentStats and move with predecessor traffic.
func TestDescentStatsGated(t *testing.T) {
	plain, err := lockfreetrie.New(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.MetricsSnapshot().Counters["bits.bit_reads"]; ok {
		t.Error("bits.* registered without WithDescentStats")
	}
	tr, err := lockfreetrie.New(1<<10, lockfreetrie.WithDescentStats())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := tr.Insert(i * 16 % 1024); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < 64; i++ {
		if _, err := tr.Predecessor(i*16%1024 + 1); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.MetricsSnapshot()
	if s.Counters["bits.bit_reads"] == 0 {
		t.Error("bits.bit_reads never moved under WithDescentStats")
	}
	if st := tr.Stats(); st.BitReads == 0 {
		t.Errorf("Stats().BitReads = 0 under WithDescentStats (stats %+v)", st)
	}
}

// TestEventsCaptureCombinerElect is the end-to-end trace test: under a
// clustered update burst through WithCombining, Trie.Events must surface
// the sampled combiner-election events with their decoded batch and
// round readings, and no event may claim more rounds than the
// combine.rounds gauge counted (the ring may drop, never invent).
func TestEventsCaptureCombinerElect(t *testing.T) {
	tr, err := lockfreetrie.New(1<<12, lockfreetrie.WithCombining())
	if err != nil {
		t.Fatal(err)
	}

	// The burst can publish more events than the ring holds (epoch
	// advances, retractions), so a concurrent drainer keeps the early
	// elections from being overwritten.
	stop := make(chan struct{})
	drained := make(chan []lockfreetrie.TraceEvent)
	go func() {
		var evs []lockfreetrie.TraceEvent
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				drained <- append(evs, tr.Events()...)
				return
			case <-tick.C:
				evs = append(evs, tr.Events()...)
			}
		}
	}()

	// Clustered update burst: every op publishes to the one combiner, and
	// every round is an election, so the burst runs far more than
	// obs.ElectEventEvery rounds.
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				x := (id*per + i) % 512 // one hot range
				if i%3 == 0 {
					_ = tr.Delete(x)
				} else {
					_ = tr.Insert(x)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)

	rounds := tr.MetricsSnapshot().Counters["combine.rounds"]
	var elects int
	for _, e := range <-drained {
		if e.Kind != "combiner-elect" {
			continue
		}
		elects++
		if e.Values["batch"] < 1 {
			t.Errorf("combiner-elect event drained no ops: %+v", e)
		}
		if r := e.Values["rounds"]; r < 1 || r > rounds {
			t.Errorf("combiner-elect event at round %d outside the %d rounds counted: %+v", r, rounds, e)
		}
	}
	if elects == 0 {
		t.Errorf("no combiner-elect event captured across %d combining rounds", rounds)
	}
	if s := tr.MetricsSnapshot(); s.Counters["trie.shards"] != 1 {
		t.Errorf("trie.shards gauge = %d, want 1", s.Counters["trie.shards"])
	}
}
