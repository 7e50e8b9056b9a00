package obs

import (
	"sync"
	"testing"
)

// TestCounterStripesSum: concurrent Adds with scattered hints must sum
// exactly — striping changes placement, never arithmetic.
func TestCounterStripesSum(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(int64(id*per + i))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("Counter.Load() = %d, want %d", got, workers*per)
	}
}

// TestCounterIncReturnsStripeValue: the sampling facades rely on Inc
// returning a per-stripe sequence — a fixed hint must count 1,2,3,….
func TestCounterIncReturnsStripeValue(t *testing.T) {
	var c Counter
	for i := int64(1); i <= 5; i++ {
		if got := c.Inc(42); got != i {
			t.Fatalf("Inc #%d on a fixed hint = %d, want %d", i, got, i)
		}
	}
}

// TestRegistryIdempotentHandles: re-asking for a name returns the same
// hot-path object, never a fresh zeroed one.
func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("ops.search")
	c1.Inc(0)
	if c2 := r.Counter("ops.search"); c2 != c1 {
		t.Fatal("Registry.Counter returned a different handle for the same name")
	}
	if h1, h2 := r.Histogram("lat"), r.Histogram("lat"); h1 != h2 {
		t.Fatal("Registry.Histogram returned a different handle for the same name")
	}
}

// TestSnapshotAndDelta: counters, gauges and histograms all land in the
// schema; Delta subtracts per name, tolerates names missing from prev,
// and stamps the window.
func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops.add")
	g := int64(3)
	r.Gauge("trie.len", func() int64 { return g })
	h := r.Histogram("lat.add")

	c.Add(1, 10)
	h.Record(100)
	s1 := r.Snapshot()
	if s1.Schema != SchemaName || s1.Version != SchemaVersion {
		t.Fatalf("snapshot schema %q/%d, want %q/%d", s1.Schema, s1.Version, SchemaName, SchemaVersion)
	}
	if s1.Counters["ops.add"] != 10 || s1.Counters["trie.len"] != 3 {
		t.Fatalf("snapshot counters = %v", s1.Counters)
	}
	if s1.Hists["lat.add"].Count != 1 {
		t.Fatalf("snapshot histogram count = %d, want 1", s1.Hists["lat.add"].Count)
	}

	c.Add(2, 5)
	g = 6
	h.Record(200)
	s2 := r.Snapshot()
	d := s2.Delta(s1)
	if d.Counters["ops.add"] != 5 {
		t.Fatalf("delta ops.add = %d, want 5", d.Counters["ops.add"])
	}
	if d.Counters["trie.len"] != 3 {
		t.Fatalf("delta gauge = %d, want 3 (6−3)", d.Counters["trie.len"])
	}
	if d.Hists["lat.add"].Count != 1 || d.Hists["lat.add"].Sum != 200 {
		t.Fatalf("delta histogram = %+v", d.Hists["lat.add"])
	}
	if d.WindowNanos < 0 {
		t.Fatalf("delta window %d < 0", d.WindowNanos)
	}

	// A name unknown to prev reads as a zero base.
	r.Counter("ops.new").Add(0, 7)
	d2 := r.Snapshot().Delta(s1)
	if d2.Counters["ops.new"] != 7 {
		t.Fatalf("delta of a fresh counter = %d, want 7", d2.Counters["ops.new"])
	}
}

// TestRegistryNamesSorted: exposition iterates Names; it must be stable.
func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a", func() int64 { return 0 })
	r.Histogram("c")
	names := r.Names()
	want := []string{"a", "b", "c"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

// TestSnapshotMerge: merging two registries' snapshots unions the metric
// sets, sums collisions (counters and histograms bucket-wise), and keeps
// the later timestamp — the multi-source exposition path trieserve uses.
func TestSnapshotMerge(t *testing.T) {
	trie := NewRegistry()
	trie.Counter("ops.insert").Add(0, 10)
	trie.Counter("shared.total").Add(0, 3)
	trie.Histogram("latency.insert_ns").Record(100)

	srv := NewRegistry()
	srv.Counter("server.requests").Add(0, 7)
	srv.Counter("shared.total").Add(0, 4)
	srv.Histogram("latency.insert_ns").Record(100)
	srv.Histogram("server.batch_size").Record(16)

	a, b := trie.Snapshot(), srv.Snapshot()
	m := a.Merge(b)

	if m.Counters["ops.insert"] != 10 || m.Counters["server.requests"] != 7 {
		t.Fatalf("disjoint counters not unioned: %v", m.Counters)
	}
	if m.Counters["shared.total"] != 7 {
		t.Fatalf("colliding counter = %d, want 7", m.Counters["shared.total"])
	}
	if h := m.Hists["latency.insert_ns"]; h.Count != 2 || h.Sum != 200 || h.Buckets[bucketOf(100)] != 2 {
		t.Fatalf("colliding histogram = %+v", h)
	}
	if m.Hists["server.batch_size"].Count != 1 {
		t.Fatalf("src-only histogram missing")
	}
	if m.UnixNanos < a.UnixNanos || m.UnixNanos < b.UnixNanos {
		t.Fatalf("merged timestamp %d older than inputs", m.UnixNanos)
	}
	// Inputs unmodified.
	if a.Counters["shared.total"] != 3 || b.Counters["shared.total"] != 4 {
		t.Fatalf("Merge mutated its inputs")
	}
}
