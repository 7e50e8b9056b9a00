package export

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func testSnapshot() obs.Snapshot {
	r := obs.NewRegistry()
	r.Counter("ops.search").Add(1, 42)
	r.Gauge("trie.shards", func() int64 { return 4 })
	h := r.Histogram("latency.predecessor_ns")
	h.Record(100)
	h.Record(100)
	h.Record(5000)
	return r.Snapshot()
}

// TestExpvarHandlerShape: /debug/vars must be one flat JSON object with
// metric names as top-level keys — the expvar contract.
func TestExpvarHandlerShape(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(testSnapshot).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var flat map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil {
		t.Fatalf("response is not a JSON object: %v", err)
	}
	if string(flat["ops.search"]) != "42" {
		t.Fatalf("ops.search = %s, want 42", flat["ops.search"])
	}
	if string(flat["trie.shards"]) != "4" {
		t.Fatalf("trie.shards = %s, want 4", flat["trie.shards"])
	}
	var h obs.HistSnapshot
	if err := json.Unmarshal(flat["latency.predecessor_ns"], &h); err != nil || h.Count != 3 {
		t.Fatalf("histogram value = %s (err %v)", flat["latency.predecessor_ns"], err)
	}
	if string(flat["schema"]) != `"`+obs.SchemaName+`"` {
		t.Fatalf("schema key = %s", flat["schema"])
	}
}

// TestSnapshotHandlerRoundTrip: the typed endpoint must unmarshal back
// into obs.Snapshot losslessly — cmd/triestat depends on it.
func TestSnapshotHandlerRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	SnapshotHandler(testSnapshot).ServeHTTP(rec, httptest.NewRequest("GET", "/snapshot", nil))
	var s obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Schema != obs.SchemaName || s.Version != obs.SchemaVersion {
		t.Fatalf("schema %q/%d", s.Schema, s.Version)
	}
	if s.Counters["ops.search"] != 42 {
		t.Fatalf("ops.search = %d", s.Counters["ops.search"])
	}
	if s.Hists["latency.predecessor_ns"].Count != 3 {
		t.Fatalf("histogram count = %d", s.Hists["latency.predecessor_ns"].Count)
	}
}

// TestPrometheusFormat: counters as counter samples, histograms with
// CUMULATIVE le buckets ending at +Inf and matching _sum/_count, names
// sanitized into the repro_ namespace.
func TestPrometheusFormat(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, testSnapshot())
	out := b.String()
	for _, want := range []string{
		"# TYPE repro_ops_search counter\nrepro_ops_search 42\n",
		"repro_trie_shards 4\n",
		"# TYPE repro_latency_predecessor_ns histogram\n",
		`repro_latency_predecessor_ns_bucket{le="+Inf"} 3`,
		"repro_latency_predecessor_ns_sum 5200\n",
		"repro_latency_predecessor_ns_count 3\n",
		// 100 lands in bucket 7 (bound 127): cumulative 2 there.
		`repro_latency_predecessor_ns_bucket{le="127"} 2`,
		// 5000 lands in the [4096, 5119] sub-bucket: cumulative 3.
		`repro_latency_predecessor_ns_bucket{le="5119"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n--- got ---\n%s", want, out)
		}
	}
	if strings.Contains(out, "ops.search") {
		t.Error("unsanitized metric name leaked into prometheus output")
	}
}

// TestPromHandlerContentType: the scrape endpoint must advertise the
// text exposition version.
func TestPromHandlerContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	PromHandler(testSnapshot).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestNewMuxRoutes: all three endpoints and the pprof index and heap
// profile are wired.
func TestNewMuxRoutes(t *testing.T) {
	mux := NewMux(testSnapshot)
	for _, path := range []string{"/debug/vars", "/metrics", "/snapshot", "/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || rec.Body.Len() == 0 {
			t.Errorf("%s: code %d, %d bytes", path, rec.Code, rec.Body.Len())
		}
	}
}
