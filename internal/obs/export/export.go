// Package export renders obs snapshots for external consumers: an
// expvar-compatible JSON handler (flat name→value object, the
// /debug/vars shape), a Prometheus text-format writer, and a typed
// snapshot endpoint for tools that want the schema verbatim
// (cmd/triestat). Handlers take a snapshot source closure instead of a
// registry so a caller can serve deltas, filtered views, or a facade's
// MetricsSnapshot unchanged. NewMux also mounts the runtime profiles of
// net/http/pprof.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Handler serves src() as an expvar-compatible JSON object: one
// top-level key per metric (counters and gauges as numbers, histograms
// as {count,sum,buckets} objects) plus the schema identity keys. The
// flat shape is what generic expvar scrapers expect at /debug/vars;
// tools that want the typed schema use SnapshotHandler.
func Handler(src func() obs.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := src()
		flat := make(map[string]interface{}, len(s.Counters)+len(s.Hists)+3)
		flat["schema"] = s.Schema
		flat["version"] = s.Version
		flat["unix_nanos"] = s.UnixNanos
		for n, v := range s.Counters {
			flat[n] = v
		}
		for n, h := range s.Hists {
			flat[n] = h
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(flat)
	})
}

// SnapshotHandler serves src() marshaled verbatim — the obs.Snapshot
// schema a typed consumer can unmarshal back.
func SnapshotHandler(src func() obs.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src())
	})
}

// PromHandler serves src() in the Prometheus text exposition format.
func PromHandler(src func() obs.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src())
	})
}

// NewMux routes the three renderings the way cmd/triestress serves them:
// /debug/vars (expvar shape), /metrics (Prometheus text), /snapshot
// (typed schema). It also mounts net/http/pprof under /debug/pprof/, so
// a heap or CPU profile of the serving process is one request away;
// the handlers cost nothing until they are requested.
func NewMux(src func() obs.Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", Handler(src))
	mux.Handle("/metrics", PromHandler(src))
	mux.Handle("/snapshot", SnapshotHandler(src))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promName maps a schema metric name to a Prometheus-legal one:
// dots/dashes become underscores under a repro_ namespace prefix.
func promName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "repro_" + mapped
}

// WritePrometheus renders s as Prometheus text format: counters and
// gauges as untyped samples, histograms as native Prometheus histograms
// (cumulative le buckets with +Inf, _sum, _count). Names are emitted in
// sorted order so scrapes diff cleanly.
func WritePrometheus(w io.Writer, s obs.Snapshot) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}
	hnames := make([]string, 0, len(s.Hists))
	for n := range s.Hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Hists[n]
		pn := promName(n)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		var cum int64
		for b := 0; b < obs.HistBuckets; b++ {
			cum += h.Buckets[b]
			// Empty tail buckets are elided past the last observation —
			// the +Inf bucket below carries the total — keeping the
			// exposition proportional to the observed range.
			if cum == h.Count && b > 0 && h.Buckets[b] == 0 {
				continue
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, obs.BucketBound(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}
