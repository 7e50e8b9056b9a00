package main

import (
	"encoding/json"
	"os"
	"sync"
)

// span is one timed interval. Spans of one request share its id through
// parent; the benchmark's spans wrap its calls into each layer, so a
// layer's self time is its span minus its children.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Conn   int    `json:"conn"` // connection, or ladder goroutine
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func (l *spanLog) add(s span) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	s.ID = l.next
	l.spans = append(l.spans, s)
	return s.ID
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

// request records a sampled request: a request span from its intended
// send time to its response, and a client call span from the hand-off
// to the client until the callback.
func (l *spanLog) request(conn int, update bool, intended, issued, done int64) {
	kind := "read"
	if update {
		kind = "update"
	}
	id := l.add(span{Name: "request." + kind, Start: intended, End: done, Conn: conn})
	l.add(span{Name: "client." + kind, Parent: id, Start: issued, End: done, Conn: conn})
}

// medianUs is the median duration of the spans called name, in µs.
func (l *spanLog) medianUs(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d []float64
	for _, s := range l.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	return median(d)
}

func (l *spanLog) write(path, workload string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
