package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	lockfreetrie "repro"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/workload"
)

// ladderOps is the length of the op stream each rung replays; a rung
// stops earlier when its time budget runs out.
const ladderOps = 400_000

// readRun is how many consecutive reads of one kind are timed together:
// on a KVM guest one clock read costs ~80 ns, more than a Contains.
const readRun = 32

// rung is one layer stack applied in process.
type rung struct {
	name     string
	apply    func([]workload.Op) // a batch of updates, in stream order
	pred     func(int64)
	contains func(int64)
}

func coreRung(u int64) (*rung, error) {
	t, err := core.New(u)
	if err != nil {
		return nil, err
	}
	var buf []core.BatchOp
	return &rung{name: "core",
		apply: func(ops []workload.Op) {
			buf = batchOps(buf, ops)
			t.ApplyBatch(combine.SortDedup(buf))
		},
		pred:     func(y int64) { t.Predecessor(y) },
		contains: func(x int64) { t.Search(x) },
	}, nil
}

func shardedRung(u int64) (*rung, error) {
	t, err := sharded.New(u, 16)
	if err != nil {
		return nil, err
	}
	var buf []core.BatchOp
	return &rung{name: "sharded",
		apply: func(ops []workload.Op) {
			buf = batchOps(buf, ops)
			t.ApplyBatch(combine.SortDedup(buf))
		},
		pred: func(y int64) { t.Predecessor(y) },
	}, nil
}

func batchOps(buf []core.BatchOp, ops []workload.Op) []core.BatchOp {
	buf = buf[:0]
	for _, op := range ops {
		buf = append(buf, core.BatchOp{Key: op.Key, Del: op.Kind == workload.OpDelete})
	}
	return buf
}

// facadeRung is the public trie, configured as the server configures it
// plus extra options.
func facadeRung(name string, s *spec, extra ...lockfreetrie.Option) (*rung, *lockfreetrie.Trie, error) {
	opts := extra
	if s.shards > 0 {
		opts = append(opts, lockfreetrie.WithShards(s.shards))
	}
	t, err := lockfreetrie.New(s.u, opts...)
	if err != nil {
		return nil, nil, err
	}
	var buf []lockfreetrie.Op
	r := &rung{name: name,
		apply: func(ops []workload.Op) {
			buf = buf[:0]
			for _, op := range ops {
				kind := lockfreetrie.OpInsert
				if op.Kind == workload.OpDelete {
					kind = lockfreetrie.OpDelete
				}
				buf = append(buf, lockfreetrie.Op{Kind: kind, Key: op.Key})
			}
			t.ApplyBatch(buf)
		},
		pred:     func(y int64) { _, _ = t.Predecessor(y) }, // keys come from [0, u)
		contains: func(x int64) { _, _ = t.Contains(x) },
	}
	return r, t, nil
}

// rungTimes are one rung's per-op times in nanoseconds: per batch for
// updates, per run of readRun calls for reads.
type rungTimes struct{ apply, pred, contains hist }

// ladder replays the workload's seeded op stream in process, in the
// server's shape: one goroutine applies the updates in batches of the
// server's measured mean batch size while two goroutines issue the reads.
// Each rung adds a layer; a layer's cost is its rung minus the one below.
func ladder(s *spec, seed int64, batchMean float64, budget time.Duration, walDir string, spans *spanLog) ([]metric, error) {
	var upd, preds, cont []workload.Op
	streams := []*stream{newStream(s, seed, 0), newStream(s, seed, 1)}
	for i := 0; i < ladderOps; i++ {
		op := streams[i%conns].next()
		switch {
		case isUpdate(op.Kind):
			upd = append(upd, op)
		case op.Kind == workload.OpPredecessor:
			preds = append(preds, op)
		default:
			cont = append(cont, op)
		}
	}
	var fill []workload.Op
	for _, k := range s.prefill(seed) {
		fill = append(fill, workload.Op{Kind: workload.OpInsert, Key: k})
	}
	batch := int(batchMean + 0.5)
	if batch < 1 {
		batch = 1
	}
	replay := func(r *rung, upd, preds, cont []workload.Op) *rungTimes {
		r.apply(fill)
		return replayRung(r, upd, preds, cont, batch, budget, spans)
	}
	var ms []metric
	ns := func(name string, h *hist) { ms = append(ms, metric{name, h.quantile(0.5), "ns"}) }

	c, err := coreRung(s.u)
	if err != nil {
		return nil, err
	}
	t := replay(c, upd, preds, cont)
	ns("core.apply_batch_ns_per_op", &t.apply)
	ns("core.predecessor_ns", &t.pred)
	ns("core.search_ns", &t.contains)
	runtime.GC()

	sh, err := shardedRung(s.u)
	if err != nil {
		return nil, err
	}
	t = replay(sh, upd, preds, nil)
	ns("sharded.apply_batch_ns_per_op", &t.apply)
	ns("sharded.predecessor_ns", &t.pred)
	runtime.GC()

	f, _, err := facadeRung("facade", s)
	if err != nil {
		return nil, err
	}
	t = replay(f, upd, preds, cont)
	ns("facade.apply_batch_ns_per_op", &t.apply)
	ns("facade.predecessor_ns", &t.pred)
	ns("facade.contains_ns", &t.contains)
	runtime.GC()

	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	fw, tw, err := facadeRung("facade_wal", s,
		lockfreetrie.WithDurability(walDir, lockfreetrie.WithSyncEvery(syncEvery)))
	if err != nil {
		return nil, err
	}
	t = replay(fw, upd, nil, nil)
	ns("facade_wal.apply_batch_ns_per_op", &t.apply)
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("closing the ladder WAL: %w", err)
	}
	runtime.GC()

	// Bit-read counts are per Predecessor, so this rung replays only them.
	fb, tb, err := facadeRung("facade_bits", s, lockfreetrie.WithDescentStats())
	if err != nil {
		return nil, err
	}
	fb.apply(fill)
	st0 := tb.Stats()
	t = replayRung(fb, nil, preds, nil, batch, budget, spans)
	st1 := tb.Stats()
	n := float64(t.pred.count() * readRun)
	ms = append(ms,
		metric{"bits.bit_reads_per_pred", float64(st1.BitReads-st0.BitReads) / n, "1/op"},
		metric{"bits.skipped_bit_reads_per_pred", float64(st1.SkippedBitReads-st0.SkippedBitReads) / n, "1/op"})
	return ms, nil
}

// replayRung runs one rung until its ops are done or budget passes. Every
// timed unit feeds the rung's histograms; one in sampleEvery is also kept
// as a span under the rung's own span.
func replayRung(r *rung, upd, preds, cont []workload.Op, batch int, budget time.Duration, spans *spanLog) *rungTimes {
	var t rungTimes
	start := now()
	deadline := start + int64(budget)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var local []span
	var units int
	record := func(s span) {
		mu.Lock()
		if units%sampleEvery == 0 {
			local = append(local, s)
		}
		units++
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+batch <= len(upd) && now() < deadline; i += batch {
			t0 := now()
			r.apply(upd[i : i+batch])
			t1 := now()
			t.apply.record((t1 - t0) / int64(batch))
			record(span{Name: r.name + ".apply_batch", Start: t0, End: t1})
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Alternate runs of predecessors and contains, each reader
			// taking every other run.
			for i := g * readRun; now() < deadline; i += 2 * readRun {
				ran := false
				if i+readRun <= len(preds) {
					t0 := now()
					for _, op := range preds[i : i+readRun] {
						r.pred(op.Key)
					}
					t1 := now()
					t.pred.record((t1 - t0) / readRun)
					record(span{Name: r.name + ".predecessor", Start: t0, End: t1, Conn: g + 1})
					ran = true
				}
				if r.contains != nil && i+readRun <= len(cont) {
					t0 := now()
					for _, op := range cont[i : i+readRun] {
						r.contains(op.Key)
					}
					t1 := now()
					t.contains.record((t1 - t0) / readRun)
					record(span{Name: r.name + ".contains", Start: t0, End: t1, Conn: g + 1})
					ran = true
				}
				if !ran {
					break
				}
			}
		}()
	}
	wg.Wait()
	parent := spans.add(span{Name: "ladder." + r.name, Start: start, End: now()})
	for _, s := range local {
		s.Parent = parent
		spans.add(s)
	}
	return &t
}
