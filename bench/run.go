package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// session is one served trie and the two connections driving it.
type session struct {
	p     *proc
	conns []*conn
}

func (ss *session) connect(models []model, n *counts) error {
	ss.conns = nil
	for i := 0; i < conns; i++ {
		c, err := dial(ss.p.addr, models[i], n)
		if err != nil {
			ss.hangUp()
			return err
		}
		ss.conns = append(ss.conns, c)
	}
	return nil
}

func (ss *session) hangUp() {
	for _, c := range ss.conns {
		c.close()
	}
	ss.conns = nil
}

// each runs fn once per connection, concurrently, and waits.
func (ss *session) each(fn func(i int, c *conn)) {
	var wg sync.WaitGroup
	for i, c := range ss.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// setup spawns a server, connects and prefills it over the wire. A
// durable workload then drains it with SIGTERM and restarts it on the
// same directory, so set-up includes recovery. It returns setup_s plus,
// for durable workloads, the recovery metrics.
func setup(s *spec, bin, dir string, keys []int64, models []model, n *counts) (*session, []metric, error) {
	t0 := now()
	p, err := startServer(bin, s, dir)
	if err != nil {
		return nil, nil, err
	}
	ss := &session{p: p}
	if err := ss.connect(models, n); err != nil {
		p.kill()
		return nil, nil, err
	}
	ss.each(func(i int, c *conn) { c.prefill(keys, i) })
	var rec []metric
	if s.durable {
		ss.hangUp()
		if err := p.stop(); err != nil {
			return nil, nil, err
		}
		t1 := now()
		if ss.p, err = startServer(bin, s, dir); err != nil {
			return nil, nil, err
		}
		recoverS := secs(now() - t1)
		if err := ss.connect(models, n); err != nil {
			ss.p.kill()
			return nil, nil, err
		}
		snap, err := ss.p.snapshot()
		if err != nil {
			ss.close()
			return nil, nil, err
		}
		rec = []metric{{"wal.recover_s", recoverS, "s"},
			{"wal.recovery_replayed_ops", float64(snap.Counters["wal.recovery.replayed_ops"]), "ops"}}
	}
	return ss, append([]metric{{"setup_s", secs(now() - t0), "s"}}, rec...), nil
}

// close hangs up and drains the server.
func (ss *session) close() error {
	ss.hangUp()
	return ss.p.stop()
}

// runWorkload runs one workload end to end and returns its metrics. An
// output mismatch is returned as a *mismatchError alongside the metrics.
func runWorkload(s *spec, seed int64, ph phases, traced bool, bin, out string, n *counts) ([]metric, error) {
	attempted0, failed0 := n.attempted.Load(), n.failed.Load()
	keys := s.prefill(seed)
	models := []model{newModel(s.u), newModel(s.u)}
	tmp := filepath.Join(out, "tmp")
	var ms []metric
	var setupS []float64
	var ss *session
	var dir string
	for i := 0; i < ph.setups; i++ {
		if s.durable {
			dir = filepath.Join(tmp, fmt.Sprintf("%s-%d", s.name, i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		sess, sm, err := setup(s, bin, dir, keys, models, n)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, sm[0].Value)
		if i < ph.setups-1 {
			sess.hangUp()
			sess.p.kill()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		ss, ms = sess, sm[1:]
	}
	ms = append(ms, metric{"setup_s", median(setupS), "s"})
	if !s.durable {
		ms = append(ms, metric{"wal.recovery_replayed_ops", 0, "ops"})
	}
	stopped := false
	defer func() {
		if !stopped {
			ss.hangUp()
			ss.p.kill()
		}
		_ = os.RemoveAll(tmp) // temporary WAL directories only
	}()

	streams := []*stream{newStream(s, seed, 0), newStream(s, seed, 1)}
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	var lp *loadPoint
	var lm []metric
	for attempt := 0; ; attempt++ {
		var err error
		lp, lm, err = ss.loadPoint(s, streams, seed+int64(attempt)*1_000_003, ph, spans)
		if err != nil {
			return nil, err
		}
		reason := lp.invalid()
		if reason == "" {
			break
		}
		if attempt == 1 {
			return nil, fmt.Errorf("load point invalid twice: %s", reason)
		}
		fmt.Printf("%s load point invalid (%s); measuring it again\n", s.name, reason)
		if spans != nil {
			spans.reset()
		}
	}
	ms = append(ms, lm...)
	batchMean := 1.0
	for _, m := range lm {
		if m.Name == "server.batch_mean" {
			batchMean = m.Value
		}
	}
	if ph.capWins > 0 {
		ms = append(ms, metric{"capacity_ops_s", ss.capacity(streams, ph), "ops/s"})
	}
	for _, c := range ss.conns {
		c.quiesce()
	}
	checkErr := check(ss, s.u, seed, n)
	rss, err := ss.p.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	ms = append(ms, metric{"rss_mb", rss, "MiB"})
	stopped = true
	if err := ss.close(); err != nil {
		return nil, err
	}
	failed := n.failed.Load() - failed0
	ms = append(ms, metric{"failed_frac", float64(failed) / float64(n.attempted.Load()-attempted0), "ratio"})
	if traced {
		lad, err := ladder(s, seed, batchMean, ph.rung, filepath.Join(tmp, s.name+"-ladder-wal"), spans)
		if err != nil {
			return nil, err
		}
		ms = append(ms, lad...)
		if err := spans.write(filepath.Join(out, "trace-"+s.name+".json"), s.name); err != nil {
			return nil, err
		}
	}
	return ms, checkErr
}

// loadPoint is one fixed-rate open-loop measurement. Latencies run from
// each request's intended send time to its response. They are kept per
// window so that a traced run can compare its traced windows with the
// untraced ones between them.
type loadPoint struct {
	start, end, win int64
	upd, rd         []*hist
	late            []*hist // generator lateness: queued minus intended time
	offered         atomic.Int64
	completed       atomic.Int64 // responses that arrived before end
	spans           *spanLog     // nil: untraced
}

func newLoadPoint(ph phases, spans *spanLog) *loadPoint {
	nwin := int((ph.load + ph.window - 1) / ph.window)
	lp := &loadPoint{win: int64(ph.window), spans: spans}
	for i := 0; i < nwin; i++ {
		lp.upd = append(lp.upd, &hist{})
		lp.rd = append(lp.rd, &hist{})
		lp.late = append(lp.late, &hist{})
	}
	lp.start = now() + int64(10*time.Millisecond)
	lp.end = lp.start + int64(ph.load)
	return lp
}

// traced reports whether window w records spans: traced runs alternate
// traced and untraced windows, so trace_overhead compares like with like.
func (lp *loadPoint) traced(w int) bool { return lp.spans != nil && w%2 == 1 }

// sampleEvery is the traced request sampling rate.
const sampleEvery = 16

// send issues one arrival on connection c (numbered id) and records its
// latency when the response arrives.
func (lp *loadPoint) send(c *conn, id int) func(arrival) {
	return func(a arrival) {
		w := int((a.intended - lp.start) / lp.win)
		upd := isUpdate(a.op.Kind)
		sampled := lp.traced(w) && a.seq%sampleEvery == 0
		lp.late[w].record(a.queued - a.intended)
		lp.offered.Add(1)
		c.issue(a.op, func(issued, t int64, err error) {
			if err != nil {
				return
			}
			if t < lp.end {
				lp.completed.Add(1)
			}
			h := lp.rd[w]
			if upd {
				h = lp.upd[w]
			}
			h.record(t - a.intended)
			if sampled {
				lp.spans.request(id, upd, a.intended, issued, t)
			}
		})
	}
}

// invalid names why the load point cannot be used, or returns "". The
// lateness test takes the median over windows of each window's p99, so
// it fails a generator that cannot keep the schedule, not one that a
// server GC cycle held up for a few milliseconds.
func (lp *loadPoint) invalid() string {
	if r := float64(lp.completed.Load()) / float64(lp.offered.Load()); r < 0.99 {
		return fmt.Sprintf("achieved %.4f of the offered rate: a growing backlog", r)
	}
	var p99s []float64
	for _, h := range lp.late {
		if h.count() > 0 {
			p99s = append(p99s, h.quantile(0.99))
		}
	}
	if p99 := median(p99s); p99 > 2e6 {
		return fmt.Sprintf("generator p99 lateness %.0f us is over 2 ms in most windows", p99/1e3)
	}
	return ""
}

// merged folds the selected windows' histograms into one.
func merged(hs []*hist, selected func(int) bool) *hist {
	var m hist
	for i, h := range hs {
		if selected(i) {
			m.merge(h)
		}
	}
	return &m
}

func (ss *session) loadPoint(s *spec, streams []*stream, seed int64, ph phases, spans *spanLog) (*loadPoint, []metric, error) {
	snap0, err := ss.p.snapshot()
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := ss.p.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPUSeconds()
	lp := newLoadPoint(ph, spans)
	errs := make([]error, conns)
	ss.each(func(i int, c *conn) {
		errs[i] = openLoop(streams[i], rate/conns, seed*conns+int64(i), lp.start, lp.end, lp.send(c, i))
		c.quiesce()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	cpu1, err := ss.p.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	self1 := selfCPUSeconds()
	snap1, err := ss.p.snapshot()
	if err != nil {
		return nil, nil, err
	}

	all := func(int) bool { return true }
	ops := float64(lp.offered.Load())
	wall := secs(lp.end - lp.start)
	mu, mr, ml := merged(lp.upd, all), merged(lp.rd, all), merged(lp.late, all)
	ms := []metric{
		{"update_p50_us", mu.quantile(0.5) / 1e3, "us"},
		{"update_p99_us", mu.quantile(0.99) / 1e3, "us"},
		{"update_p999_us", mu.quantile(0.999) / 1e3, "us"},
		{"update_samples", float64(mu.count()), "requests"},
		{"read_p50_us", mr.quantile(0.5) / 1e3, "us"},
		{"read_p99_us", mr.quantile(0.99) / 1e3, "us"},
		{"read_p999_us", mr.quantile(0.999) / 1e3, "us"},
		{"read_samples", float64(mr.count()), "requests"},
		{"cpu_us_per_op", (cpu1 - cpu0) * 1e6 / ops, "us"},
		{"bench.gen_late_p50_us", ml.quantile(0.5) / 1e3, "us"},
		{"bench.gen_late_p99_us", ml.quantile(0.99) / 1e3, "us"},
		{"bench.achieved_over_offered", float64(lp.completed.Load()) / ops, "ratio"},
		{"client.bench_cpu_us_per_op", (self1 - self0) * 1e6 / ops, "us"},
		{"server.cpu_util", (cpu1 - cpu0) / wall, "cpus"},
	}
	if spans != nil {
		on := merged(lp.upd, lp.traced)
		off := merged(lp.upd, func(w int) bool { return !lp.traced(w) })
		ms = append(ms,
			metric{"bench.trace_overhead", on.quantile(0.5) / off.quantile(0.5), "ratio"},
			metric{"client.update_call_p50_us", spans.medianUs("client.update"), "us"},
			metric{"client.read_call_p50_us", spans.medianUs("client.read"), "us"})
	}
	layer, err := serverLayers(snap1.Delta(snap0))
	if err != nil {
		return nil, nil, err
	}
	return lp, append(ms, layer...), nil
}

// serverLayers derives the per-layer metrics of the server's /snapshot
// over the load point. Per-op ratios divide by the ops the server
// answered; the wal.* ratios by the ops it logged.
func serverLayers(d obs.Snapshot) ([]metric, error) {
	var missing []string
	counter := func(name string) float64 {
		v, ok := d.Counters[name]
		if !ok {
			missing = append(missing, name)
		}
		return float64(v)
	}
	histogram := func(name string) obs.HistSnapshot {
		h, ok := d.Hists[name]
		if !ok {
			missing = append(missing, name)
		}
		return h
	}
	ops := counter("server.ops.read") + counter("server.ops.update.batched")
	ms := []metric{
		{"server.update_p50_us", float64(histogram("server.latency.update_ns").Quantile(0.5)) / 1e3, "us"},
		{"server.read_p50_us", float64(histogram("server.latency.read_ns").Quantile(0.5)) / 1e3, "us"},
		{"server.batch_mean", histogram("server.batch_size").Mean(), "ops"},
		{"server.sweeps_per_kop", counter("server.batch.sweeps") * 1e3 / ops, "1/kop"},
		{"core.announces_per_op", counter("core.announces") / ops, "1/op"},
		{"core.uall_steps_per_op", counter("core.uall_traversal_steps") / ops, "1/op"},
		{"core.notifications_per_op", counter("core.notifications") / ops, "1/op"},
		{"core.help_activations_per_op", counter("core.help_activations") / ops, "1/op"},
		{"core.ruall_steps_per_op", counter("core.ruall_traversal_steps") / ops, "1/op"},
		{"core.bottom_cases_per_op", counter("core.bottom_cases") / ops, "1/op"},
		{"ebr.epochs_per_kop", counter("ebr.epoch") * 1e3 / ops, "1/kop"},
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("/snapshot lacks %v", missing)
	}
	// The wal.* metrics exist only on a durable server; elsewhere the log
	// does no work and its counts read 0.
	logged := float64(d.Counters["wal.append.ops"])
	var perKop, perOp, perRecord float64
	if logged > 0 {
		perKop = float64(d.Counters["wal.fsyncs"]) * 1e3 / logged
		perOp = float64(d.Counters["wal.append.bytes"]) / logged
		perRecord = logged / float64(d.Counters["wal.append.records"])
		ms = append(ms, metric{"wal.fsync_p50_us", float64(d.Hists["wal.fsync_ns"].Quantile(0.5)) / 1e3, "us"})
	}
	return append(ms,
		metric{"wal.fsyncs_per_kop", perKop, "1/kop"},
		metric{"wal.bytes_per_op", perOp, "B/op"},
		metric{"wal.ops_per_record", perRecord, "ops"}), nil
}

// capacity keeps every window full: a warm-up, then capWins windows; the
// result is the median completion rate.
func (ss *session) capacity(streams []*stream, ph phases) float64 {
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ss.each(func(i int, c *conn) { c.closedLoop(streams[i], &stop, &done) })
	}()
	defer wg.Wait()
	defer stop.Store(true)
	time.Sleep(ph.warmup)
	var rates []float64
	for w := 0; w < ph.capWins; w++ {
		t0, n0 := now(), done.Load()
		time.Sleep(ph.capWin)
		rates = append(rates, float64(done.Load()-n0)/secs(now()-t0))
	}
	return median(rates)
}
