package main

// --- SV1: the batched network front-end vs per-op service ----------------------

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	lockfreetrie "repro"
	"repro/internal/harness"
	"repro/internal/server"
	"repro/internal/workload"
)

// sv1Reps is the default repetition count (-sv1reps overrides); the
// median of per-repetition ratios is reported, run order rotated per
// repetition, for the same host-load-drift reasons as ad1.
const sv1Reps = 3

// sv1 fixed shape: enough connections to keep the batcher fed, the
// server's default window, a half-full 2^16 universe.
const (
	sv1Universe = int64(1 << 16)
	sv1Conns    = 8
	sv1Window   = 256
)

// sv1Side is one ingest mode's measurement: a closed-loop phase (each
// worker issues the next update when the previous returns) and an
// open-loop phase (Poisson arrivals at a rate shared by BOTH modes —
// 8× the faster mode's closed rate, firmly past saturation — so the
// achieved completion rate measures each server's capacity under an
// identical offered load; deriving each mode's rate from its own
// closed phase would hand the slower mode a lighter test). The margin
// is 8× because the closed rate is a serial per-round-trip measure
// while the pipelined servers complete several times that; the window
// bound keeps an over-offered client from unbounded queueing either
// way. Latency
// quantiles come from the server's own update histogram over the
// open-loop window, read through the interpolated obs Quantile — the
// p999 is a quarter-octave estimate, not a ≤2× bound.
type sv1Side struct {
	ClosedOpsPerSec    float64 `json:"closed_ops_per_sec"`
	OpenOfferedPerSec  float64 `json:"open_offered_per_sec"`
	OpenAchievedPerSec float64 `json:"open_achieved_per_sec"`
	P50Ns              int64   `json:"p50_ns"`
	P99Ns              int64   `json:"p99_ns"`
	P999Ns             int64   `json:"p999_ns"`
	Sweeps             int64   `json:"sweeps"`
	MeanBatch          float64 `json:"mean_batch"`
}

// sv1ProcPoint is one GOMAXPROCS setting's batched-vs-per-op pair.
type sv1ProcPoint struct {
	hostTopology
	Batched sv1Side `json:"batched"`
	PerOp   sv1Side `json:"per_op"`
	// Gates are medians of per-repetition back-to-back ratios
	// batched/per-op (run order rotated per rep). The acceptance gate is
	// the open-loop one ≥ 1.2 on the update-heavy mix: coalescing has to
	// buy at least 20% capacity to earn its queueing delay.
	GateOpenBatchedVsPerOp   float64 `json:"gate_open_batched_vs_per_op"`
	GateClosedBatchedVsPerOp float64 `json:"gate_closed_batched_vs_per_op"`
}

// sv1Report is the BENCH_sv1.json artifact. Top-level fields mirror the
// first swept P (the compat row).
type sv1Report struct {
	Experiment string         `json:"experiment"`
	Timestamp  string         `json:"timestamp"`
	GoMaxProcs int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Universe   int64          `json:"universe"`
	Conns      int            `json:"conns"`
	Window     int            `json:"window"`
	ClosedOps  int            `json:"closed_ops"`
	OpenDurMS  int64          `json:"open_duration_ms"`
	Reps       int            `json:"reps_median_of"`
	Mix        string         `json:"mix"`
	Batched    sv1Side        `json:"batched"`
	PerOp      sv1Side        `json:"per_op"`
	Points     []sv1ProcPoint `json:"proc_points"`

	GateOpenBatchedVsPerOp   float64 `json:"gate_open_batched_vs_per_op"`
	GateClosedBatchedVsPerOp float64 `json:"gate_closed_batched_vs_per_op"`
}

// expSV1: the server's request-coalescing claim, measured over real
// sockets. Two identical servers — one batching updates into shared
// ApplyBatch sweeps, one applying per-op on each connection's reader —
// each driven closed-loop (throughput when clients wait) and open-loop
// (Poisson arrivals past saturation: capacity and latency under load,
// the regime Malek's methodology report argues closed loops cannot
// measure). Update-heavy mix; both sides of a repetition run
// back-to-back with rotated order, and the gate is the median of
// per-rep ratios, like every other trajectory gate. Writes BENCH_sv1.json
// unless -sv1json is empty.
func expSV1(inv invocation) error {
	reps, jsonPath, dur := inv.serverReps, inv.serverPath, inv.serverDur
	if reps < 1 {
		reps = 1
	}
	closedOps := inv.ops
	if closedOps < 8000 {
		closedOps = 8000
	}
	procs, err := inv.procs()
	if err != nil {
		return err
	}
	fmt.Printf("== SV1: batched vs per-op server ingest (update-heavy, %d conns, open-loop %v) ==\n",
		sv1Conns, dur)
	report := sv1Report{
		Experiment: "sv1-server",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Universe:   sv1Universe,
		Conns:      sv1Conns,
		Window:     sv1Window,
		ClosedOps:  closedOps,
		OpenDurMS:  dur.Milliseconds(),
		Reps:       reps,
		Mix:        "update-heavy",
	}
	variants := []bool{true, false} // coalesce?
	if err := perP(procs, func(p int) error {
		pt := sv1ProcPoint{hostTopology: topologyAt(p)}
		samples := map[bool][]sv1Side{}
		var openRatios, closedRatios []float64
		for rep := 0; rep < reps; rep++ {
			repSides := map[bool]sv1Side{}
			// Phase A: closed loop, both modes back-to-back (rotated).
			for j := range variants {
				coalesce := variants[(rep+j)%len(variants)]
				closed, err := sv1Closed(coalesce, closedOps, inv.seed+int64(rep))
				if err != nil {
					return err
				}
				repSides[coalesce] = sv1Side{ClosedOpsPerSec: closed}
			}
			// Phase B: open loop at one shared offered rate — 8× the
			// FASTER mode's closed rate, so both modes saturate under
			// the same load.
			rate := 8 * repSides[true].ClosedOpsPerSec
			if r := 8 * repSides[false].ClosedOpsPerSec; r > rate {
				rate = r
			}
			for j := range variants {
				coalesce := variants[(rep+j)%len(variants)]
				side, err := sv1Open(coalesce, rate, dur, inv.seed+int64(rep))
				if err != nil {
					return err
				}
				side.ClosedOpsPerSec = repSides[coalesce].ClosedOpsPerSec
				repSides[coalesce] = side
				samples[coalesce] = append(samples[coalesce], side)
			}
			if t := repSides[false].OpenAchievedPerSec; t > 0 {
				openRatios = append(openRatios, repSides[true].OpenAchievedPerSec/t)
			}
			if t := repSides[false].ClosedOpsPerSec; t > 0 {
				closedRatios = append(closedRatios, repSides[true].ClosedOpsPerSec/t)
			}
		}
		medianSide := func(sides []sv1Side) sv1Side {
			var cl, of, ac, p50, p99, p999, sw, mb []float64
			for _, s := range sides {
				cl = append(cl, s.ClosedOpsPerSec)
				of = append(of, s.OpenOfferedPerSec)
				ac = append(ac, s.OpenAchievedPerSec)
				p50 = append(p50, float64(s.P50Ns))
				p99 = append(p99, float64(s.P99Ns))
				p999 = append(p999, float64(s.P999Ns))
				sw = append(sw, float64(s.Sweeps))
				mb = append(mb, s.MeanBatch)
			}
			return sv1Side{
				ClosedOpsPerSec: median(cl), OpenOfferedPerSec: median(of), OpenAchievedPerSec: median(ac),
				P50Ns: int64(median(p50)), P99Ns: int64(median(p99)), P999Ns: int64(median(p999)),
				Sweeps: int64(median(sw)), MeanBatch: median(mb),
			}
		}
		pt.Batched = medianSide(samples[true])
		pt.PerOp = medianSide(samples[false])
		pt.GateOpenBatchedVsPerOp = median(openRatios)
		pt.GateClosedBatchedVsPerOp = median(closedRatios)
		tab := harness.NewTable("ingest", "closed ops/s", "open achieved/s", "p50 µs", "p99 µs", "p999 µs", "mean batch")
		for _, side := range []struct {
			name string
			s    sv1Side
		}{{"batched", pt.Batched}, {"per-op", pt.PerOp}} {
			tab.AddRow(side.name, side.s.ClosedOpsPerSec, side.s.OpenAchievedPerSec,
				float64(side.s.P50Ns)/1e3, float64(side.s.P99Ns)/1e3, float64(side.s.P999Ns)/1e3,
				side.s.MeanBatch)
		}
		fmt.Println(tab)
		fmt.Printf("batched vs per-op, open-loop capacity (median of per-rep ratios): %.3f\n", pt.GateOpenBatchedVsPerOp)
		fmt.Printf("batched vs per-op, closed-loop throughput (median of per-rep ratios): %.3f\n\n", pt.GateClosedBatchedVsPerOp)
		report.Points = append(report.Points, pt)
		return nil
	}); err != nil {
		return err
	}
	report.GoMaxProcs = report.Points[0].GoMaxProcs
	report.NumCPU = report.Points[0].NumCPU
	report.Batched = report.Points[0].Batched
	report.PerOp = report.Points[0].PerOp
	report.GateOpenBatchedVsPerOp = report.Points[0].GateOpenBatchedVsPerOp
	report.GateClosedBatchedVsPerOp = report.Points[0].GateClosedBatchedVsPerOp
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", jsonPath)
	return nil
}

// sv1Session is one live server + client set: fresh half-full trie,
// real TCP listener, sv1Conns dialed clients. close tears it down by a
// graceful drain.
type sv1Session struct {
	srv     *server.Server
	clients []*server.Client
}

func sv1NewSession(coalesce bool) (*sv1Session, func(), error) {
	// Each phase builds (and abandons) a fully-populated trie; collect the
	// previous phase's garbage NOW so a phase's GC debt is its own, not a
	// tax on whichever phase happens to run after it — on small hosts that
	// carryover is big enough to bias the back-to-back ratios.
	runtime.GC()
	tr, err := lockfreetrie.New(sv1Universe)
	if err != nil {
		return nil, nil, err
	}
	for k := int64(0); k < sv1Universe; k += 2 {
		if err := tr.Insert(k); err != nil {
			return nil, nil, err
		}
	}
	srv := server.New(tr, server.Config{CoalesceUpdates: coalesce, Window: sv1Window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	s := &sv1Session{srv: srv, clients: make([]*server.Client, sv1Conns)}
	teardown := func() {
		for _, c := range s.clients {
			if c != nil {
				c.Close()
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}
	for i := range s.clients {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			teardown()
			return nil, nil, err
		}
		s.clients[i] = c
	}
	return s, teardown, nil
}

// sv1Closed measures one mode's closed-loop throughput: each connection
// issues its next update when the previous one returns — the system
// sets its own pace.
func sv1Closed(coalesce bool, closedOps int, seed int64) (float64, error) {
	s, teardown, err := sv1NewSession(coalesce)
	if err != nil {
		return 0, err
	}
	defer teardown()
	perWorker := closedOps / sv1Conns
	streams := make([][]workload.Op, sv1Conns)
	for w := range streams {
		gen, err := workload.NewGenerator(workload.MixUpdateOnly, workload.Uniform{U: sv1Universe}, seed+int64(w))
		if err != nil {
			return 0, err
		}
		streams[w] = gen.Fill(perWorker)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, sv1Conns)
	for w := 0; w < sv1Conns; w++ {
		wg.Add(1)
		go func(c *server.Client, ops []workload.Op) {
			defer wg.Done()
			<-start
			for _, op := range ops {
				var err error
				if op.Kind == workload.OpInsert {
					err = c.Insert(op.Key)
				} else {
					err = c.Delete(op.Key)
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(s.clients[w], streams[w])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	closedElapsed := time.Since(t0)
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(perWorker*sv1Conns) / closedElapsed.Seconds(), nil
}

// sv1Open measures one mode's open-loop capacity at the caller-fixed
// offered rate (Poisson arrivals fire on schedule regardless of
// service speed): completions/sec is the capacity, and the latency
// histogram shows queueing, not idling.
func sv1Open(coalesce bool, rate float64, dur time.Duration, seed int64) (sv1Side, error) {
	var side sv1Side
	s, teardown, err := sv1NewSession(coalesce)
	if err != nil {
		return side, err
	}
	defer teardown()
	pre := s.srv.MetricsSnapshot()
	res, err := harness.RunOpenLoop(harness.OpenLoopConfig{
		Workers:     sv1Conns,
		Duration:    dur,
		RatePerSec:  rate,
		Mix:         workload.MixUpdateOnly,
		Dist:        workload.Uniform{U: sv1Universe},
		Seed:        seed,
		MaxInFlight: sv1Window,
	}, func(worker int, op workload.Op, done func()) {
		s.clients[worker].UpdateAsync(op.Kind == workload.OpInsert, op.Key, func(error) { done() })
	})
	if err != nil {
		return side, err
	}
	post := s.srv.MetricsSnapshot()
	side.OpenOfferedPerSec = res.OfferedPerSec
	side.OpenAchievedPerSec = res.AchievedPerSec
	lat := post.Hists["server.latency.update_ns"].Delta(pre.Hists["server.latency.update_ns"])
	side.P50Ns = lat.Quantile(0.50)
	side.P99Ns = lat.Quantile(0.99)
	side.P999Ns = lat.Quantile(0.999)
	side.Sweeps = post.Counters["server.batch.sweeps"] - pre.Counters["server.batch.sweeps"]
	if side.Sweeps > 0 {
		batched := post.Counters["server.ops.update.batched"] - pre.Counters["server.ops.update.batched"]
		side.MeanBatch = float64(batched) / float64(side.Sweeps)
	}
	return side, nil
}
