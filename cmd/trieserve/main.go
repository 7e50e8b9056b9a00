// Command trieserve is predecessor-as-a-service: it owns one lock-free
// binary trie and serves it over a length-prefixed TCP binary protocol
// (internal/server), one goroutine per connection. Each connection's
// consecutive Insert/Delete requests are coalesced into one
// Trie.ApplyBatch sweep, shared with the runs other connections queue
// while the sweep before it runs. Contains/Predecessor/Successor take the
// direct lock-free path and Range streams in bounded chunks; a
// connection's requests take effect in the order it sent them.
//
// Usage:
//
//	trieserve -addr :7171 -metrics :7172 -u 1048576
//
// The metrics address serves the shared observability surface (expvar
// JSON at /debug/vars, Prometheus text at /metrics, the typed schema at
// /snapshot) with the server's own metrics (server.* counters, batch
// size and latency histograms) merged over the trie's; cmd/triestat
// attaches to it directly.
//
// SIGINT/SIGTERM trigger a graceful drain: accepts stop, in-flight
// requests complete and flush, then the process exits; a second signal
// (or -draintimeout) force-closes.
//
// -shards fixes the facade's shard count. -perop disables request
// coalescing (the sv1 baseline).
//
// -data enables durability: updates append to a per-shard write-ahead
// log under that directory before they apply, and a restart recovers
// the set from the latest snapshot plus log replay (a recovery line is
// printed on start). -fsync/-fsyncinterval pick the sync policy,
// -walshards/-segbytes/-snapbytes the log geometry; POST /wal/snapshot
// on the metrics address forces a checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	lockfreetrie "repro"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":7171", "TCP listen address for the wire protocol")
		metrics = flag.String("metrics", "", "HTTP listen address for /debug/vars, /metrics, /snapshot (empty disables)")
		u       = flag.Int64("u", 1<<20, "key universe size")

		shards = flag.Int("shards", 0, "fixed shard count (0 = unsharded)")

		perop        = flag.Bool("perop", false, "apply each update per-op instead of coalescing into ApplyBatch sweeps")
		window       = flag.Int("window", server.DefaultWindow, "most requests a connection holds decoded but unanswered (caps one connection's run)")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "graceful drain deadline before force-close")

		data     = flag.String("data", "", "durability directory: WAL + snapshots, recovered on start (empty = in-memory only)")
		fsync    = flag.Int("fsync", 0, "fsync the WAL every n logged ops (0 = library default of 1; needs -data)")
		fsyncInt = flag.Duration("fsyncinterval", 0, "also fsync the WAL at this interval (0 disables; needs -data)")
		walsh    = flag.Int("walshards", 0, "WAL stripe count, power of two (0 = library default; needs -data)")
		segbytes = flag.Int64("segbytes", 0, "WAL segment rotation size in bytes (0 = library default; needs -data)")
		snpbytes = flag.Int64("snapbytes", 0, "bytes logged between automatic snapshots (0 = library default, <0 disables; needs -data)")
	)
	flag.Parse()
	dur := durFlags{dir: *data, fsync: *fsync, fsyncInt: *fsyncInt,
		shards: *walsh, segBytes: *segbytes, snapBytes: *snpbytes}
	if err := run(*addr, *metrics, *u, *shards, !*perop, *window, *drainTimeout, dur); err != nil {
		fmt.Fprintln(os.Stderr, "trieserve:", err)
		os.Exit(1)
	}
}

// durFlags collects the -data flag family into one durability option.
type durFlags struct {
	dir       string
	fsync     int
	fsyncInt  time.Duration
	shards    int
	segBytes  int64
	snapBytes int64
}

func (d durFlags) option() (lockfreetrie.Option, error) {
	if d.dir == "" {
		if d.fsync != 0 || d.fsyncInt != 0 || d.shards != 0 || d.segBytes != 0 || d.snapBytes != 0 {
			return nil, fmt.Errorf("-fsync/-fsyncinterval/-walshards/-segbytes/-snapbytes need -data")
		}
		return nil, nil
	}
	var opts []lockfreetrie.DurabilityOption
	if d.fsync != 0 {
		opts = append(opts, lockfreetrie.WithSyncEvery(d.fsync))
	}
	if d.fsyncInt != 0 {
		opts = append(opts, lockfreetrie.WithSyncInterval(d.fsyncInt))
	}
	if d.shards != 0 {
		opts = append(opts, lockfreetrie.WithWALShards(d.shards))
	}
	if d.segBytes != 0 {
		opts = append(opts, lockfreetrie.WithSegmentBytes(d.segBytes))
	}
	if d.snapBytes != 0 {
		opts = append(opts, lockfreetrie.WithSnapshotBytes(d.snapBytes))
	}
	return lockfreetrie.WithDurability(d.dir, opts...), nil
}

func run(addr, metrics string, u int64, shards int, coalesce bool, window int, drainTimeout time.Duration, dur durFlags) error {
	var opts []lockfreetrie.Option
	if shards > 0 {
		opts = append(opts, lockfreetrie.WithShards(shards))
	}
	dopt, err := dur.option()
	if err != nil {
		return err
	}
	if dopt != nil {
		opts = append(opts, dopt)
	}
	tr, err := lockfreetrie.New(u, opts...)
	if err != nil {
		return err
	}
	if tr.Durable() {
		rs := tr.RecoveryStats()
		fmt.Printf("trieserve: recovered %d keys from %s (%d snapshot keys + %d replayed ops in %d records, torn tail: %v)\n",
			rs.Keys, dur.dir, rs.SnapshotKeys, rs.ReplayedOps, rs.ReplayedRecords, rs.TornTail)
	}
	srv := server.New(tr, server.Config{
		CoalesceUpdates: coalesce,
		Window:          window,
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mode := "coalescing"
	if !coalesce {
		mode = "per-op"
	}
	fmt.Printf("trieserve: serving u=%d (%s ingest, window %d) on %s\n", u, mode, window, ln.Addr())

	if metrics != "" {
		mln, err := net.Listen("tcp", metrics)
		if err != nil {
			return err
		}
		fmt.Printf("trieserve: metrics on http://%s/{debug/vars,metrics,snapshot}\n", mln.Addr())
		mux := export.NewMux(func() obs.Snapshot { return srv.MetricsSnapshot() })
		if tr.Durable() {
			// POST /wal/snapshot forces a consistent WAL checkpoint — the
			// deterministic hook the crash-recovery e2e uses to guarantee
			// both a snapshot and a post-snapshot log tail exist.
			mux.HandleFunc("/wal/snapshot", func(w http.ResponseWriter, req *http.Request) {
				if err := tr.SnapshotWAL(); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				fmt.Fprintln(w, "ok")
			})
		}
		go func() {
			_ = http.Serve(mln, mux)
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		fmt.Printf("trieserve: %v — draining (deadline %v)\n", s, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		go func() {
			<-sig
			cancel() // second signal: force-close now
		}()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain aborted: %w", err)
		}
		if err := <-serveErr; err != nil {
			return err
		}
		// Flush and close the WAL only after the drain: every acknowledged
		// update is on disk before the process exits.
		if err := tr.Close(); err != nil {
			return fmt.Errorf("closing trie: %w", err)
		}
		fmt.Println("trieserve: drained cleanly")
		return nil
	}
}
