package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	lockfreetrie "repro"
)

// startServer launches a server over a fresh trie and returns it with
// its address and a cleanup that asserts a clean drain.
func startServer(t *testing.T, universe int64, cfg Config) (*Server, string) {
	t.Helper()
	tr, err := lockfreetrie.New(universe)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tr, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

// TestServerOps: the full op surface over a real socket, both ingest
// modes.
func TestServerOps(t *testing.T) {
	for _, coalesce := range []bool{true, false} {
		name := "perop"
		if coalesce {
			name = "coalesce"
		}
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, 1<<16, Config{CoalesceUpdates: coalesce})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, k := range []int64{5, 100, 7000} {
				if err := c.Insert(k); err != nil {
					t.Fatalf("insert %d: %v", k, err)
				}
			}
			if err := c.Delete(100); err != nil {
				t.Fatal(err)
			}
			if in, err := c.Contains(5); err != nil || !in {
				t.Fatalf("contains 5 = %v, %v", in, err)
			}
			if in, err := c.Contains(100); err != nil || in {
				t.Fatalf("contains 100 = %v, %v", in, err)
			}
			if p, err := c.Predecessor(7000); err != nil || p != 5 {
				t.Fatalf("pred 7000 = %d, %v", p, err)
			}
			if s, err := c.Successor(5); err != nil || s != 7000 {
				t.Fatalf("succ 5 = %d, %v", s, err)
			}
			if p, err := c.Predecessor(5); err != nil || p != -1 {
				t.Fatalf("pred 5 = %d, %v", p, err)
			}
			var got []int64
			if err := c.Range(0, 1<<16-1, func(k int64) bool {
				got = append(got, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0] != 7000 || got[1] != 5 {
				t.Fatalf("range = %v, want [7000 5]", got)
			}
		})
	}
}

// TestServerRemoteErrors: out-of-universe keys come back as RemoteError
// with the facade's message, and the connection stays usable.
func TestServerRemoteErrors(t *testing.T) {
	_, addr := startServer(t, 1<<10, Config{CoalesceUpdates: true})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	if err := c.Insert(1 << 20); !errors.As(err, &re) {
		t.Fatalf("out-of-universe insert: %v, want RemoteError", err)
	}
	if _, err := c.Predecessor(-1); !errors.As(err, &re) {
		t.Fatalf("negative predecessor: %v, want RemoteError", err)
	}
	if err := c.Insert(17); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
	if in, err := c.Contains(17); err != nil || !in {
		t.Fatalf("contains 17 = %v, %v", in, err)
	}
}

// TestServerCoalesces: concurrent pipelined updates from several
// connections land in shared ApplyBatch sweeps — fewer sweeps than ops,
// with the batch-size histogram recording multi-op batches.
func TestServerCoalesces(t *testing.T) {
	srv, addr := startServer(t, 1<<20, Config{CoalesceUpdates: true, Window: 64})
	const conns, perConn = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			var inner sync.WaitGroup
			for j := 0; j < perConn; j++ {
				inner.Add(1)
				c.UpdateAsync(true, base+int64(j), func(err error) {
					if err != nil {
						t.Error(err)
					}
					inner.Done()
				})
			}
			inner.Wait()
		}(int64(i) * perConn)
	}
	wg.Wait()
	snap := srv.MetricsSnapshot()
	total := snap.Counters["server.ops.update.batched"]
	sweeps := snap.Counters["server.batch.sweeps"]
	if total != conns*perConn {
		t.Fatalf("batched ops = %d, want %d", total, conns*perConn)
	}
	if sweeps == 0 || sweeps >= total {
		t.Fatalf("sweeps = %d for %d ops — no coalescing happened", sweeps, total)
	}
	if h := snap.Hists["server.batch_size"]; h.Count != sweeps || h.Sum != total {
		t.Fatalf("batch_size hist count/sum = %d/%d, want %d/%d", h.Count, h.Sum, sweeps, total)
	}
	// The batched ops must actually be in the trie.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if in, err := c.Contains(conns*perConn - 1); err != nil || !in {
		t.Fatalf("contains last key = %v, %v", in, err)
	}
}

// TestServerRangeChunks: a range spanning more than one chunk frame
// streams completely and in order.
func TestServerRangeChunks(t *testing.T) {
	_, addr := startServer(t, 1<<18, Config{CoalesceUpdates: true})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 3000 // ≈3 chunks at 1024 keys each
	var wg sync.WaitGroup
	for k := int64(0); k < n; k++ {
		wg.Add(1)
		c.UpdateAsync(true, k, func(err error) {
			if err != nil {
				t.Error(err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	prev := int64(n)
	count := 0
	if err := c.Range(0, 1<<18-1, func(k int64) bool {
		if k >= prev {
			t.Fatalf("range out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("range streamed %d keys, want %d", count, n)
	}
}

// TestServerGracefulDrain: a shutdown issued while pipelined updates are
// in flight still answers every one of them before the sockets close.
func TestServerGracefulDrain(t *testing.T) {
	tr, err := lockfreetrie.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	s := New(tr, Config{CoalesceUpdates: true, Window: 128})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 1000
	results := make(chan error, n)
	for k := int64(0); k < n; k++ {
		c.UpdateAsync(true, k, func(err error) { results <- err })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Every in-flight update was either answered (nil error) or the
	// client saw the close — but nothing may hang.
	for i := 0; i < n; i++ {
		select {
		case <-results:
		case <-time.After(5 * time.Second):
			t.Fatalf("update %d never resolved after drain", i)
		}
	}
	// New connections are refused.
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerProtocolErrorClosesConn: garbage on one connection kills
// that connection only; the server keeps serving others.
func TestServerProtocolErrorClosesConn(t *testing.T) {
	srv, addr := startServer(t, 1<<10, Config{CoalesceUpdates: true})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A 17-byte frame with an unknown opcode.
	frame := append([]byte{0, 0, 0, 17, 0xAB}, make([]byte, 16)...)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server should hang up on us.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after a protocol error")
	}
	raw.Close()
	// And still serve a well-behaved client.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(9); err != nil {
		t.Fatal(err)
	}
	if srv.MetricsSnapshot().Counters["server.errors.protocol"] == 0 {
		t.Fatal("protocol error not counted")
	}
}

// TestServerGroupCommit: the runs that queue while a sweep is running
// share the next sweep, one ApplyBatch for all of them (so one WAL fsync
// on a durable trie), and each connection still gets its own responses.
func TestServerGroupCommit(t *testing.T) {
	srv, addr := startServer(t, 1<<16, Config{CoalesceUpdates: true})
	// Stand in for a sweep in progress, so every client's run queues.
	srv.sweepMu.Lock()
	srv.sweeping = true
	srv.sweepMu.Unlock()
	const conns = 8
	errc := make(chan error, conns)
	for i := int64(0); i < conns; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() { errc <- c.Insert(i) }()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.sweepMu.Lock()
		queued := len(srv.runq)
		srv.sweepMu.Unlock()
		if queued == conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d runs queued", queued, conns)
		}
	}
	srv.sweepMu.Lock()
	srv.sweeping = false
	srv.sweepDone.Broadcast()
	srv.sweepMu.Unlock()
	for i := 0; i < conns; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if sweeps := srv.MetricsSnapshot().Counters["server.batch.sweeps"]; sweeps != 1 {
		t.Fatalf("sweeps = %d for %d queued runs, want 1", sweeps, conns)
	}
	for k := int64(0); k < conns; k++ {
		if in, err := srv.trie.Contains(k); err != nil || !in {
			t.Fatalf("contains %d = %v, %v", k, in, err)
		}
	}
}

// TestServerConnOrder: a connection's requests take effect in send order,
// so a read issued right behind an unanswered update sees it.
func TestServerConnOrder(t *testing.T) {
	for _, coalesce := range []bool{true, false} {
		name := "perop"
		if coalesce {
			name = "coalesce"
		}
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, 1<<16, Config{CoalesceUpdates: coalesce})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for k := int64(0); k < 1000; k++ {
				wg.Add(1)
				c.UpdateAsync(true, k, func(err error) {
					if err != nil {
						t.Error(err)
					}
					wg.Done()
				})
				if in, err := c.Contains(k); err != nil || !in {
					t.Fatalf("contains %d right after its insert = %v, %v", k, in, err)
				}
			}
			wg.Wait()
		})
	}
}

// TestServerWedgedPeer: a peer that streams updates and never reads its
// responses stalls only its own connection. Another client's updates
// keep completing, and a Shutdown whose deadline expires force-closes
// the wedged socket instead of hanging.
func TestServerWedgedPeer(t *testing.T) {
	tr, err := lockfreetrie.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(tr, Config{CoalesceUpdates: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(smallSendBuf{ln}) }()
	// Stops the server if the test fails before its own Shutdown.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	addr := ln.Addr().String()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	// The writer streams for the whole test. A write that stalls means the
	// server has stopped reading this socket, because it is blocked
	// writing responses nobody reads; the writer then keeps pushing, so
	// the server stays blocked.
	wedged := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var burst []byte
		for id := uint64(1); ; {
			burst = burst[:0]
			for i := 0; i < 256; i++ {
				burst = encodeRequest(burst, request{op: opInsert, id: id, key: int64(id % (1 << 16))})
				id++
			}
			for rest := burst; len(rest) > 0; {
				raw.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
				n, err := raw.Write(rest)
				rest = rest[n:]
				var ne net.Error
				switch {
				case err == nil:
				case errors.As(err, &ne) && ne.Timeout():
					select {
					case <-wedged:
					default:
						close(wedged)
					}
				default:
					return
				}
			}
		}
	}()
	select {
	case <-wedged:
	case <-writerDone:
		t.Fatal("raw writer failed before the server stopped reading it")
	case <-time.After(30 * time.Second):
		t.Fatal("server kept reading a peer that never reads")
	}

	c, err := Dial(addr, WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := int64(0); k < 100; k++ {
		if err := c.Insert(k); err != nil {
			t.Fatalf("insert %d beside a wedged peer: %v", k, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	select {
	case err := <-shut:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown = %v, want the deadline to force-close the wedged peer", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on a wedged peer")
	}
	raw.Close()
	<-writerDone
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// smallSendBuf shrinks each accepted socket's send buffer, so a peer
// that never reads wedges its connection after a few KiB of responses
// instead of after the kernel's autotuned megabytes.
type smallSendBuf struct{ net.Listener }

func (l smallSendBuf) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if err := nc.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		nc.Close()
		return nil, err
	}
	return nc, nil
}
