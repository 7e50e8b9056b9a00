package server

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	lockfreetrie "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config tunes one Server.
type Config struct {
	// CoalesceUpdates applies each run of consecutive Insert/Delete
	// requests on a connection in one Trie.ApplyBatch sweep, shared with
	// the runs other connections queue while the sweep before it runs.
	// False applies each update on its own as it is decoded (the per-op
	// baseline sv1 measures against).
	CoalesceUpdates bool
	// Window is the most requests a connection holds decoded but
	// unanswered: a run of updates that reaches it is applied and
	// answered before the next request is decoded. 0 means
	// DefaultWindow.
	Window int
}

// DefaultWindow is the Window used when Config.Window is 0.
const DefaultWindow = 256

// Server owns a Trie and serves the wire protocol over TCP, with one
// goroutine per connection and no other: those goroutines take turns
// applying every connection's queued updates (see sweep).
type Server struct {
	trie *lockfreetrie.Trie
	cfg  Config
	reg  *obs.Registry

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool

	// Sweeps run one at a time, server-wide: the durable facade logs a
	// batch and then applies it, so two sweeps running at once could log
	// same-key updates in one order and apply them in the other. A
	// connection queues its run on runq; if no sweep is running it runs
	// one itself, over every queued run, and otherwise it waits on
	// sweepDone. So the runs that queue while a sweep waits on the WAL's
	// fsync share the next sweep and its one fsync (group commit). sweepMu
	// guards runq, sweeping and each conn's swept and errs, and is never
	// held across ApplyBatch or a socket read or write: a peer that stops
	// reading stalls only its own connection.
	sweepMu   sync.Mutex
	sweepDone *sync.Cond // on sweepMu, broadcast when a sweep ends
	sweeping  bool
	runq      []*conn
	// spare and sweepOps are reusable buffers owned by the running
	// sweep: runq's other half, and the merged ops of a sweep that holds
	// more than one run.
	spare    []*conn
	sweepOps []lockfreetrie.Op

	readerWG sync.WaitGroup
	active   atomic.Int64

	mAccepted, mReads, mUpdatesBatched, mUpdatesPerOp *obs.Counter
	mSweeps, mErrProto, mErrOp                        *obs.Counter
	hBatch, hUpdateNs, hReadNs                        *obs.Histogram
}

// New builds a Server over an existing trie. The caller keeps ownership
// of the trie (and may keep using it in-process); the server only adds
// the network front-end.
func New(trie *lockfreetrie.Trie, cfg Config) *Server {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	s := &Server{
		trie:  trie,
		cfg:   cfg,
		reg:   obs.NewRegistry(),
		conns: map[*conn]struct{}{},
	}
	s.sweepDone = sync.NewCond(&s.sweepMu)
	s.mAccepted = s.reg.Counter("server.conns.accepted")
	s.mReads = s.reg.Counter("server.ops.read")
	s.mUpdatesBatched = s.reg.Counter("server.ops.update.batched")
	s.mUpdatesPerOp = s.reg.Counter("server.ops.update.perop")
	s.mSweeps = s.reg.Counter("server.batch.sweeps")
	s.mErrProto = s.reg.Counter("server.errors.protocol")
	s.mErrOp = s.reg.Counter("server.errors.op")
	s.hBatch = s.reg.Histogram("server.batch_size")
	s.hUpdateNs = s.reg.Histogram("server.latency.update_ns")
	s.hReadNs = s.reg.Histogram("server.latency.read_ns")
	s.reg.Gauge("server.conns.active", s.active.Load)
	return s
}

// MetricsSnapshot merges the server's own metrics with the embedded
// trie's into one exposition-ready snapshot (the obs.Snapshot.Merge
// multi-registry path).
func (s *Server) MetricsSnapshot() obs.Snapshot {
	return s.reg.Snapshot().Merge(s.trie.MetricsSnapshot())
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// Shutdown-initiated close, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.startConn(nc)
	}
}

// startConn registers and launches one connection's goroutine.
func (s *Server) startConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, bw: bufio.NewWriterSize(nc, 32<<10)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	// Added under mu, so a Shutdown that sees this conn also waits for it.
	s.readerWG.Add(1)
	s.mu.Unlock()
	s.mAccepted.Inc(0)
	s.active.Add(1)
	go c.readLoop()
}

// Shutdown drains gracefully: stop accepting, unblock every connection's
// pending Read, let each answer what it has decoded and flush, then
// close the sockets. If ctx expires first, the sockets are force-closed,
// which also fails any write blocked on a peer that stopped reading, and
// Shutdown returns once every connection goroutine has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		// A refused deadline (socket already dead, or a net.Conn that
		// doesn't support deadlines) would leave the Read blocked forever;
		// closing the socket unblocks it too, at the cost of the flush.
		if err := c.nc.SetReadDeadline(time.Now()); err != nil {
			c.close()
		}
	}
	done := make(chan struct{})
	go func() {
		s.readerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, c := range conns {
			c.close()
		}
		<-done
		return ctx.Err()
	}
}

// conn is one client connection, served entirely by readLoop.
type conn struct {
	srv *Server
	nc  net.Conn
	// bw holds this connection's responses until the loop is about to
	// block in Read (or bw fills). A write error is sticky in bw, so the
	// replies ignore it and the next Flush reports it.
	bw *bufio.Writer
	// ops and ids are the run: decoded updates not yet applied, and the
	// request ids to answer them under.
	ops []lockfreetrie.Op
	ids []uint64
	// swept and errs are set under sweepMu by the sweep that applied the
	// run: errs holds the run's per-op errors, nil if there were none.
	swept     bool
	errs      []error
	closeOnce sync.Once // guards nc.Close across readLoop exit and Shutdown
}

// close closes the socket exactly once.
func (c *conn) close() {
	c.closeOnce.Do(func() { c.nc.Close() })
}

// readLoop serves the connection until the client hangs up, the stream
// corrupts, a write fails, or Shutdown unblocks the pending Read. It
// decodes the requests of each socket read in order: updates join the
// run, and every other request first applies the run, so a connection's
// requests take effect in send order. The run is also applied when the
// read buffer empties or holds Window updates. Every response goes into
// bw, flushed once before the loop blocks in the next Read.
func (c *conn) readLoop() {
	s := c.srv
	defer s.readerWG.Done()
	br := bufio.NewReaderSize(c.nc, 32<<10)
	buf := make([]byte, 0, maxRequestFrame)
	// One arrival stamp per socket read, not per request: every frame
	// decoded out of one buffered read was already in the kernel buffer at
	// that read, so the shared stamp IS their arrival time. A run never
	// outlives its stamp, since an empty read buffer applies it.
	var arrival time.Time
	for {
		if br.Buffered() == 0 {
			c.applyRun(arrival)
			if c.bw.Flush() != nil {
				break
			}
			if _, err := br.Peek(1); err != nil { // blocks in Read
				break
			}
			arrival = time.Now()
		}
		p, err := wire.ReadFrame(br, buf, maxRequestFrame)
		if err != nil {
			break
		}
		buf = p[:0]
		req, err := decodeRequest(p)
		if err != nil {
			s.mErrProto.Inc(0)
			break
		}
		if s.cfg.CoalesceUpdates && (req.op == opInsert || req.op == opDelete) {
			s.mUpdatesBatched.Inc(req.key)
			kind := lockfreetrie.OpInsert
			if req.op == opDelete {
				kind = lockfreetrie.OpDelete
			}
			c.ops = append(c.ops, lockfreetrie.Op{Kind: kind, Key: req.key})
			c.ids = append(c.ids, req.id)
			if len(c.ops) >= s.cfg.Window {
				c.applyRun(arrival)
			}
			continue
		}
		c.applyRun(arrival)
		c.dispatch(req)
	}
	// Answer what was decoded before the stream ended; on a dead socket
	// the writes fail fast.
	c.applyRun(arrival)
	c.bw.Flush()
	c.close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.active.Add(-1)
}

// applyRun queues the run and waits until a sweep has applied it,
// running that sweep itself if none is running. Then it writes the run's
// responses. arrival is the run's socket-read stamp.
func (c *conn) applyRun(arrival time.Time) {
	if len(c.ops) == 0 {
		return
	}
	s := c.srv
	s.sweepMu.Lock()
	s.runq = append(s.runq, c)
	for !c.swept {
		if s.sweeping {
			s.sweepDone.Wait()
		} else {
			s.sweep()
		}
	}
	errs := c.errs
	c.swept, c.errs = false, nil
	s.sweepMu.Unlock()
	// One clock read serves the whole run: its ops completed together.
	lat := int64(time.Since(arrival))
	for i, id := range c.ids {
		var err error
		if errs != nil {
			err = errs[i]
		}
		c.reply(id, 0, err)
		s.hUpdateNs.Record(lat)
	}
	c.ops, c.ids = c.ops[:0], c.ids[:0]
}

// sweep applies every queued run as one ApplyBatch, in queue order, and
// hands each run its share of the errors. It is called with sweepMu held
// and no sweep running, and releases sweepMu across ApplyBatch. A sweep
// holds at most one run per connection.
func (s *Server) sweep() {
	runs := s.runq
	s.runq, s.spare = s.spare[:0], nil
	s.sweeping = true
	s.sweepMu.Unlock()
	ops := runs[0].ops
	if len(runs) > 1 {
		ops = s.sweepOps[:0]
		for _, c := range runs {
			ops = append(ops, c.ops...)
		}
		s.sweepOps = ops
	}
	errs := s.trie.ApplyBatch(ops)
	s.mSweeps.Inc(0)
	s.hBatch.Record(int64(len(ops)))
	s.sweepMu.Lock()
	off := 0
	for _, c := range runs {
		if errs != nil {
			c.errs = errs[off : off+len(c.ops)]
		}
		off += len(c.ops)
		c.swept = true
	}
	clear(runs)
	s.spare = runs
	s.sweeping = false
	s.sweepDone.Broadcast()
}

// dispatch executes one request inline: a read, or an update on the
// per-op path.
func (c *conn) dispatch(req request) {
	s := c.srv
	start := time.Now()
	switch req.op {
	case opInsert, opDelete:
		s.mUpdatesPerOp.Inc(req.key)
		var err error
		if req.op == opInsert {
			err = s.trie.Insert(req.key)
		} else {
			err = s.trie.Delete(req.key)
		}
		s.hUpdateNs.Record(int64(time.Since(start)))
		c.reply(req.id, 0, err)
	case opContains:
		s.mReads.Inc(req.key)
		in, err := s.trie.Contains(req.key)
		var v int64
		if in {
			v = 1
		}
		s.hReadNs.Record(int64(time.Since(start)))
		c.reply(req.id, v, err)
	case opPredecessor:
		s.mReads.Inc(req.key)
		p, err := s.trie.Predecessor(req.key)
		s.hReadNs.Record(int64(time.Since(start)))
		c.reply(req.id, p, err)
	case opSuccessor:
		s.mReads.Inc(req.key)
		p, err := s.trie.Successor(req.key)
		s.hReadNs.Record(int64(time.Since(start)))
		c.reply(req.id, p, err)
	case opRange:
		s.mReads.Inc(req.key)
		c.streamRange(req)
		s.hReadNs.Record(int64(time.Since(start)))
	}
}

// reply writes one value-or-error response, encoded straight into bw's
// free space so it allocates nothing.
func (c *conn) reply(id uint64, v int64, err error) {
	if err != nil {
		c.srv.mErrOp.Inc(int64(id))
		c.bw.Write(encodeErrResponse(c.bw.AvailableBuffer(), id, err))
		return
	}
	c.bw.Write(encodeValueResponse(c.bw.AvailableBuffer(), id, v))
}

// streamRange walks [key, hi] descending (the trie's native Range
// order), writing chunk frames of up to rangeChunkKeys keys and a
// terminal count frame. A peer that reads slowly blocks these writes,
// which stalls only this connection.
func (c *conn) streamRange(req request) {
	chunk := make([]int64, 0, rangeChunkKeys)
	var count int64
	flush := func() {
		if len(chunk) > 0 {
			c.bw.Write(encodeRangeChunk(c.bw.AvailableBuffer(), req.id, chunk))
			chunk = chunk[:0]
		}
	}
	err := c.srv.trie.Range(req.key, req.hi, func(k int64) bool {
		chunk = append(chunk, k)
		count++
		if len(chunk) == rangeChunkKeys {
			flush()
		}
		return true
	})
	if err != nil {
		c.reply(req.id, 0, err)
		return
	}
	flush()
	c.bw.Write(encodeRangeEnd(c.bw.AvailableBuffer(), req.id, count))
}
