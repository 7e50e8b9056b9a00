package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// RemoteError is an operation error reported by the server (e.g. a key
// outside the served universe), as opposed to a transport failure.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// ErrCallTimeout is wrapped into the error a call receives when the
// server has not responded within the client's call timeout
// (WithCallTimeout). The call fails; the client and its other
// outstanding calls stay usable — a timeout says the SERVER is slow or
// wedged, not that the transport died.
var ErrCallTimeout = errors.New("server: call timed out")

// ErrClientClosed is wrapped into the error outstanding calls receive
// when Close tears the client down.
var ErrClientClosed = errors.New("server: client closed")

// DefaultCallTimeout bounds a call's wait for its response when Dial is
// given no WithCallTimeout. Generous — it is a liveness backstop for a
// dead-but-connected server, not a latency SLO.
const DefaultCallTimeout = 30 * time.Second

// ClientOption configures Dial.
type ClientOption func(*Client) error

// WithCallTimeout bounds how long any single call waits for its
// response before failing with ErrCallTimeout (default
// DefaultCallTimeout; 0 disables the timeout entirely). Without a
// bound, a server that dies BETWEEN accepting a request and responding
// — process wedged, VM paused, network silently dropping — leaves the
// call hung forever: no response frame arrives and no socket error
// fires. A Range call's deadline is refreshed by every streamed chunk,
// so the timeout bounds server silence, not total stream length.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) error {
		if d < 0 {
			return fmt.Errorf("server: WithCallTimeout(%v): negative timeout", d)
		}
		c.callTimeout = d
		return nil
	}
}

// pendingCall is one outstanding request: its callback and the reaper's
// deadline (zero when timeouts are disabled).
type pendingCall struct {
	cb       func(response, error)
	deadline time.Time
}

// Client speaks the wire protocol over one connection. All methods are
// safe for concurrent use; requests pipeline over the single connection
// and responses are matched by id, so N outstanding calls share one
// socket — the client-side shape that gives the server a run of
// updates to coalesce. The async variants are the building block for
// open-loop drivers that need more in-flight requests than goroutines.
type Client struct {
	nc net.Conn

	// Write coalescing: requests append their encoded frame to wpend and
	// a flusher drains every frame that accumulates while its Write
	// syscall is in flight (wspare is the detached buffer being written,
	// recycled after). WHO flushes depends on pipelining depth, read off
	// outst (the outstanding-call count): at depth ≤ 1 — synchronous
	// callers — the sender flushes inline, adding no latency; at depth
	// ≥ 2 the sender just parks the frame and signals the flush
	// goroutine. A pipelined caller by definition is not waiting on this
	// frame alone, and the handoff is what collapses writes: while the
	// flush goroutine waits for the processor (or has a Write in
	// flight), every other send of the burst appends behind it, so an
	// N-deep burst drains in ~1 syscall instead of N. wclosed tells the
	// flush goroutine to exit.
	wmu     sync.Mutex
	wcond   sync.Cond
	wpend   []byte
	wspare  []byte
	wbusy   bool
	wwant   bool
	wclosed bool
	outst   atomic.Int64

	nextID atomic.Uint64

	callTimeout time.Duration

	pmu     sync.Mutex
	pending map[uint64]*pendingCall
	err     error
	done    chan struct{} // closed by the first fail; stops the reaper
}

// Dial connects to a trieserve address. With no options, calls carry
// the DefaultCallTimeout liveness backstop (see WithCallTimeout).
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{
		callTimeout: DefaultCallTimeout,
		pending:     map[uint64]*pendingCall{},
		done:        make(chan struct{}),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.nc = nc
	c.wcond.L = &c.wmu
	go c.readLoop()
	go c.flushLoop()
	if c.callTimeout > 0 {
		go c.reapLoop()
	}
	return c, nil
}

// Close tears down the connection; outstanding calls fail with
// ErrClientClosed.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.fail(fmt.Errorf("client torn down with call outstanding: %w", ErrClientClosed))
	return err
}

// fail marks the client broken, stops the flush and reaper goroutines,
// and errors out every pending call. Exactly-once per call: the map
// swap under pmu hands each callback to precisely one failer, however
// many paths (read loop, write path, Close) race here, and the first
// caller's error wins as the client's sticky close reason.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	cbs := c.pending
	c.pending = map[uint64]*pendingCall{}
	c.pmu.Unlock()
	if first {
		close(c.done)
	}
	c.wmu.Lock()
	c.wclosed = true
	c.wcond.Signal()
	c.wmu.Unlock()
	for _, p := range cbs {
		p.cb(response{}, err)
	}
	c.outst.Store(0)
}

// reapLoop fails calls individually once their deadline passes. The
// tick is a fraction of the timeout, so a timeout fires at most ~25%
// late; the client itself stays healthy — only the expired calls error.
func (c *Client) reapLoop() {
	tick := c.callTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		now := time.Now()
		var expired []*pendingCall
		c.pmu.Lock()
		if c.err != nil {
			c.pmu.Unlock()
			return
		}
		for id, p := range c.pending {
			if now.After(p.deadline) {
				delete(c.pending, id)
				expired = append(expired, p)
			}
		}
		c.pmu.Unlock()
		for _, p := range expired {
			c.outst.Add(-1)
			p.cb(response{}, fmt.Errorf("no response within %v: %w", c.callTimeout, ErrCallTimeout))
		}
	}
}

// readLoop dispatches response frames to their pending callbacks. A
// range request's callback fires once per chunk and once for the
// terminal frame; everything else completes in one callback.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	buf := make([]byte, 0, 4096)
	for {
		p, err := wire.ReadFrame(br, buf, maxFrame)
		if err != nil {
			// Propagate a close REASON, not a bare EOF: the caller whose
			// Insert fails wants to know the peer hung up mid-call.
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("server: connection closed by peer (%d calls outstanding): %w",
					c.outst.Load(), err)
			} else {
				err = fmt.Errorf("server: read loop: %w", err)
			}
			c.fail(err)
			return
		}
		buf = p[:0]
		resp, err := decodeResponse(p)
		if err != nil {
			c.fail(err)
			return
		}
		c.pmu.Lock()
		pc := c.pending[resp.id]
		if resp.status != statusRangeChunk {
			delete(c.pending, resp.id)
		} else if pc != nil && c.callTimeout > 0 {
			// A streaming response proves the server alive: push the
			// range call's deadline out per chunk.
			pc.deadline = time.Now().Add(c.callTimeout)
		}
		c.pmu.Unlock()
		if resp.status != statusRangeChunk && pc != nil {
			c.outst.Add(-1)
		}
		if pc != nil {
			pc.cb(resp, nil)
		}
	}
}

// do registers cb and writes one request frame. cb runs on the client's
// read loop (or inline on a write failure) — keep it short.
func (c *Client) do(req request, cb func(response, error)) {
	req.id = c.nextID.Add(1)
	pc := &pendingCall{cb: cb}
	if c.callTimeout > 0 {
		pc.deadline = time.Now().Add(c.callTimeout)
	}
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		cb(response{}, err)
		return
	}
	c.pending[req.id] = pc
	c.pmu.Unlock()
	c.outst.Add(1)
	c.send(req)
}

// send enqueues req's frame. A synchronous caller (pipelining depth ≤ 1)
// flushes inline; a pipelined one parks the frame for the flush
// goroutine, whose wake-up is what collapses a burst into one syscall.
// If a flush is already in flight the frame is picked up by its next
// drain pass either way.
func (c *Client) send(req request) {
	c.wmu.Lock()
	c.wpend = encodeRequest(c.wpend, req)
	if c.wbusy || c.outst.Load() >= 2 {
		if !c.wbusy && !c.wwant {
			c.wwant = true
			c.wcond.Signal()
		}
		c.wmu.Unlock()
		return
	}
	c.flushLocked()
}

// flushLoop drains parked frames on demand; see the Client comment.
func (c *Client) flushLoop() {
	for {
		c.wmu.Lock()
		for !c.wwant && !c.wclosed {
			c.wcond.Wait()
		}
		if c.wclosed {
			c.wmu.Unlock()
			return
		}
		c.wwant = false
		if c.wbusy || len(c.wpend) == 0 {
			c.wmu.Unlock()
			continue
		}
		c.flushLocked()
	}
}

// flushLocked becomes the flusher and drains wpend. Entered with wmu
// held; returns with it released.
func (c *Client) flushLocked() {
	c.wbusy = true
	var werr error
	for werr == nil && len(c.wpend) > 0 {
		buf := c.wpend
		c.wpend = c.wspare[:0]
		c.wmu.Unlock()
		_, werr = c.nc.Write(buf)
		c.wmu.Lock()
		c.wspare = buf
	}
	c.wbusy = false
	c.wmu.Unlock()
	if werr != nil {
		// Frames left enqueued by concurrent senders are moot: fail
		// errors every pending callback, and later sends bail on c.err.
		c.fail(fmt.Errorf("server: write (%d calls outstanding): %w",
			c.outst.Load(), werr))
	}
}

// finish converts a terminal response into (value, error).
func finish(r response, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if r.status == statusErr {
		return 0, &RemoteError{Msg: r.msg}
	}
	return r.value, nil
}

// UpdateAsync issues an Insert or Delete without waiting; done runs when
// the server's response arrives (after its ApplyBatch sweep on the
// coalescing path).
func (c *Client) UpdateAsync(insert bool, key int64, done func(error)) {
	op := opInsert
	if !insert {
		op = opDelete
	}
	c.do(request{op: op, key: key}, func(r response, err error) {
		_, err = finish(r, err)
		done(err)
	})
}

type callRes struct {
	r   response
	err error
}

// call is the synchronous wrapper over do.
func (c *Client) call(req request) (int64, error) {
	ch := make(chan callRes, 1)
	c.do(req, func(r response, err error) { ch <- callRes{r, err} })
	cr := <-ch
	return finish(cr.r, cr.err)
}

// Insert adds key to the served set.
func (c *Client) Insert(key int64) error {
	_, err := c.call(request{op: opInsert, key: key})
	return err
}

// Delete removes key from the served set.
func (c *Client) Delete(key int64) error {
	_, err := c.call(request{op: opDelete, key: key})
	return err
}

// Contains reports membership of key.
func (c *Client) Contains(key int64) (bool, error) {
	v, err := c.call(request{op: opContains, key: key})
	return v == 1, err
}

// Predecessor returns the largest served key strictly below y, −1 if
// none.
func (c *Client) Predecessor(y int64) (int64, error) {
	return c.call(request{op: opPredecessor, key: y})
}

// Successor returns the smallest served key strictly above y, −1 if
// none.
func (c *Client) Successor(y int64) (int64, error) {
	return c.call(request{op: opSuccessor, key: y})
}

// Range streams the keys in [lo, hi] descending (the server's native
// order) through fn, stopping delivery — though not the server-side
// stream, which is drained silently — when fn returns false. fn runs on
// the caller's goroutine; a slow fn backpressures this client's read
// loop and therefore its other outstanding calls.
func (c *Client) Range(lo, hi int64, fn func(key int64) bool) error {
	ch := make(chan callRes, 4)
	c.do(request{op: opRange, key: lo, hi: hi}, func(r response, err error) {
		ch <- callRes{r, err}
	})
	deliver := true
	for {
		cr := <-ch
		if cr.err != nil {
			return cr.err
		}
		switch cr.r.status {
		case statusRangeChunk:
			for _, k := range cr.r.keys {
				if deliver && !fn(k) {
					deliver = false
				}
			}
		case statusRangeEnd:
			return nil
		case statusErr:
			return &RemoteError{Msg: cr.r.msg}
		default:
			return fmt.Errorf("server: unexpected range status %d", cr.r.status)
		}
	}
}
