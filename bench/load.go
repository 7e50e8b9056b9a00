package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/server"
	"repro/internal/workload"
)

// window is each connection's in-flight request bound, the server's
// default per-connection window.
const window = server.DefaultWindow

var base = time.Now()

// now is the benchmark clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(base)) }

// counts are the run's request totals over every phase.
type counts struct {
	attempted, failed atomic.Int64
	firstErr          sync.Once
}

func (c *counts) fail(err error) {
	c.failed.Add(1)
	c.firstErr.Do(func() { fmt.Fprintln(os.Stderr, "bench: request failed:", err) })
}

// doneFn runs when a request completes: issued is when it was handed to
// the client, t when its response arrived.
type doneFn func(issued, t int64, err error)

type readReq struct {
	op     workload.Op
	issued int64
	done   doneFn
}

// conn is one client connection with its window and reader pool. One
// goroutine at a time calls issue (the prefill, the open loop's sender or
// the closed loop), which keeps the model and the send order
// single-threaded.
type conn struct {
	cl    *server.Client
	model model
	n     *counts
	slots chan struct{} // one token per in-flight request
	reads chan readReq  // holds at most `window` requests: each holds a slot
	pool  sync.WaitGroup
}

func dial(addr string, m model, n *counts) (*conn, error) {
	cl, err := server.Dial(addr, server.WithCallTimeout(10*time.Second))
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &conn{cl: cl, model: m, n: n,
		slots: make(chan struct{}, window), reads: make(chan readReq, window)}
	// Reads are synchronous calls, so a pool as large as the window keeps
	// the window full without ever blocking the arrival loop.
	c.pool.Add(window)
	for i := 0; i < window; i++ {
		go c.reader()
	}
	return c, nil
}

func (c *conn) reader() {
	defer c.pool.Done()
	for r := range c.reads {
		var err error
		if r.op.Kind == workload.OpPredecessor {
			_, err = c.cl.Predecessor(r.op.Key)
		} else {
			_, err = c.cl.Contains(r.op.Key)
		}
		c.complete(r.issued, err, r.done)
	}
}

func (c *conn) complete(issued int64, err error, done doneFn) {
	t := now()
	if err != nil {
		c.n.fail(err)
	}
	if done != nil {
		done(issued, t, err)
	}
	<-c.slots
}

// issue waits for a window slot, then sends op without waiting for the
// response; done runs when it completes.
func (c *conn) issue(op workload.Op, done doneFn) {
	c.slots <- struct{}{}
	issued := now()
	c.n.attempted.Add(1)
	if !isUpdate(op.Kind) {
		c.reads <- readReq{op: op, issued: issued, done: done}
		return
	}
	ins := op.Kind == workload.OpInsert
	c.model.set(op.Key, ins)
	c.cl.UpdateAsync(ins, op.Key, func(err error) { c.complete(issued, err, done) })
}

// quiesce waits until every request this connection sent has completed.
func (c *conn) quiesce() {
	for i := 0; i < window; i++ {
		c.slots <- struct{}{}
	}
	for i := 0; i < window; i++ {
		<-c.slots
	}
}

// close quiesces, stops the reader pool and hangs up.
func (c *conn) close() {
	c.quiesce()
	close(c.reads)
	c.pool.Wait()
	_ = c.cl.Close() // every call has completed; nothing is left to fail
}

// prefill inserts the keys this connection owns, pipelined up to the
// window, and waits for every ack.
func (c *conn) prefill(keys []int64, id int) {
	for _, k := range keys {
		if k%conns == int64(id) {
			c.issue(workload.Op{Kind: workload.OpInsert, Key: k}, nil)
		}
	}
	c.quiesce()
}

// sleeper sleeps with microsecond precision through a timerfd that the Go
// netpoller waits on. time.Sleep rounds sub-millisecond waits up to the
// next millisecond on Linux, which would make every arrival up to 1 ms
// late; a raw nanosleep would hold one of the process's two Ps.
type sleeper struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) sleep(d int64) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d)} // interval, value
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { _ = s.f.Close() } // a timerfd has nothing to flush

// arrival is one scheduled request: its op, its intended send time and
// the time the generator queued it (benchmark clock), and its sequence
// number on the connection.
type arrival struct {
	op               workload.Op
	intended, queued int64
	seq              int64
}

// backlogCap bounds the arrivals queued behind a full window: over half a
// second of offered load. Past it the generator itself blocks, and its
// lateness shows the overload.
const backlogCap = 1 << 16

// openLoop offers stream st's ops as a Poisson process at rate ops/s from
// start until end (benchmark clock). The generator sleeps only when the
// next arrival is not yet due and then queues every arrival already due,
// so a late wake-up costs one burst, not a drifting schedule. A sender
// goroutine passes the queue to send in order, so a full window delays
// requests — which their latency from the intended time shows — but
// never the schedule.
func openLoop(st *stream, rate float64, seed, start, end int64, send func(arrival)) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	q := make(chan arrival, backlogCap)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range q {
			send(a)
		}
	}()
	defer wg.Wait()
	defer close(q)
	sched := workload.NewPoissonSchedule(rate, seed)
	next := start + int64(sched.Next())
	for seq := int64(0); next < end; seq++ {
		if wait := next - now(); wait > 0 {
			if err := sl.sleep(wait); err != nil {
				return err
			}
		}
		q <- arrival{st.next(), next, now(), seq}
		next += int64(sched.Next())
	}
	return nil
}

// closedLoop keeps this connection's window full until stop is set.
func (c *conn) closedLoop(st *stream, stop *atomic.Bool, done *atomic.Int64) {
	count := func(_, _ int64, err error) {
		if err == nil {
			done.Add(1)
		}
	}
	for !stop.Load() {
		c.issue(st.next(), count)
	}
}
