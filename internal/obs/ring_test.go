package obs

import (
	"sync"
	"testing"
)

// TestRingPublishDrain: the single-threaded contract — FIFO order, seq
// tickets, arg round-trip, nothing dropped while the ring is not full.
func TestRingPublishDrain(t *testing.T) {
	r := NewRing(8)
	r.Publish(KindEpochAdvance, 3, 7)
	r.Publish(KindAdaptiveEnable, 1, 1, 2, 10, 20)
	evs := r.Drain()
	if len(evs) != 2 {
		t.Fatalf("Drain returned %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindEpochAdvance || evs[0].Shard != 3 || evs[0].Args[0] != 7 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Kind != KindAdaptiveEnable || evs[1].Shard != 1 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	want := [EventArgs]int64{1, 2, 10, 20}
	if evs[1].Args != want {
		t.Fatalf("event 1 args = %v, want %v", evs[1].Args, want)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("seqs = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("second Drain returned %d events, want 0", len(got))
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

// TestRingOverwrite: a full ring drops the OLDEST events, keeps the
// newest, and accounts every loss.
func TestRingOverwrite(t *testing.T) {
	r := NewRing(4)
	for i := int64(0); i < 10; i++ {
		r.Publish(KindEpochAdvance, 0, i)
	}
	evs := r.Drain()
	if len(evs) != 4 {
		t.Fatalf("Drain returned %d events, want 4 (ring capacity)", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Args[0] != want {
			t.Fatalf("event %d carries arg %d, want %d (newest must survive)", i, e.Args[0], want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
}

// TestRingNilSafe: a nil ring is the stripped configuration — every
// method is a no-op, not a panic.
func TestRingNilSafe(t *testing.T) {
	var r *Ring
	r.Publish(KindCombinerRetract, 0, 1)
	if r.Drain() != nil || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatal("nil ring methods must return zero values")
	}
}

// TestRingStress: the -race stress of the seqlock protocol — concurrent
// writers lapping a small ring while a reader drains. Three invariants:
//
//  1. accounting: drained + dropped == published (no lost update on the
//     sequence word — every ticket is surfaced exactly once, as an event
//     or as a drop);
//  2. integrity: no torn payload survives validation (each event carries
//     a writer/value/checksum triple that must be internally consistent);
//  3. order: drained events arrive in strictly increasing Seq order.
func TestRingStress(t *testing.T) {
	const (
		writers = 8
		perW    = 20000
	)
	r := NewRing(64) // small: force heavy wraparound and lapping
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drained int64
	var lastSeq int64 = -1
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		check := func(evs []Event) {
			for _, e := range evs {
				if int64(e.Seq) <= lastSeq {
					t.Errorf("seq %d not above previous %d", e.Seq, lastSeq)
				}
				lastSeq = int64(e.Seq)
				if e.Args[0]^e.Args[1] != e.Args[2] {
					t.Errorf("torn event survived validation: %+v", e)
				}
				drained++
			}
		}
		for {
			select {
			case <-stop:
				check(r.Drain()) // final sweep at quiescence
				return
			default:
				check(r.Drain())
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < perW; i++ {
				r.Publish(KindCombinerElect, int32(id), id, i, id^i)
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-readerDone

	const published = writers * perW
	if total := drained + r.Dropped(); total != published {
		t.Fatalf("drained %d + dropped %d = %d, want %d published",
			drained, r.Dropped(), total, published)
	}
	if drained == 0 {
		t.Fatal("reader drained nothing — the ring never surfaced an event")
	}
}

// TestRingLappingWriterCannotTearDrain forces the one interleaving in
// which two writers share a slot while a drain copies it. Writer A parks
// mid-payload on ticket t. A drain loads its bound (t+1) and parks. Writer
// B takes ticket t+cap, which maps to A's slot, and parks after its first
// payload store if it gets that far. A publishes, and the drain resumes:
// it must return A's event intact, never B's first word over A's payload.
func TestRingLappingWriterCannotTearDrain(t *testing.T) {
	r := NewRing(4)
	const ticketA, ticketB = 0, 4 // both map to slot 0
	aParked, aGo := make(chan struct{}), make(chan struct{})
	bParked, bGo := make(chan struct{}), make(chan struct{})
	drainParked, drainGo := make(chan struct{}), make(chan struct{})
	r.midPublish = func(ticket uint64) {
		switch ticket {
		case ticketA:
			close(aParked)
			<-aGo
		case ticketB:
			close(bParked)
			<-bGo
		}
	}
	r.drainBound = func() {
		close(drainParked)
		<-drainGo
	}

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		r.Publish(KindEpochAdvance, 1, 11, 11, 11, 11)
	}()
	<-aParked
	drained := make(chan []Event)
	go func() { drained <- r.Drain() }()
	<-drainParked
	for i := 0; i < ticketB-1; i++ {
		r.Publish(KindCombinerRetract, 3, 0)
	}
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		r.Publish(KindCombinerElect, 2, 22, 22, 22, 22)
	}()
	// B either skips its stores (the slot is in flight) and returns, or
	// gets into the slot and parks after its first payload store.
	select {
	case <-bParked:
	case <-bDone:
	}
	close(aGo)
	<-aDone
	close(drainGo)
	evs := <-drained
	close(bGo)
	<-bDone
	r.midPublish, r.drainBound = nil, nil

	want := Event{Seq: ticketA, Kind: KindEpochAdvance, Shard: 1, Args: [EventArgs]int64{11, 11, 11, 11}}
	if len(evs) != 1 {
		t.Fatalf("drain returned %d events, want writer A's one: %+v", len(evs), evs)
	}
	if got := evs[0]; got.Seq != want.Seq || got.Kind != want.Kind || got.Shard != want.Shard || got.Args != want.Args {
		t.Fatalf("drain returned a torn event %+v, want writer A's %+v", got, want)
	}
	// Every ticket is still accounted exactly once: the three fillers
	// drain, and B's skipped event is a drop.
	rest := r.Drain()
	if total := int64(len(evs)+len(rest)) + r.Dropped(); total != ticketB+1 {
		t.Fatalf("drained %d + dropped %d = %d, want %d published",
			len(evs)+len(rest), r.Dropped(), total, ticketB+1)
	}
}

// TestRingQuiescentDrainLosesNothing: with no writer in flight, a drain
// must surface every undrained event the ring still holds — in-progress
// accounting must not leak drops at quiescence.
func TestRingQuiescentDrainLosesNothing(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < 3; i++ {
				r.Publish(KindCombinerRetract, int32(id), i)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := len(r.Drain()); got != 12 {
		t.Fatalf("quiescent drain returned %d events, want 12", got)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (ring never filled)", r.Dropped())
	}
}
