package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestArenaBottomRecoveryStress hammers Predecessor's ⊥-case recovery —
// concurrent deletes of keys the queries see announced — to show that
// pooled scratch state never leaks across operations. Every query runs a
// full predHelper on a recycled arena; a leak (a stale Q entry, a stale
// recovery edge, an uncleared table slot) would surface either as a -race
// report on the arena's backing arrays or as an impossible answer, which
// the invariants below reject:
//
//   - key 0 is inserted once and never deleted, so Predecessor(u−1) can
//     never be −1 and Predecessor(1) must always be exactly 0;
//   - only keys in the churn band [2, 48) are ever updated, so every
//     answer must be 0 or a churn key — a stale pointer from another
//     operation's scratch would readily produce something else.
func TestArenaBottomRecoveryStress(t *testing.T) {
	// ⊥ needs a query to observe a delete mid-flight; give the scheduler
	// real parallelism even on single-core CI hosts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const (
		u       = int64(64)
		churnLo = int64(2)
		churnHi = int64(48)
	)
	tr := mustNew(t, u)
	stats := &Stats{}
	tr.SetStats(stats)
	tr.Insert(0) // permanent floor

	dur := 2 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 16)

	// Churners: insert/delete announced keys in a tight band so deletes
	// overlap queries (and each other — a winning Delete's two embedded
	// predecessors themselves run the recovery path).
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			k := churnLo + seed%(churnHi-churnLo)
			for !stop.Load() {
				tr.Insert(k)
				tr.Delete(k)
				k++
				if k >= churnHi {
					k = churnLo
				}
			}
		}(int64(c) * 11)
	}

	// Queriers: drive the ⊥ recovery from above the churn band and check
	// the invariants.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got := tr.Predecessor(u - 1)
				if got != 0 && (got < churnLo || got >= churnHi) {
					select {
					case fail <- "Predecessor(u-1) returned a key no operation ever inserted":
					default:
					}
					return
				}
				if got := tr.Predecessor(1); got != 0 {
					select {
					case fail <- "Predecessor(1) != 0 despite the permanent floor":
					default:
					}
					return
				}
			}
		}()
	}

	for time.Now().Before(deadline) && len(fail) == 0 {
		if stats.BottomCases.Load() > 0 && time.Now().Add(dur/2).After(deadline) {
			break // recovery exercised and at least half the budget spent
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	bottoms := stats.BottomCases.Load()
	t.Logf("bottom-case recoveries exercised: %d", bottoms)
	if bottoms == 0 {
		// The schedule never produced a ⊥ — possible on a starved CI
		// machine, and the crafted scenarios in pred_internal_test.go still
		// cover the recovery logic; the concurrency-leak check above ran
		// regardless.
		t.Log("warning: no ⊥ recovery triggered in this run")
	}

	// Quiesced: only the floor remains reachable below the churn band once
	// churners stop mid-cycle; drain the band and check exactness.
	for k := churnLo; k < churnHi; k++ {
		tr.Delete(k)
	}
	if got := tr.Predecessor(u - 1); got != 0 {
		t.Fatalf("after drain, Predecessor(u-1) = %d, want 0", got)
	}
	var members int64
	for k := int64(0); k < u; k++ {
		if tr.Search(k) {
			members++
		}
	}
	if members != 1 {
		t.Fatalf("after drain, %d keys present, want 1", members)
	}
}
