package core

import (
	"sync"
	"testing"

	"repro/internal/unode"
)

// White-box tests for the §5 latest-list helpers (paper lines 116–136):
// FindLatest, FirstActivated and HelpActivate, including the inactive-node
// windows that black-box tests cannot pin down.

func TestLoadLatestMaterializesDummy(t *testing.T) {
	tr := mustNew(t, 8)
	n := tr.loadLatest(3)
	if n == nil || !n.DummyNode || n.Kind != unode.Del || n.Key != 3 {
		t.Fatalf("materialized node = %v, want dummy DEL(3)", n)
	}
	if !n.Active() {
		t.Error("dummy must be active")
	}
	if got := tr.loadLatest(3); got != n {
		t.Error("second load must return the same dummy")
	}
	if got := tr.latest[3].Load(); got != n {
		t.Error("dummy not installed in latest[3]")
	}
}

func TestFindLatestSkipsInactiveHead(t *testing.T) {
	tr := mustNew(t, 8)
	active := unode.NewIns(2)
	active.Activate()
	inactive := unode.NewDel(2, tr.b)
	inactive.LatestNext.Store(active)
	tr.latest[2].Store(inactive)

	// The head is inactive: FindLatest must return the activated second
	// node (paper line 120).
	if got := tr.findLatest(2); got != active {
		t.Fatalf("findLatest = %v, want the active INS behind the head", got)
	}

	// Once the head activates and resets latestNext, it is the answer.
	inactive.Activate()
	inactive.LatestNext.Store(nil)
	if got := tr.findLatest(2); got != inactive {
		t.Fatalf("findLatest = %v, want the (now active) head", got)
	}
}

func TestFindLatestInactiveHeadWithNilNext(t *testing.T) {
	tr := mustNew(t, 8)
	// Head read as inactive but latestNext already ⊥ means it was
	// activated between our two reads; returning it is correct (Lemma 5.4).
	head := unode.NewIns(1)
	tr.latest[1].Store(head)
	if got := tr.findLatest(1); got != head {
		t.Fatalf("findLatest = %v, want head", got)
	}
}

func TestFirstActivatedCases(t *testing.T) {
	tr := mustNew(t, 8)
	active := unode.NewIns(4)
	active.Activate()
	tr.latest[4].Store(active)
	if !tr.firstActivated(active) {
		t.Error("directly-latest active node must be first activated")
	}

	// An inactive head pointing back at it keeps it first activated
	// (paper line 127, second disjunct).
	newer := unode.NewDel(4, tr.b)
	newer.LatestNext.Store(active)
	tr.latest[4].Store(newer)
	if !tr.firstActivated(active) {
		t.Error("node behind an inactive head must still be first activated")
	}
	// Contract note (Lemmas 5.7–5.8): FirstActivated is only ever invoked
	// on ACTIVATED nodes; the paper's line 127 therefore answers true for
	// any node that IS latest[key] without re-checking its status.
	if !tr.firstActivated(newer) {
		t.Error("paper line 127: latest[key] pointer equality answers true")
	}

	// Activating the head dethrones the old node.
	newer.Activate()
	newer.LatestNext.Store(nil)
	if tr.firstActivated(active) {
		t.Error("superseded node still reported first activated")
	}
	if !tr.firstActivated(newer) {
		t.Error("activated head must be first activated")
	}

	// Keys whose latest was never touched: a concrete node is never first.
	stranger := unode.NewIns(6)
	stranger.Activate()
	if tr.firstActivated(stranger) {
		t.Error("node for untouched key cannot be first activated")
	}
}

func TestHelpActivateFullPath(t *testing.T) {
	tr := mustNew(t, 8)
	prevIns := unode.NewIns(5)
	prevIns.Activate()
	victimDel := unode.NewDel(3, tr.b) // the DEL node the previous insert attacked
	prevIns.Ins().Target.Store(victimDel)

	dNode := unode.NewDel(5, tr.b)
	dNode.LatestNext.Store(prevIns)
	tr.latest[5].Store(dNode)

	tr.helpActivate(dNode, nil)

	if !dNode.Active() {
		t.Fatal("helpActivate must activate the node")
	}
	if dNode.LatestNext.Load() != nil {
		t.Error("latestNext must be reset to ⊥ (line 134)")
	}
	if !victimDel.Stopped() {
		t.Error("DEL activation must perform the stop handshake (line 133)")
	}
	if !tr.uall.Contains(dNode) || !tr.ruall.Contains(dNode) {
		t.Error("node must be announced in both lists (line 130)")
	}
	// Idempotent on an already-active node: no duplicate announcements.
	tr.helpActivate(dNode, nil)
	if got := tr.uall.Len(); got != 1 {
		t.Errorf("U-ALL length after repeat helpActivate = %d, want 1", got)
	}
}

func TestHelpActivateRemovesCompletedNode(t *testing.T) {
	tr := mustNew(t, 8)
	iNode := unode.NewIns(2)
	iNode.SetCompleted() // owner already finished; helper re-adds
	tr.latest[2].Store(iNode)

	tr.helpActivate(iNode, nil)

	// Lines 135–136: the helper must undo its own announcement.
	if tr.uall.Contains(iNode) || tr.ruall.Contains(iNode) {
		t.Error("completed node left announced after helpActivate")
	}
}

func TestHelpActivateIgnoresDummiesAndNil(t *testing.T) {
	tr := mustNew(t, 8)
	tr.helpActivate(nil, nil) // must not panic
	d := tr.loadLatest(1)
	tr.helpActivate(d, nil)
	if tr.uall.Len() != 0 {
		t.Error("dummy must never be announced")
	}
}

// TestConcurrentHelpActivate: many helpers racing on one inactive node
// leave exactly zero announcements once the owner completes, and the node
// ends active.
func TestConcurrentHelpActivate(t *testing.T) {
	for round := 0; round < 200; round++ {
		tr := mustNew(t, 8)
		iNode := unode.NewIns(2)
		tr.latest[2].Store(iNode)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for h := 0; h < 4; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				tr.helpActivate(iNode, nil)
			}()
		}
		wg.Add(1)
		go func() { // the owner's tail: complete and withdraw
			defer wg.Done()
			<-start
			iNode.Activate()
			iNode.LatestNext.Store(nil)
			iNode.SetCompleted()
			tr.uall.Remove(iNode, nil)
			tr.ruall.Remove(iNode, nil)
		}()
		close(start)
		wg.Wait()
		// Helpers that inserted after the owner's Remove observed
		// completed=true and removed again (lines 135–136).
		if !iNode.Active() {
			t.Fatal("node not active after racing helpers")
		}
		if n := tr.uall.Len(); n != 0 {
			t.Fatalf("round %d: U-ALL length = %d, want 0", round, n)
		}
		if n := tr.ruall.Len(); n != 0 {
			t.Fatalf("round %d: RU-ALL length = %d, want 0", round, n)
		}
	}
}

// TestPallConcurrentInsertRemove: P-ALL stays consistent under concurrent
// announcement churn.
func TestPallConcurrentInsertRemove(t *testing.T) {
	tr := mustNew(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := newPredNode(id, tr.ruall.Head())
				tr.pall.insert(p, nil)
				tr.pall.remove(p, nil)
			}
		}(int64(g))
	}
	wg.Wait()
	if got := tr.pall.len(); got != 0 {
		t.Fatalf("P-ALL length = %d, want 0 after churn", got)
	}
}
