package core

import (
	"testing"

	"repro/internal/alist"
	"repro/internal/unode"
)

// White-box tests for the Predecessor internals: the notification
// acceptance rules (paper lines 218–227), the ⊥-case recovery (lines
// 230–251, Definition 5.1) and its helpers. Randomized stress rarely drives
// these paths, so each rule gets a crafted scenario here.

// bottomCaseScratch runs bottomCase on a private arena (test convenience).
func (t *Trie) bottomCaseScratch(pNode *PredNode, q []*PredNode, druall []*unode.UpdateNode, y int64) int64 {
	a := getArena()
	defer a.release()
	return t.bottomCase(pNode, q, druall, y, a)
}

// dropScratch runs dropSupersededDels on a private arena.
func dropScratch(l []*unode.UpdateNode) []*unode.UpdateNode {
	a := getArena()
	defer a.release()
	return dropSupersededDels(l, a)
}

func mustNew(t *testing.T, u int64) *Trie {
	t.Helper()
	tr, err := New(u)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func insNode(key int64) *unode.UpdateNode {
	n := unode.NewIns(key)
	n.Status.Store(unode.StatusActive)
	return n
}

func delNode(key int64, b int, delPred, delPred2 int64, pn *PredNode) *unode.UpdateNode {
	n := unode.NewDel(key, b)
	n.Status.Store(unode.StatusActive)
	n.DelPred = delPred
	setDelPredNode(n, pn)
	if delPred2 != unode.NoKey {
		n.DelPred2.Store(delPred2)
	}
	return n
}

// pushNotify prepends a notify node, mimicking sendNotification.
func pushNotify(p *PredNode, u *unode.UpdateNode, threshold int64, uMax *unode.UpdateNode) {
	n := &notifyNode{
		key:             u.Key,
		updateNode:      u,
		updateNodeMax:   uMax,
		notifyThreshold: threshold,
		next:            p.notifyHead.Load(),
	}
	p.notifyHead.Store(n)
}

func TestMaxInsBelow(t *testing.T) {
	a, b, c := insNode(2), insNode(5), insNode(9)
	ins := []*unode.UpdateNode{a, b, c}
	if got := maxInsBelow(ins, 10); got != c {
		t.Errorf("maxInsBelow(10) = %v, want key 9", got)
	}
	if got := maxInsBelow(ins, 9); got != b {
		t.Errorf("maxInsBelow(9) = %v, want key 5", got)
	}
	if got := maxInsBelow(ins, 2); got != nil {
		t.Errorf("maxInsBelow(2) = %v, want nil", got)
	}
	if got := maxInsBelow(nil, 100); got != nil {
		t.Errorf("maxInsBelow(nil) = %v, want nil", got)
	}
}

func TestDropSupersededDels(t *testing.T) {
	b := 4
	d1 := delNode(3, b, -1, unode.NoKey, nil)
	d2 := delNode(3, b, -1, unode.NoKey, nil)
	i1 := insNode(3)
	i2 := insNode(7)
	// Two DELs with key 3: only the later survives; INS nodes always stay.
	got := dropScratch([]*unode.UpdateNode{d1, i1, d2, i2})
	want := []*unode.UpdateNode{i1, d2, i2}
	if len(got) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
	// Paper line 243 drops a DEL whenever ANY later node in L shares its
	// key — including an INS: the newer hand-off supersedes the edge.
	d4 := delNode(5, b, -1, unode.NoKey, nil)
	i4 := insNode(5)
	got = dropScratch([]*unode.UpdateNode{d4, i4})
	if len(got) != 1 || got[0] != i4 {
		t.Fatalf("DEL before same-key INS should drop: %v", got)
	}
	// But a trailing DEL survives.
	got = dropScratch([]*unode.UpdateNode{i4, d4})
	if len(got) != 2 || got[0] != i4 || got[1] != d4 {
		t.Fatalf("trailing DEL should survive: %v", got)
	}
}

func TestRuallPosKeySentinels(t *testing.T) {
	tr := mustNew(t, 8)
	p := newPredNode(5, tr.ruall.Head())
	if got := ruallPosKey(p); got != alist.KeyPosInf {
		t.Errorf("fresh position key = %d, want +inf", got)
	}
	var empty PredNode
	if got := ruallPosKey(&empty); got != alist.KeyPosInf {
		t.Errorf("uninitialized position key = %d, want +inf (defensive)", got)
	}
}

func TestCollectNotificationsRules(t *testing.T) {
	tr := mustNew(t, 16)
	p := newPredNode(10, tr.ruall.Head())

	insAccepted := insNode(4)                             // threshold 4 ≤ key 4 → accepted
	insRejected := insNode(5)                             // threshold 7 > key 5 → rejected
	delAccepted := delNode(6, tr.b, -1, unode.NoKey, nil) // threshold 3 < 6 → accepted
	delRejected := delNode(6, tr.b, -1, unode.NoKey, nil) // threshold 6 = 6 → rejected (strict)
	tooBig := insNode(12)                                 // key ≥ y → ignored entirely

	pushNotify(p, insAccepted, 4, nil)
	pushNotify(p, insRejected, 7, nil)
	pushNotify(p, delAccepted, 3, nil)
	pushNotify(p, delRejected, 6, nil)
	pushNotify(p, tooBig, 0, nil)

	a := getArena()
	defer a.release()
	inotify, dnotify := collectNotifications(p, 10, nil, nil, a)
	if len(inotify) != 1 || inotify[0] != insAccepted {
		t.Errorf("inotify = %v, want [INS(4)]", inotify)
	}
	if len(dnotify) != 1 || dnotify[0] != delAccepted {
		t.Errorf("dnotify = %v, want [DEL(6) accepted]", dnotify)
	}
}

func TestCollectNotificationsForwardsUpdateNodeMax(t *testing.T) {
	tr := mustNew(t, 16)
	p := newPredNode(10, tr.ruall.Head())

	maxIns := insNode(8)
	sender := insNode(2)
	// Threshold −∞ (we finished the RU-ALL) and sender unseen there →
	// updateNodeMax is vouched for (Figure 9).
	pushNotify(p, sender, alist.KeyNegInf, maxIns)
	a := getArena()
	inotify, _ := collectNotifications(p, 10, nil, nil, a)
	if len(inotify) != 2 || inotify[0] != sender || inotify[1] != maxIns {
		t.Fatalf("inotify = %v, want sender + forwarded max", inotify)
	}

	// If the sender WAS seen in the RU-ALL, the forwarding is suppressed.
	p2 := newPredNode(10, tr.ruall.Head())
	a.release()
	pushNotify(p2, sender, alist.KeyNegInf, maxIns)
	a2 := getArena()
	defer a2.release()
	inotify, _ = collectNotifications(p2, 10, []*unode.UpdateNode{sender}, nil, a2)
	for _, n := range inotify {
		if n == maxIns {
			t.Fatal("updateNodeMax forwarded despite sender ∈ Iruall")
		}
	}
}

// TestBottomCaseDirectHandoff is the paper's simplest ⊥ story: Delete(5) is
// the only interference; its first embedded predecessor returned 3, which
// is still present. X = {3}, no edges → answer 3.
func TestBottomCaseDirectHandoff(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	d5 := delNode(5, tr.b, 3, 3, nil)
	got := tr.bottomCaseScratch(pNode, nil, []*unode.UpdateNode{d5}, 10)
	if got != 3 {
		t.Errorf("bottomCase = %d, want 3", got)
	}
}

// TestBottomCaseChain follows delete hand-offs: Druall = {DEL(7)} whose
// first embedded predecessor saw 6; DEL(6) notified us (accepted into L2 by
// threshold ≥ key) with delPred2 = 4; DEL(4) notified us with delPred2 = 2.
// Chain 6→4→2, sink 2, not deleted → answer 2.
func TestBottomCaseChain(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	d7 := delNode(7, tr.b, 6, 5, nil)
	d6 := delNode(6, tr.b, 5, 4, nil)
	d4 := delNode(4, tr.b, 3, 2, nil)
	// Notifications arrive newest-first; thresholds ≥ key put them in L2.
	pushNotify(pNode, d4, 8, nil)
	pushNotify(pNode, d6, 8, nil)
	got := tr.bottomCaseScratch(pNode, nil, []*unode.UpdateNode{d7}, 10)
	if got != 2 {
		t.Errorf("bottomCase = %d, want 2 (chain 6→4→2)", got)
	}
}

// TestBottomCaseDeletedSinkExcluded: the chased sink is itself a Druall
// delete's key, so it is excluded (line 250) and the next-best start wins.
func TestBottomCaseDeletedSinkExcluded(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	// DEL(7).delPred = 5, but 5 is also being deleted (in Druall) with
	// delPred 2: chasing 5's edge — none in L — leaves sink 5, excluded;
	// start 2 survives as its own sink.
	d7 := delNode(7, tr.b, 5, unode.NoKey, nil)
	d5 := delNode(5, tr.b, 2, unode.NoKey, nil)
	got := tr.bottomCaseScratch(pNode, nil, []*unode.UpdateNode{d7, d5}, 10)
	if got != 2 {
		t.Errorf("bottomCase = %d, want 2 (5 excluded as deleted)", got)
	}
}

// TestBottomCaseUsesEarliestEmbeddedAnnouncement: when a Druall delete's
// first embedded predecessor node appears in our announcement snapshot Q,
// its notify list (L1) supplies INS starting points.
func TestBottomCaseUsesEarliestEmbeddedAnnouncement(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	pPrime := newPredNode(5, tr.ruall.Head()) // the delete's first embedded pred
	i6 := insNode(6)
	pushNotify(pPrime, i6, 0, nil) // INS(6) notified pPrime → lands in L1
	d5 := delNode(5, tr.b, -1, -1, pPrime)
	q := []*PredNode{pPrime} // pPrime was announced before us
	got := tr.bottomCaseScratch(pNode, q, []*unode.UpdateNode{d5}, 10)
	if got != 6 {
		t.Errorf("bottomCase = %d, want 6 (INS in L1)", got)
	}
}

// TestBottomCaseLine239Removal: an update node that notified BOTH pPrime
// and us is removed from L1 (line 239); if its own notification was
// rejected for L2 (threshold < key), it must not contribute an edge.
func TestBottomCaseLine239Removal(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	pPrime := newPredNode(5, tr.ruall.Head())
	// DEL(6) with delPred2=4 notified pPrime (→ L1) and also notified us
	// with threshold 3 < 6 (→ not L2, and removed from L1 by line 239).
	d6 := delNode(6, tr.b, 5, 4, nil)
	pushNotify(pPrime, d6, 0, nil)
	pushNotify(pNode, d6, 3, nil)
	d7 := delNode(7, tr.b, 6, unode.NoKey, pPrime)
	q := []*PredNode{pPrime}
	got := tr.bottomCaseScratch(pNode, q, []*unode.UpdateNode{d7}, 10)
	// Start X = {6} (delPred of d7). d6's edge 6→4 is NOT in the graph
	// (removed from L1, rejected from L2), so 6 itself is the sink.
	if got != 6 {
		t.Errorf("bottomCase = %d, want 6 (edge suppressed by line 239)", got)
	}
}

// TestBottomCaseSupersededDelEdgeIgnored: two DEL nodes with the same key
// in L — only the newest's delPred2 edge counts (line 243).
func TestBottomCaseSupersededDelEdgeIgnored(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	dOld := delNode(6, tr.b, 5, 1, nil) // stale hand-off to 1
	dNew := delNode(6, tr.b, 5, 4, nil) // current hand-off to 4
	// Newest-first list: dNew pushed last so it is at the head; traversal
	// sees dNew then dOld; L2 order (oldest-first) = [dOld, dNew]; line
	// 243 keeps only the LAST DEL per key = dNew.
	pushNotify(pNode, dOld, 8, nil)
	pushNotify(pNode, dNew, 8, nil)
	d7 := delNode(7, tr.b, 6, unode.NoKey, nil)
	got := tr.bottomCaseScratch(pNode, nil, []*unode.UpdateNode{d7}, 10)
	if got != 4 {
		t.Errorf("bottomCase = %d, want 4 (stale edge 6→1 ignored)", got)
	}
}

// TestBottomCaseEmptyReturnsMinusOne: defensive — with no starting points
// the recovery yields −1 rather than inventing a key.
func TestBottomCaseEmptyReturnsMinusOne(t *testing.T) {
	tr := mustNew(t, 16)
	pNode := newPredNode(10, tr.ruall.Head())
	d5 := delNode(5, tr.b, -1, unode.NoKey, nil)
	got := tr.bottomCaseScratch(pNode, nil, []*unode.UpdateNode{d5}, 10)
	if got != -1 {
		t.Errorf("bottomCase = %d, want -1", got)
	}
}

// TestTraverseRUallClassification drives the real RU-ALL: active
// first-activated nodes below y are classified; inactive and superseded
// ones are skipped; the position slot ends at −∞.
func TestTraverseRUallClassification(t *testing.T) {
	tr := mustNew(t, 32)
	mk := func(key int64, kind unode.Kind, active, latest bool) *unode.UpdateNode {
		var n *unode.UpdateNode
		if kind == unode.Ins {
			n = unode.NewIns(key)
		} else {
			n = unode.NewDel(key, tr.b)
		}
		if active {
			n.Status.Store(unode.StatusActive)
		}
		if latest {
			tr.latest[key].Store(n)
		}
		tr.ruall.Insert(n, nil)
		return n
	}
	iGood := mk(3, unode.Ins, true, true)
	dGood := mk(7, unode.Del, true, true)
	mk(5, unode.Ins, false, true) // inactive: skipped
	mk(9, unode.Ins, true, false) // not first activated: skipped
	mk(20, unode.Del, true, true) // key ≥ y: skipped

	pNode := newPredNode(15, tr.ruall.Head())
	a := getArena()
	defer a.release()
	ins, del := tr.traverseRUall(pNode, a, nil)
	if len(ins) != 1 || ins[0] != iGood {
		t.Errorf("ins = %v, want [INS(3)]", ins)
	}
	if len(del) != 1 || del[0] != dGood {
		t.Errorf("del = %v, want [DEL(7)]", del)
	}
	if got := ruallPosKey(pNode); got != alist.KeyNegInf {
		t.Errorf("final position = %d, want -inf", got)
	}
}

// TestSnapshotAfterOrder: Q must come back newest→oldest so "earliest in
// Q" is the last element.
func TestSnapshotAfterOrder(t *testing.T) {
	tr := mustNew(t, 8)
	oldest := newPredNode(1, tr.ruall.Head())
	middle := newPredNode(2, tr.ruall.Head())
	newest := newPredNode(3, tr.ruall.Head())
	tr.pall.insert(oldest, nil)
	tr.pall.insert(middle, nil)
	tr.pall.insert(newest, nil)
	a := getArena()
	defer a.release()
	q := snapshotAfter(newest, a)
	if len(q) != 2 || q[0] != middle || q[1] != oldest {
		t.Fatalf("snapshotAfter order wrong: %v", q)
	}
	if got := tr.pall.len(); got != 3 {
		t.Errorf("pall.len = %d, want 3", got)
	}
	tr.pall.remove(middle, nil)
	if got := tr.pall.len(); got != 2 {
		t.Errorf("pall.len after remove = %d, want 2", got)
	}
	tr.pall.remove(middle, nil) // double remove is a no-op
	if got := tr.pall.len(); got != 2 {
		t.Errorf("pall.len after double remove = %d, want 2", got)
	}
}
