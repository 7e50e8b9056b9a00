package core

import (
	"repro/internal/alist"
	"repro/internal/ebr"
	"repro/internal/unode"
)

// predHelper performs all of a Predecessor(y) operation except removing its
// announcement (paper lines 207–252). Delete uses it directly for its two
// embedded predecessor operations, whose announcements must outlive the
// helper (paper §5.2). It returns the predecessor value and the
// announcement node for the caller to remove.
//
// All transient state — the snapshot Q, the traversal classifications and
// the Definition 5.1 recovery's tables — lives in a pooled scratch arena;
// the announcement node and RU-ALL copy descriptors come from EBR-guarded
// pools, so a steady-state predecessor allocates nothing (see arena.go and
// internal/ebr for the safety arguments). s is the caller's pin, held for
// the whole call.
func (t *Trie) predHelper(y int64, s *ebr.Slot) (int64, *PredNode) {
	a := getArena()
	defer a.release()

	// --- Announce (lines 208–214) ---------------------------------------
	pNode := newPredNode(y, t.ruall.Head())
	t.pall.insert(pNode, s)
	q := snapshotAfter(pNode, a) // newest→oldest; the paper's Q reversed

	// --- Traverse the RU-ALL (line 215) ---------------------------------
	iruall, druall := t.traverseRUall(pNode, a, s)

	// --- Traverse the relaxed binary trie (line 216) ---------------------
	r0, r0ok := t.bits.RelaxedPredecessor(y)

	// --- Traverse the U-ALL (line 217) -----------------------------------
	iuall, duall := t.traverseUall(y, a)

	// --- Collect notifications (lines 218–227) ---------------------------
	inotify, dnotify := collectNotifications(pNode, y, iruall, druall, a)

	// --- r1: best announced/notified candidate (line 228) ----------------
	r1 := int64(-1)
	for _, u := range iuall {
		r1 = maxKey(r1, u.Key)
	}
	for _, u := range inotify {
		r1 = maxKey(r1, u.Key)
	}
	for _, u := range duall {
		if !containsNode(druall, u) {
			r1 = maxKey(r1, u.Key)
		}
	}
	for _, u := range dnotify {
		if !containsNode(druall, u) {
			r1 = maxKey(r1, u.Key)
		}
	}

	// --- ⊥ recovery (lines 230–251) ---------------------------------------
	r0val := int64(-1)
	switch {
	case r0ok:
		r0val = r0
	case len(druall) > 0:
		if t.stats != nil {
			t.stats.BottomCases.Add(1)
		}
		r0val = t.bottomCase(pNode, q, druall, y, a)
	}

	return maxKey(r0val, r1), pNode // line 252
}

// collectNotifications filters this operation's notify list (paper lines
// 218–227) into a.inotify/a.dnotify. An INS notification is accepted when
// its threshold — our RU-ALL position when the notifier stamped it — had
// already passed its key (≤); a DEL notification needs strict passage (<),
// because a delete seen at exactly its key may have been linearized before
// we started. A notification stamped after our RU-ALL traversal finished
// (threshold −∞) whose update node we did NOT meet in the RU-ALL also
// vouches for its updateNodeMax (the Figure 9 forwarding).
func collectNotifications(pNode *PredNode, y int64, iruall, druall []*unode.UpdateNode, a *arena) (inotify, dnotify []*unode.UpdateNode) {
	for n := pNode.notifyHead.Load(); n != nil; n = n.next {
		if n.key >= y {
			continue
		}
		if n.updateNode.Kind == unode.Ins {
			if n.notifyThreshold <= n.key { // line 221
				a.inotify = append(a.inotify, n.updateNode)
			}
		} else if n.notifyThreshold < n.key { // line 224
			a.dnotify = append(a.dnotify, n.updateNode)
		}
		if n.notifyThreshold == alist.KeyNegInf && // line 226
			!containsNode(iruall, n.updateNode) &&
			!containsNode(druall, n.updateNode) &&
			n.updateNodeMax != nil {
			a.inotify = append(a.inotify, n.updateNodeMax) // line 227
		}
	}
	return a.inotify, a.dnotify
}

// traverseRUall walks the RU-ALL from high keys to low, publishing the
// current position through the atomic-copy slot so that updaters can stamp
// notify thresholds (paper lines 257–269). It appends to a.iruall/a.druall
// the INS and DEL nodes with key < pNode.key that were first activated when
// visited; their update operations were linearized before — or shortly
// after — the start of this predecessor operation.
func (t *Trie) traverseRUall(pNode *PredNode, a *arena, s *ebr.Slot) (ins, del []*unode.UpdateNode) {
	y := pNode.key
	cur := pNode.ruallPos.Read() // head sentinel, key +∞
	for cur != nil && cur.Key != alist.KeyNegInf {
		if t.stats != nil {
			t.stats.RuallTraversalSteps.Add(1)
		}
		cur = pNode.ruallPos.CopyNext(cur, s) // line 262: atomic copy
		if cur == nil {
			break // defensive: severed tail, treat as end
		}
		if cur.Key < y && cur.Upd != nil {
			u := cur.Upd
			if u.Status.Load() != unode.StatusInactive && t.firstActivated(u) { // line 265
				if u.Kind == unode.Ins {
					a.iruall = append(a.iruall, u)
				} else {
					a.druall = append(a.druall, u)
				}
			}
		}
	}
	return a.iruall, a.druall
}

// bottomCase computes a candidate return value when the relaxed-trie
// traversal returned ⊥ and Druall is non-empty (paper lines 231–251 and
// Definition 5.1). It reconstructs, from the notify lists of this operation
// and of the earliest-announced embedded predecessor among Druall's deletes,
// a chain of delete hand-offs, and returns the largest surviving sink.
func (t *Trie) bottomCase(pNode *PredNode, q []*PredNode, druall []*unode.UpdateNode, y int64, a *arena) int64 {
	// predNodes: first-embedded-predecessor announcements of Druall's
	// deletes (line 232).
	for _, d := range druall {
		if pn := delPredNode(d); pn != nil {
			a.preds.add(pn, pn.key)
		}
	}

	// pNode′: the member of predNodes announced earliest, i.e. occurring
	// latest in our newest→oldest snapshot (lines 233–234).
	var pPrime *PredNode
	for i := len(q) - 1; i >= 0; i-- {
		if a.preds.has(q[i], q[i].key) {
			pPrime = q[i]
			break
		}
	}

	// L1: update nodes that notified pNode′, oldest notification first,
	// deduplicated keeping the newest occurrence's position (lines 231–236:
	// traverse newest→oldest, prepend if not already present).
	var l1 []*unode.UpdateNode
	if pPrime != nil {
		l1 = collectNotifiedUpdates(pPrime, y, a)
	}

	// L2: update nodes that notified us before we finished the RU-ALL
	// traversal (threshold ≥ key), oldest first; while traversing, remove
	// every notifying update node from L1 (lines 237–241).
	for n := pNode.notifyHead.Load(); n != nil; n = n.next {
		if n.key >= y {
			continue
		}
		a.removed.add(n.updateNode, n.key)                                    // line 239
		if n.notifyThreshold >= n.key && !a.l2seen.has(n.updateNode, n.key) { // line 240
			a.l2seen.add(n.updateNode, n.key)
			a.l2 = append(a.l2, n.updateNode)
		}
	}
	l2 := reverseNodes(a.l2)

	// L = (L1 − removed) ++ L2, then drop DEL nodes that are not the last
	// update node in L with their key (lines 242–243).
	for _, u := range l1 {
		if !a.removed.has(u, u.Key) {
			a.l = append(a.l, u)
		}
	}
	a.l = append(a.l, l2...)
	l := dropSupersededDels(a.l, a)

	// Definition 5.1: vertices are keys; each DEL node in L contributes the
	// edge key → delPred2. Each vertex has at most one outgoing edge and
	// edges strictly decrease, so reachability is chain-following.
	for _, u := range l {
		if u.Kind == unode.Del {
			if dp2 := u.DelPred2.Load(); dp2 != unode.NoKey {
				a.edge.put(u.Key, dp2)
			}
		}
	}

	// X: starting points — delPred of Druall's deletes and keys of INS
	// nodes in L (lines 247–248).
	for _, d := range druall {
		if !a.start.has(d.DelPred) {
			a.start.put(d.DelPred, 0)
			a.startKeys = append(a.startKeys, d.DelPred)
		}
	}
	for _, u := range l {
		if u.Kind == unode.Ins && !a.start.has(u.Key) {
			a.start.put(u.Key, 0)
			a.startKeys = append(a.startKeys, u.Key)
		}
	}

	// R: sinks reachable from X, minus keys deleted before we started
	// (lines 249–250); result is the largest member (line 251).
	for _, d := range druall {
		a.deleted.put(d.Key, 0)
	}
	best := int64(-1)
	for _, x := range a.startKeys {
		w := x
		for {
			next, ok := a.edge.get(w)
			if !ok {
				break // w is a sink
			}
			w = next
		}
		if !a.deleted.has(w) {
			best = maxKey(best, w)
		}
	}
	return best
}

// collectNotifiedUpdates appends to a.l1 the update nodes that notified p
// with key below y, oldest notification first, deduplicated on first
// (newest) occurrence.
func collectNotifiedUpdates(p *PredNode, y int64, a *arena) []*unode.UpdateNode {
	for n := p.notifyHead.Load(); n != nil; n = n.next {
		if n.key >= y {
			continue
		}
		if !a.notified.has(n.updateNode, n.key) {
			a.notified.add(n.updateNode, n.key)
			a.l1 = append(a.l1, n.updateNode)
		}
	}
	return reverseNodes(a.l1)
}

// dropSupersededDels removes DEL nodes that are not the last update node in
// l carrying their key (paper line 243), so each key has at most one DEL —
// the most recent hand-off. In-place; uses the arena's lastIdx table.
func dropSupersededDels(l []*unode.UpdateNode, a *arena) []*unode.UpdateNode {
	for i, u := range l {
		a.lastIdx.put(u.Key, int64(i))
	}
	out := l[:0]
	for i, u := range l {
		if u.Kind == unode.Del {
			if last, ok := a.lastIdx.get(u.Key); ok && last != int64(i) {
				continue
			}
		}
		out = append(out, u)
	}
	return out
}

func reverseNodes(s []*unode.UpdateNode) []*unode.UpdateNode {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

func containsNode(s []*unode.UpdateNode, n *unode.UpdateNode) bool {
	for _, x := range s {
		if x == n {
			return true
		}
	}
	return false
}

func maxKey(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
