package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/alist"
	"repro/internal/unode"
)

// notifySlabSize is the number of notify nodes per slab: large enough that
// a notifying update amortizes the pool round-trip across the announced
// predecessors it notifies, small enough that a mostly-unused slab pinned
// by one long-lived notification wastes little.
const notifySlabSize = 8

// notifySlab is a block of notify nodes drawn by one operation at a time
// (the arena holds it; used is the owner-only draw cursor). live counts the
// published nodes plus one hold for the drawing operation; the last release
// returns the slab to the pool. A published node is released only by
// PredNode.Recycle — after the announcement's grace period — so a slab
// re-issues nodes only when no pinned operation can reach any of them.
type notifySlab struct {
	nodes [notifySlabSize]notifyNode
	used  int
	live  atomic.Int32
}

var notifySlabPool = sync.Pool{New: func() any { return new(notifySlab) }}

func getNotifySlab() *notifySlab {
	s := notifySlabPool.Get().(*notifySlab)
	s.used = 0
	s.live.Store(1) // the drawing operation's hold
	return s
}

// release drops one reference (a recycled notification, or the drawing
// operation's hold at arena release); the last one recycles the slab.
func (s *notifySlab) release() {
	if s.live.Add(-1) == 0 {
		notifySlabPool.Put(s)
	}
}

// traverseUall collects the update nodes with key < x that are announced in
// the U-ALL and currently first activated in their latest lists (paper
// lines 137–145). INS nodes are appended to a.iuall, DEL nodes to a.duall —
// arena-backed scratch, valid until a.release. Keys of ins are in S at some
// configuration during the traversal, keys of del are absent at some
// configuration (Lemma 5.16).
func (t *Trie) traverseUall(x int64, a *arena) (ins, del []*unode.UpdateNode) {
	steps := int64(0)
	for c := t.uall.Head().Next(); c != nil && c.Key < x; c = c.Next() {
		steps++
		u := c.Upd
		if u == nil {
			continue // sentinel
		}
		if u.Active() && t.firstActivated(u) {
			if u.Kind == unode.Ins {
				a.iuall = append(a.iuall, u)
			} else {
				a.duall = append(a.duall, u)
			}
		}
	}
	if t.stats != nil {
		t.stats.UallTraversalSteps.Add(steps)
	}
	return a.iuall, a.duall
}

// notifyPredOps notifies every announced predecessor operation about uNode
// (paper lines 146–155). It first scans the whole U-ALL so that each
// notification can carry updateNodeMax — the INS node with the largest key
// below the predecessor's key — which covers inserts that are linearized
// after the predecessor finished its own U-ALL traversal (Figure 9). It
// stops as soon as uNode is no longer the first activated node for its key.
func (t *Trie) notifyPredOps(uNode *unode.UpdateNode) {
	// With no predecessor announced there is no one to notify: the U-ALL
	// scan's only consumer is the loop below, and forEach takes a single
	// head snapshot anyway, so reading the head here — a few instructions
	// earlier inside the same execution window — is the same linearization
	// with the dead scan (and its arena round-trip) skipped. Predecessors
	// that announce after this read are exactly those that would have
	// missed forEach's snapshot too; they find uNode in their own U-ALL
	// traversal instead.
	if t.pall.empty() {
		return
	}
	a := getArena()
	defer a.release()
	ins, _ := t.traverseUall(alist.KeyPosInf, a) // line 147
	t.pall.forEach(func(pNode *PredNode) bool {
		if !t.firstActivated(uNode) { // line 149
			return false
		}
		n := a.notifyNode()
		n.key = uNode.Key
		n.updateNode = uNode
		n.updateNodeMax = maxInsBelow(ins, pNode.key)
		n.notifyThreshold = ruallPosKey(pNode)
		return t.sendNotification(n, pNode) // line 155
	})
}

// ruallPosKey reads the key of the RU-ALL cell the predecessor operation is
// currently visiting (paper line 154); +∞ before its traversal starts, −∞
// after it finishes.
func ruallPosKey(pNode *PredNode) int64 {
	cell := pNode.ruallPos.Read()
	if cell == nil {
		return alist.KeyPosInf // defensive: not yet initialized
	}
	return cell.Key
}

// maxInsBelow returns the INS node with the largest key strictly below
// bound, or nil (the paper's ⊥) if none (paper line 153).
func maxInsBelow(ins []*unode.UpdateNode, bound int64) *unode.UpdateNode {
	var best *unode.UpdateNode
	for _, n := range ins {
		if n.Key < bound && (best == nil || n.Key > best.Key) {
			best = n
		}
	}
	return best
}

// sendNotification prepends nNode to pNode's notify list with CAS (paper
// lines 156–161), re-validating that the update node is still first
// activated before every attempt. Returns false if the sender should stop
// notifying (the drawn node stays unpublished; its slab slot is simply
// unused until the slab's other references drain).
func (t *Trie) sendNotification(nNode *notifyNode, pNode *PredNode) bool {
	for {
		head := pNode.notifyHead.Load()
		nNode.next = head
		if !t.firstActivated(nNode.updateNode) { // line 160
			return false
		}
		if pNode.notifyHead.CompareAndSwap(head, nNode) { // line 161
			if nNode.slab != nil {
				// The published node now holds its slab until the owning
				// announcement recycles (we are still pinned, so this
				// cannot race the slab's other releases reaching zero).
				nNode.slab.live.Add(1)
			}
			if t.stats != nil {
				t.stats.Notifications.Add(1)
			}
			return true
		}
	}
}
