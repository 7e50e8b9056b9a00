package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/alist"
	"repro/internal/ebr"
	"repro/internal/unode"
)

// PredNode is a predecessor announcement (paper lines 105–108). One is
// created per PredHelper instance — standalone Predecessor operations make
// one, Delete operations make two (their embedded predecessors) that stay
// announced until the Delete finishes.
//
// Like alist.Cell, a PredNode embeds the successor references whose
// lifetime is bounded by the node's own: selfRef/linkRef are written only
// while the node is private to the announcing goroutine (a failed CAS
// publishes nothing); markRef is written only by the owner (pall.remove
// is owner-only). Unlink refs are NOT embedded — an installed unlink ref
// lives in the predecessor's next field until an arbitrarily later CAS
// displaces it, which can be long after the unlinked node recycles — so
// they come from predRefPool with the displacing CAS as their retire
// point, exactly as in alist.
//
// PredNodes are pooled under epoch-based reclamation. The references that
// outlive the announcement window — P-ALL snapshots, the preds table of the
// Definition 5.1 recovery, and a DEL node's DelPredNode link — are all
// obtained by a pinned operation starting from state it reached under its
// own pin (the P-ALL head, or a DEL node met in its own RU-ALL traversal,
// which implies the owning Delete had not yet removed its announcements
// when the pin began), so the node's retire orders after every such pin
// and recycling waits for them all. See DESIGN.md §Memory & reclamation.
type PredNode struct {
	// key is the predecessor operation's input key y (immutable).
	key int64
	// notifyHead is the insert-only notify list (paper line 107); update
	// operations prepend notify nodes with CAS.
	notifyHead atomic.Pointer[notifyNode]
	// ruallPos publishes the RU-ALL cell this operation is currently
	// visiting (paper line 108). Written only by the owner via atomic copy;
	// read by updaters computing notify thresholds.
	ruallPos alist.Pos

	// next/marked form the P-ALL link (lock-free list with logical
	// deletion; insertions only at the head).
	next atomic.Pointer[predRef]

	selfRef predRef // initial successor ref; written pre-publication
	linkRef predRef // {next: this node}; constant content
	markRef predRef // owner-written marked ref
}

// setDelPredNode links DEL node d to the PredNode of its Delete's first
// embedded predecessor (paper line 102). unode stores the link as an
// untyped pointer, since it cannot import core; this pair of accessors is
// the only place that converts it.
func setDelPredNode(d *unode.UpdateNode, pn *PredNode) { d.DelPredNode = unsafe.Pointer(pn) }

// delPredNode returns DEL node d's first-embedded-predecessor PredNode, or
// nil.
func delPredNode(d *unode.UpdateNode) *PredNode { return (*PredNode)(d.DelPredNode) }

type predRef struct {
	next   *PredNode
	marked bool
	// pooled marks standalone unlink refs from predRefPool; a displaced
	// pooled ref is retired by the displacing CAS winner (embedded refs
	// die with their node).
	pooled bool
}

// predRefPool recycles the standalone unlink references cleanup installs;
// same lifecycle as alist's refPool.
var predRefPool = sync.Pool{New: func() any { return new(predRef) }}

// newPredUnlinkRef draws a pooled ref for an unlink CAS; private until
// that CAS publishes it.
func newPredUnlinkRef(next *PredNode) *predRef {
	r := predRefPool.Get().(*predRef)
	r.next = next
	r.marked = false
	r.pooled = true
	return r
}

// Recycle implements ebr.Recyclable for pooled unlink refs.
func (r *predRef) Recycle() {
	r.next = nil
	predRefPool.Put(r)
}

// retireDisplacedPredRef retires the reference a successful next-field CAS
// just displaced, if pooled. A nil slot leaves it to the GC.
func retireDisplacedPredRef(r *predRef, s *ebr.Slot) {
	if r.pooled && s != nil {
		s.Retire(r)
	}
}

// Key returns the announced key (tests and trieviz).
func (p *PredNode) Key() int64 { return p.key }

// notifyNode is one notification (paper lines 109–113). All fields are
// immutable once the node is published by the CAS in sendNotification.
// Nodes are drawn from per-operation slabs (notify.go); slab points back to
// the block this node lives in so PredNode.Recycle can release it.
type notifyNode struct {
	key             int64
	updateNode      *unode.UpdateNode
	updateNodeMax   *unode.UpdateNode // INS node with largest key < pNode.key seen in U-ALL; may be nil (⊥)
	notifyThreshold int64
	next            *notifyNode
	slab            *notifySlab // owning slab; nil for directly constructed nodes (tests)
}

// predNodePool recycles announcement nodes under EBR grace periods.
var predNodePool = sync.Pool{New: func() any { return new(PredNode) }}

// newPredNode builds an announcement for key y with ruallPos pointing at
// the RU-ALL head sentinel (key +∞), per paper line 108. Allocation-free in
// steady state: the node comes from the EBR-guarded pool (the position slot
// interns the head's resolved cell). The node is private until pall.insert
// publishes it, so plain writes re-arm the embedded refs and the one-shot
// claim, whose state survived the previous incarnation.
func newPredNode(y int64, ruallHead *alist.Cell) *PredNode {
	p := predNodePool.Get().(*PredNode)
	p.key = y
	p.ruallPos.Init(ruallHead)
	p.selfRef = predRef{}
	p.markRef = predRef{}
	p.linkRef.next = p
	p.next.Store(&p.selfRef)
	return p
}

// Recycle implements ebr.Recyclable: called once per retired node after its
// grace period, when no pinned operation can still reach it. It releases
// the node's notifications back to their slabs (notify.go) — safe for the
// same reason the node itself is: the notify list is only reachable through
// the node.
func (p *PredNode) Recycle() {
	for n := p.notifyHead.Load(); n != nil; {
		next := n.next
		if n.slab != nil {
			n.slab.release()
		}
		n = next
	}
	p.notifyHead.Store(nil)
	predNodePool.Put(p)
}

// pall is the predecessor announcement list: a lock-free linked list with
// head insertion and logical deletion. The zero value must be initialized
// with init.
type pall struct {
	head PredNode // sentinel; never marked
}

func (l *pall) init() {
	l.head.next.Store(&l.head.selfRef)
}

// insert links n at the head of the list. Allocation-free: both published
// refs are embedded in n and written before the linking CAS publishes
// them. s is the caller's pin, used to retire a pooled unlink ref the
// linking CAS displaces from the head.
func (l *pall) insert(n *PredNode, s *ebr.Slot) {
	for {
		r := l.head.next.Load()
		n.selfRef.next = r.next
		n.next.Store(&n.selfRef)
		if l.head.next.CompareAndSwap(r, &n.linkRef) {
			retireDisplacedPredRef(r, s)
			return
		}
	}
}

// remove marks n deleted and physically unlinks marked nodes. Owner-only
// (each operation removes exactly its own announcements), which is what
// makes the embedded markRef single-writer; removing a node twice is a
// harmless no-op. s is the caller's pin, used to retire unlinked nodes.
func (l *pall) remove(n *PredNode, s *ebr.Slot) {
	for {
		r := n.next.Load()
		if r.marked {
			break
		}
		n.markRef.next = r.next
		n.markRef.marked = true
		if n.next.CompareAndSwap(r, &n.markRef) {
			retireDisplacedPredRef(r, s)
			break
		}
	}
	l.cleanup(s)
}

// cleanup unlinks every marked node it can reach, retiring each on s (the
// unlink CAS is the unique retire point: its success proves pred was
// unmarked — hence reachable — at that instant, exactly as in
// alist.search). Restarting on CAS failure keeps it lock-free; the list
// length is bounded by point contention so the scan is O(ċ).
func (l *pall) cleanup(s *ebr.Slot) {
retry:
	for {
		pred := &l.head
		predRef0 := pred.next.Load()
		if predRef0.marked {
			return // unreachable for the sentinel, defensive
		}
		cur := predRef0.next
		for cur != nil {
			curRef := cur.next.Load()
			if curRef.marked {
				ur := newPredUnlinkRef(curRef.next)
				if !pred.next.CompareAndSwap(predRef0, ur) {
					ur.Recycle() // never published
					continue retry
				}
				retireDisplacedPredRef(predRef0, s)
				if s != nil {
					s.Retire(cur)
				}
				predRef0 = pred.next.Load()
				if predRef0.marked {
					continue retry
				}
				cur = predRef0.next
				continue
			}
			pred, predRef0 = cur, curRef
			cur = curRef.next
		}
		return
	}
}

// empty reports whether the list has no nodes at all (marked nodes count
// as present — the check is conservative). One atomic load; callers use it
// to skip work whose only consumers would be announced predecessors.
func (l *pall) empty() bool {
	return l.head.next.Load().next == nil
}

// forEach visits the unmarked nodes from newest to oldest, stopping early if
// f returns false.
func (l *pall) forEach(f func(*PredNode) bool) {
	r := l.head.next.Load()
	for cur := r.next; cur != nil; {
		curRef := cur.next.Load()
		if !curRef.marked {
			if !f(cur) {
				return
			}
		}
		cur = curRef.next
	}
}

// snapshotAfter appends to a.q the announcement nodes following p in list
// order (newest→oldest), including marked ones — the paper's sequence Q
// (lines 210–214) prepends them, so "earliest in Q" is the LAST element
// here. The result is arena-backed scratch: valid only until a.release.
func snapshotAfter(p *PredNode, a *arena) []*PredNode {
	r := p.next.Load()
	for cur := r.next; cur != nil; {
		a.q = append(a.q, cur)
		cur = cur.next.Load().next
	}
	return a.q
}

// len counts unmarked nodes (metrics; O(n)).
func (l *pall) len() int {
	n := 0
	l.forEach(func(*PredNode) bool { n++; return true })
	return n
}
