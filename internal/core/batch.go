package core

import (
	"sync"

	"repro/internal/ebr"
	"repro/internal/unode"
)

// BatchOp is one operation of an ApplyBatch call. Key and Del are inputs;
// Won is an output, reporting whether this operation performed the
// absent→present (present→absent) transition — the same contract as
// Add/Remove, which the sharded layer's occupancy counters hang off.
type BatchOp struct {
	// Key is the operation's key.
	Key int64
	// Del selects Delete (true) or Insert (false).
	Del bool
	// Won reports, after ApplyBatch returns, whether this operation won
	// its latest[Key] CAS and became the linearization point of a state
	// transition. A no-op (inserting a present key, deleting an absent
	// one, or losing to a concurrent same-key update) reports false.
	Won bool
}

// batchScratch holds the op-local slices of one ApplyBatch call. Like the
// predecessor arena (arena.go), nothing in it is ever CAS-published, so
// pooling is ABA-safe; the update nodes the slices point at are fresh per
// call and release clears the pointers.
type batchScratch struct {
	nodes []*unode.UpdateNode // prepared nodes, ascending key order
	old   []*unode.UpdateNode // old[i]: the latest node phase 1 read for nodes[i]
	idx   []int               // nodes[i] implements ops[idx[i]]
}

// announceChunk is the announcement granularity of ApplyBatch: prepared
// nodes enter the U-ALL one InsertRun pass per announceChunk ops. See the
// phase 2+3 comment in ApplyBatch for the walk-cost bound it buys.
const announceChunk = 32

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (b *batchScratch) release() {
	for i := range b.nodes {
		b.nodes[i] = nil
		b.old[i] = nil
	}
	b.nodes, b.old, b.idx = b.nodes[:0], b.old[:0], b.idx[:0]
	batchPool.Put(b)
}

// ApplyBatch applies a batch of update operations with one announcement
// pass per list instead of one per operation — the core entrypoint of the
// combining layer (internal/combine, DESIGN.md §Combining layer).
//
// Precondition: ops is sorted by strictly ascending Key (one op per key;
// combine.SortDedup produces this form) and every key is in [0, U()).
//
// The batch deviates from the per-op protocol (Add/Remove) in exactly
// one way, confined to the U-ALL and invisible to concurrent operations:
//
//   - Announce-early: every prepared update node is linked into U-ALL in
//     a single InsertRun pass BEFORE its latest[x] CAS, instead of
//     between the CAS and the activation. An announced node that is
//     still inactive and not in any latest list is skipped by every
//     traversal (traverseUall checks the status, firstActivated fails)
//     and unreachable by helpers (helpActivate only sees latest-list
//     nodes), so widening the announced window on the early side changes
//     no observable behaviour. Each op still RETIRES its U-ALL cell at
//     the per-op protocol point (after its Completed store); cells of
//     ops that lost their CAS or proved no-ops in phase 3 — never
//     activated, so never referenced — are swept as their turn passes.
//
// Everything downstream of the announcement stays on exact per-op
// timing, and for a reason: batch-wide windows on the announcement lists
// are quadratic in batch size. A cell parked in the RU-ALL is walked,
// through the atomic-copy slot, by EVERY embedded predecessor of every
// delete in the batch (traverseRUall cannot skip cells without visiting
// them); an applied-but-unretired U-ALL cell is walked AND collected by
// every notifyPredOps full scan (it is active and firstActivated). Both
// were tried batch-wide first, and a b-op update-heavy batch paid O(b²)
// traversal steps where per-op pays O(b·ċ). With per-op windows the
// scans stay O(ċ) — the only residue of announce-early is that scans
// walk (and skip in O(1), on a status load) the still-inactive cells of
// ops the batch has not reached yet — and the amortized bound stays the
// intended O(batch·(ċ² + log u)).
//
// Everything else — the latest-list CAS, activation (the linearization
// point), interpreted-bit updates, embedded predecessors of deletes, and
// notifications — is the unmodified per-op protocol, executed op by op in
// ascending key order. An op whose CAS fails is NOT retried (same single-
// attempt contract as Add/Remove: the interfering operation reports the
// transition); its dead node is never activated, never enters the
// RU-ALL, and its U-ALL cell is swept as its turn in phase 3 passes.
//
// Each operation linearizes individually (at its own activation or at the
// findLatest read that proved it a no-op); the batch as a whole announces
// once per list pass. Wall-clock cost: O(batch · (ċ² + log u)) amortized.
func (t *Trie) ApplyBatch(ops []BatchOp) {
	switch len(ops) {
	case 0:
		return
	case 1:
		// A single op gains nothing from the batch phases; the per-op
		// path announces and retires tightly.
		if ops[0].Del {
			ops[0].Won = t.Remove(ops[0].Key)
		} else {
			ops[0].Won = t.Add(ops[0].Key)
		}
		return
	}
	b := batchPool.Get().(*batchScratch)
	defer b.release()

	// Pinning is per phase, and per OP inside phase 3 — NOT one pin for
	// the whole call. A batch-long pin parks this goroutine's epoch for
	// the entire sweep, so nothing retired during the batch (announcement
	// cells, predecessor nodes, notify slabs — everything the deletes'
	// embedded predecessors churn through) can reach its pool until the
	// batch ends: the pools drain, every op allocates fresh, and the
	// batch path pays GC costs the per-op path never sees. Per-op pin
	// granularity is exactly what Add/Remove do, and the only references
	// held across ops (b.nodes) are this batch's own freshly-allocated
	// nodes, not pool-managed memory.

	// --- Phase 1: prepare. The latest-list read both classifies obvious
	// no-ops (those ops linearize here, at the read) and yields the node
	// the phase-3 CAS will expect. Deletes read without materializing a
	// dummy, as Remove does. Unpinned, like the per-op fast path.
	for i := range ops {
		ops[i].Won = false
		var cur *unode.UpdateNode
		if ops[i].Del {
			cur = t.peekLatest(ops[i].Key)
			if cur == nil || cur.Kind != unode.Ins {
				continue // absent: Delete is a no-op
			}
			b.nodes = append(b.nodes, unode.NewDel(ops[i].Key, t.b))
		} else {
			cur = t.findLatest(ops[i].Key)
			if cur.Kind != unode.Del {
				continue // present: Insert is a no-op
			}
			b.nodes = append(b.nodes, unode.NewIns(ops[i].Key))
		}
		b.old = append(b.old, cur)
		b.idx = append(b.idx, i)
	}
	if len(b.nodes) == 0 {
		return
	}

	// --- Phases 2+3, interleaved per chunk of announceChunk ops.
	//
	// Phase 2 (announce): one search pass links a chunk's prepared nodes
	// into the U-ALL; the nodes are inactive, hence invisible, until their
	// phase-3 activation. The RU-ALL is NOT pre-announced — each op links
	// and unlinks its own cell at the per-op protocol's points, so the
	// embedded-predecessor scans of this batch's deletes never wade
	// through the whole batch (see the quadratic-cost note above).
	//
	// Chunking bounds the one residual cost of announce-early: a full
	// U-ALL scan (every delete's two notifyPredOps calls do one — the
	// delete's own first embedded predecessor is announced in the P-ALL,
	// so the scan cannot be skipped) walks the still-inactive cells of
	// ops the batch has not reached yet. Announcing all b up front makes
	// that walk O(b) per delete; announcing announceChunk at a time caps
	// it at O(announceChunk) while a combining round of typical size
	// (≲ announceChunk; cb1 measures a mean round of ~8) still announces
	// in exactly one pass.
	//
	// Phase 3 (apply): op by op, via the per-op protocol minus its U-ALL
	// announce step. One pin per op (see above). An op that wins retires
	// its own U-ALL cell inside the apply (per-op ordering); a dead
	// node's cell — never activated, never referenced — is swept here
	// before moving on, keeping the list's active region O(ċ).
	for lo := 0; lo < len(b.nodes); lo += announceChunk {
		hi := min(lo+announceChunk, len(b.nodes))
		if t.stats != nil {
			t.stats.Announces.Add(1)
		}
		s := t.dom.Pin()
		t.uall.InsertRun(b.nodes[lo:hi], s)
		s.Unpin()

		for i := lo; i < hi; i++ {
			n := b.nodes[i]
			op := &ops[b.idx[i]]
			s := t.dom.Pin()
			if op.Del {
				op.Won = t.applyBatchedDelete(n, b.old[i], s)
			} else {
				op.Won = t.applyBatchedInsert(n, b.old[i], s)
			}
			if !op.Won {
				t.uall.Remove(n, s)
			}
			s.Unpin()
		}
	}
}

// applyBatchedInsert is Add (paper lines 162–180) for a node that is
// already announced, with dNode the DEL node phase 1's findLatest read —
// reused here as the CAS expectation instead of a second read. The per-op
// protocol itself holds one findLatest result across a wide window (Remove
// reads once, then runs a whole embedded predecessor before its CAS), so
// the only effect of the wider gap is the one the single-attempt contract
// already covers: interference in the gap fails the CAS and the op reports
// no transition. Returns whether the insert won.
func (t *Trie) applyBatchedInsert(iNode, dNode *unode.UpdateNode, s *ebr.Slot) bool {
	x := iNode.Key
	iNode.LatestNext.Store(dNode)
	if ln := dNode.LatestNext.Load(); ln != nil { // line 168
		if tg := ln.Target.Load(); tg != nil {
			tg.Stop.Store(true)
		}
	}
	dNode.LatestNext.Store(nil) // line 169
	t.bits.MarkEverInserted(x)  // summary publication contract (bitstrie)
	if !t.latest[x].CompareAndSwap(dNode, iNode) {
		t.helpActivate(t.latest[x].Load(), s) // line 171
		return false
	}
	t.ruall.Insert(iNode, s)               // line 173 (U-ALL half done in phase 2)
	iNode.Status.Store(unode.StatusActive) // line 174: linearization point
	iNode.LatestNext.Store(nil)            // line 175
	t.bits.InsertBinaryTrie(iNode)         // line 176
	t.notifyPredOps(iNode)                 // line 177
	iNode.Completed.Store(true)            // line 178
	t.uall.Remove(iNode, s)                // line 179
	t.ruall.Remove(iNode, s)
	return true
}

// applyBatchedDelete is Remove (paper lines 181–206) for a node that is
// already announced, with iNode the INS node phase 1's findLatest read
// (the CAS expectation — see applyBatchedInsert on why one read suffices).
// The DEL node's embedded-predecessor fields are set here, before the
// publishing CAS — they are plain fields, and no reader reaches them until
// the node is activated (which orders after).
func (t *Trie) applyBatchedDelete(dNode, iNode *unode.UpdateNode, s *ebr.Slot) bool {
	x := dNode.Key
	delPred, pNode1 := t.predHelper(x, s) // line 184: first embedded predecessor
	dNode.DelPred = delPred
	setDelPredNode(dNode, pNode1)
	dNode.LatestNext.Store(iNode)
	iNode.LatestNext.Store(nil) // line 190
	t.notifyPredOps(iNode)      // line 191
	if !t.latest[x].CompareAndSwap(iNode, dNode) {
		t.helpActivate(t.latest[x].Load(), s) // line 193
		t.pall.remove(pNode1, s)              // line 194: never published in dNode
		return false
	}
	t.ruall.Insert(dNode, s)                  // line 196 (U-ALL half done in phase 2)
	dNode.Status.Store(unode.StatusActive)    // line 197: linearization point
	if tg := iNode.Target.Load(); tg != nil { // line 198
		tg.Stop.Store(true)
	}
	dNode.LatestNext.Store(nil)            // line 199
	delPred2, pNode2 := t.predHelper(x, s) // line 200
	dNode.DelPred2.Store(delPred2)         // line 201
	t.bits.DeleteBinaryTrie(dNode)         // line 202
	t.notifyPredOps(dNode)                 // line 203
	dNode.Completed.Store(true)            // line 204
	t.uall.Remove(dNode, s)                // line 205
	t.ruall.Remove(dNode, s)
	// pNode1 retires normally (line 206): the only deref of a published
	// DelPredNode is bottomCase's, on DEL nodes captured from an RU-ALL
	// traversal — and dNode's announcement cells were unlinked just above,
	// before this retire, exactly the per-op ordering the pool's epoch
	// argument needs (pall.go). (An earlier revision, whose announcement
	// windows were batch-wide, had to leak pNode1 to the GC here; with
	// per-op windows that cost is gone.)
	t.pall.remove(pNode1, s)
	t.pall.remove(pNode2, s)
	return true
}
