package core

import (
	"repro/internal/bitstrie"
	"repro/internal/ebr"
	"repro/internal/unode"
)

// oracle adapts the §5 latest lists to the bitstrie engine (paper lines
// 116–127). Unlike the relaxed trie's single-pointer latest, a §5 latest[x]
// list holds up to two update nodes and the first *activated* one defines
// membership.
type oracle Trie

var _ bitstrie.Oracle = (*oracle)(nil)

func (o *oracle) PeekLatest(x int64) *unode.UpdateNode {
	return (*Trie)(o).peekLatest(x)
}

func (o *oracle) FindLatest(x int64) *unode.UpdateNode {
	return (*Trie)(o).findLatest(x)
}

func (o *oracle) FirstActivated(n *unode.UpdateNode) bool {
	return (*Trie)(o).firstActivated(n)
}

// loadLatest returns latest[x], materializing the dummy DEL node on first
// touch (see DESIGN.md: the nil pointer stands for the paper's initial
// per-key dummy).
func (t *Trie) loadLatest(x int64) *unode.UpdateNode {
	if p := t.latest[x].Load(); p != nil {
		return p
	}
	t.latest[x].CompareAndSwap(nil, unode.NewDummyDel(x, t.b))
	return t.latest[x].Load()
}

// findLatest returns the first activated update node in the latest[x] list
// (paper lines 116–120, Lemma 5.4), materializing x's dummy DEL node on
// first touch. Only insert paths call it: they need the published dummy as
// their CAS expectation and MinWrite target.
func (t *Trie) findLatest(x int64) *unode.UpdateNode {
	return firstActive(t.loadLatest(x))
}

// peekLatest is findLatest without materialization: nil stands for x's
// untouched initial dummy DEL node (bitstrie.Oracle's PeekLatest). Readers
// and deletes use it, so they never allocate or publish a dummy.
func (t *Trie) peekLatest(x int64) *unode.UpdateNode {
	if uNode := t.latest[x].Load(); uNode != nil {
		return firstActive(uNode)
	}
	return nil
}

// firstActive resolves the head uNode of a latest list to the list's first
// activated node.
func firstActive(uNode *unode.UpdateNode) *unode.UpdateNode {
	if !uNode.Active() {
		if uNode2 := uNode.LatestNext.Load(); uNode2 != nil {
			return uNode2
		}
		// uNode was activated between the status read and the latestNext
		// read (its latestNext was already reset to ⊥).
	}
	return uNode
}

// firstActivated reports whether n is the first activated update node in
// the latest[n.Key] list (paper lines 125–127, Lemmas 5.7–5.8).
func (t *Trie) firstActivated(n *unode.UpdateNode) bool {
	uNode := t.latest[n.Key].Load()
	if uNode == nil {
		// Virtual dummy is the latest; n is a concrete superseded node.
		return false
	}
	return uNode == n ||
		(!uNode.Active() && uNode.LatestNext.Load() == n)
}

// helpActivate helps the S-modifying operation that owns uNode get
// linearized (paper lines 128–136): announce it in both announcement lists,
// flip its status, perform the stop handshake for DEL nodes, reopen the
// latest list, and — if the owner already finished — undo the announcement
// we may have just re-added. s is the caller's EBR pin: this is the
// re-publication path the four-epoch grace covers (the re-inserted
// announcement can briefly lead readers to already-retired state; see
// internal/ebr's package comment), so callers must hold s for the whole
// call.
func (t *Trie) helpActivate(uNode *unode.UpdateNode, s *ebr.Slot) {
	if uNode == nil || uNode.DummyNode {
		return
	}
	if uNode.Active() {
		return
	}
	if t.stats != nil {
		t.stats.HelpActivations.Add(1)
		t.stats.Announces.Add(1)
	}
	t.uall.Insert(uNode, s) // line 130
	t.ruall.Insert(uNode, s)
	uNode.Activate() // line 131
	if uNode.Kind == unode.Del {
		// Line 133: uNode.latestNext.target.stop ← true, ignoring ⊥ links.
		if ln := uNode.LatestNext.Load(); ln != nil {
			if tg := ln.Ins().Target.Load(); tg != nil {
				tg.SetStop()
			}
		}
	}
	uNode.LatestNext.Store(nil) // line 134
	if uNode.Completed() {      // line 135
		t.uall.Remove(uNode, s) // line 136
		t.ruall.Remove(uNode, s)
	}
}
