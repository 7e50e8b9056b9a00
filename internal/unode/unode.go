// Package unode defines the update nodes shared by the relaxed binary trie
// (paper §4, Figure 4) and the lock-free binary trie (paper §5, Figure 6),
// together with the bounded min-register used for lower1Boundary.
//
// Every update node starts with the same 24-byte header, UpdateNode, and
// every pointer to one is an *UpdateNode. Behind the header each kind
// allocates only the fields it uses: an INS node adds Target (InsNode,
// 32 B), a DEL node adds the boundaries and the embedded-predecessor
// results (DelNode, 64 B), and the dummy DEL node that stands for a key
// no insert has touched adds only lower1Boundary (32 B, the first part of
// a DelNode). Ins, Del, Lower1 and Upper0 reach the per-kind fields; each
// checks the kind and panics on a node of the wrong one. The §5 status,
// completed and stop flags share one atomic word in the header; the §4
// trie creates its nodes active and never reads completed. Immutable
// fields are plain; fields that are written while the node is shared are
// atomics.
package unode

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Kind discriminates INS nodes (created by insert operations) from DEL nodes
// (created by delete operations). The kind of a node is immutable.
type Kind uint8

const (
	// Ins marks an update node created by an Insert (TrieInsert) operation.
	Ins Kind = iota + 1
	// Del marks an update node created by a Delete (TrieDelete) operation.
	Del
)

// String implements fmt.Stringer for debugging output and trieviz.
func (k Kind) String() string {
	switch k {
	case Ins:
		return "INS"
	case Del:
		return "DEL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoKey is the ⊥ placeholder for delPred2 (paper line 104) before the second
// embedded predecessor of a Delete operation has completed.
const NoKey int64 = math.MinInt64

// MinRegister is a bounded min-register over {0,…,63}, implemented exactly as
// the paper proposes (§1, "a min-write on a (b+1)-bit memory location can be
// implemented using a single (b+1)-bit AND operation"): the value v is
// represented by the word (1<<v)−1, so MinWrite(w) is one atomic AND with
// (1<<w)−1 and Read is a population-length computation. The stored value
// never increases.
type MinRegister struct {
	word atomic.Uint64
}

// Init sets the initial value. It must be called before the register is
// shared; it is a plain (non-RMW) store.
func (m *MinRegister) Init(v int) {
	m.word.Store(minRegisterMask(v))
}

// Read returns the current value of the register.
func (m *MinRegister) Read() int {
	return bits.Len64(m.word.Load())
}

// MinWrite lowers the register to v if v is smaller than the current value,
// using a single atomic AND.
func (m *MinRegister) MinWrite(v int) {
	m.word.And(minRegisterMask(v))
}

func minRegisterMask(v int) uint64 {
	switch {
	case v <= 0:
		return 0
	case v >= 64:
		return ^uint64(0)
	default:
		return (uint64(1) << uint(v)) - 1
	}
}

// UpdateNode is the header of an INS or DEL node (paper Figures 4 and 6).
// One node is created per S-modifying attempt of an Insert/Delete
// operation; it is published by a CAS on latest[key] and thereafter
// shared. NewIns, NewDel and NewDummyDel allocate the layout of the kind
// behind the header; never allocate an UpdateNode on its own.
//
// Two words, the flags word and the two tags: 24 B with its padding.
type UpdateNode struct {
	// Key is the operation's input key (immutable).
	Key int64
	// LatestNext is the next node in the latest[key] list (paper line
	// 8/95). In §5 it is initialized to the previous latest node and
	// changes exactly once, to nil.
	LatestNext atomic.Pointer[UpdateNode]
	// flags packs status (paper line 94), completed (line 98) and stop
	// (line 7/97). Each bit changes once, false→true, by an atomic OR,
	// and is never cleared; see DESIGN.md §The dummy DEL convention.
	flags atomic.Uint32
	// Kind is Ins or Del (immutable).
	Kind Kind
	// DummyNode marks the lazily materialized dummy DEL node that stands
	// for "key never inserted" (see DESIGN.md). Dummies are always active,
	// read upper0Boundary = b through Upper0 and start with lower1Boundary
	// = b+1. Only insert paths materialize one; readers treat a nil
	// latest[key] as the dummy.
	DummyNode bool
}

// Bits of UpdateNode.flags.
const (
	flagActive    uint32 = 1 << iota // status = Active (§5; §4 nodes are born active)
	flagCompleted                    // the creating operation finished (§5)
	flagStop                         // a DEL node's Delete must stop (§4 and §5)
)

// InsNode is the layout of an INS node: the header and Target, 32 B.
type InsNode struct {
	UpdateNode
	// Target points to the DEL node a TrieInsert is attacking (paper line
	// 5/96): the insert will MinWrite that DEL node's lower1Boundary. It
	// may be a materialized dummy.
	Target atomic.Pointer[UpdateNode]
}

// delHead is what every DEL node starts with and all a dummy DEL node
// is: the header and lower1Boundary, 32 B. A dummy's upper0Boundary is b
// from creation and never written, so it is not stored.
type delHead struct {
	UpdateNode
	// Lower1Boundary: all trie nodes at height ≥ this value that depend on
	// this node have interpreted bit 1 (paper line 10/101). Initially b+1;
	// lowered by inserts via MinWrite.
	Lower1Boundary MinRegister
}

// DelNode is the layout of a DEL node that a Delete created: delHead,
// the embedded-predecessor results and upper0Boundary, 64 B. A dummy DEL
// node is only its delHead.
type DelNode struct {
	delHead

	// DelPredNode is the predecessor node of the Delete operation's first
	// embedded predecessor (§5 only, paper line 102; immutable once the
	// node is published). It holds core's *PredNode as an untyped pointer,
	// because unode cannot import core; core's setDelPredNode/delPredNode
	// pair is the only code that converts it.
	DelPredNode unsafe.Pointer
	// DelPred is the result of the first embedded predecessor (paper line
	// 103; immutable once published).
	DelPred int64
	// DelPred2 is the result of the second embedded predecessor (paper line
	// 104). It transitions once from NoKey to a key in U ∪ {−1}.
	DelPred2 atomic.Int64
	// Upper0Boundary: all trie nodes at height ≤ this value that depend on
	// this node have interpreted bit 0 (paper line 9/100). Only the
	// creating Delete writes it, incrementing from 0 one level at a time
	// (Lemma 4.13).
	Upper0Boundary atomic.Int32
}

// NewIns returns a fresh INS node for key. The §5 caller must still set
// LatestNext before publishing.
func NewIns(key int64) *UpdateNode {
	n := &InsNode{UpdateNode: UpdateNode{Key: key, Kind: Ins}}
	return &n.UpdateNode
}

// NewDel returns a fresh DEL node for key with lower1Boundary = b+1 and
// upper0Boundary = 0 (paper Figure 4 initial values).
func NewDel(key int64, b int) *UpdateNode {
	n := &DelNode{delHead: delHead{UpdateNode: UpdateNode{Key: key, Kind: Del}}}
	n.Lower1Boundary.Init(b + 1)
	n.DelPred2.Store(NoKey)
	return &n.UpdateNode
}

// NewDummyDel returns the materialized dummy DEL node for key: active,
// upper0Boundary = b and lower1Boundary = b+1, so every trie node depending
// on it has interpreted bit 0, matching the initial empty set.
func NewDummyDel(key int64, b int) *UpdateNode {
	n := &delHead{UpdateNode: UpdateNode{Key: key, Kind: Del, DummyNode: true}}
	n.flags.Store(flagActive)
	n.Lower1Boundary.Init(b + 1)
	return &n.UpdateNode
}

// Ins returns the INS layout behind n. It panics unless n is an INS node.
func (n *UpdateNode) Ins() *InsNode {
	if n.Kind != Ins {
		panic("unode: Ins of a node that is not INS")
	}
	return (*InsNode)(unsafe.Pointer(n))
}

// Del returns the DEL layout behind n. It panics unless n is a DEL node a
// Delete created: an INS node has no DEL fields, and a dummy's allocation
// ends after Lower1Boundary. Only DEL nodes taken from the announcement
// lists or a notify list reach DelPred, DelPred2 and DelPredNode, and no
// dummy is ever announced.
func (n *UpdateNode) Del() *DelNode {
	if n.Kind != Del || n.DummyNode {
		panic("unode: Del of a node that is not a non-dummy DEL")
	}
	return (*DelNode)(unsafe.Pointer(n))
}

// Lower1 returns the lower1Boundary register of a DEL node or a dummy. It
// panics on an INS node.
func (n *UpdateNode) Lower1() *MinRegister {
	if n.Kind != Del {
		panic("unode: Lower1 of an INS node")
	}
	return &(*delHead)(unsafe.Pointer(n)).Lower1Boundary
}

// Upper0 returns the upper0Boundary of a DEL node, or b for a dummy. It
// panics on an INS node.
func (n *UpdateNode) Upper0(b int) int {
	if n.DummyNode {
		return b
	}
	return int(n.Del().Upper0Boundary.Load())
}

// Active reports whether the node has been announced (§5). Relaxed-trie
// nodes are created active by convention (§4.4.1: "we consider all update
// nodes to be active").
func (n *UpdateNode) Active() bool { return n.flags.Load()&flagActive != 0 }

// Activate changes the status from inactive to active (paper lines 131,
// 174, 197): the linearization point of the operation that created n.
func (n *UpdateNode) Activate() { n.flags.Or(flagActive) }

// Completed reports whether the creating operation finished updating the
// relaxed trie and notifying predecessors (§5 only, paper line 98), so
// helpers that re-inserted the node into the announcement lists must
// remove it again.
func (n *UpdateNode) Completed() bool { return n.flags.Load()&flagCompleted != 0 }

// SetCompleted sets completed (paper lines 178 and 204).
func (n *UpdateNode) SetCompleted() { n.flags.Or(flagCompleted) }

// Stopped reports whether the Delete operation that created this DEL node
// was told to stop updating interpreted bits (paper line 7/97).
func (n *UpdateNode) Stopped() bool { return n.flags.Load()&flagStop != 0 }

// SetStop tells the Delete operation that created this DEL node to stop
// (paper lines 34, 55, 133, 168, 198). An insert's Target may be a
// dummy, which no Delete created; its stop is set and never read.
func (n *UpdateNode) SetStop() { n.flags.Or(flagStop) }

// String renders the node for debugging and trieviz output.
func (n *UpdateNode) String() string {
	switch {
	case n == nil:
		return "<nil>"
	case n.DummyNode:
		return fmt.Sprintf("%s(%d){dummy l1b:%d}", n.Kind, n.Key, n.Lower1().Read())
	case n.Kind == Del:
		d := n.Del()
		return fmt.Sprintf("%s(%d){u0b:%d l1b:%d}", n.Kind, n.Key,
			d.Upper0Boundary.Load(), d.Lower1Boundary.Read())
	}
	return fmt.Sprintf("%s(%d)", n.Kind, n.Key)
}
