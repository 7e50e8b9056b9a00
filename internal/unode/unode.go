// Package unode defines the update nodes shared by the relaxed binary trie
// (paper §4, Figure 4) and the lock-free binary trie (paper §5, Figure 6),
// together with the bounded min-register used for lower1Boundary.
//
// A single node type serves both data structures: the §5 node is a strict
// superset of the §4 node (status, latestNext transitions, completed flag and
// the embedded-predecessor results are only used by the lock-free trie).
// Immutable fields are plain; fields that are written while the node is
// shared are atomics.
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

// Status values for the lock-free trie's update nodes (paper line 94). A
// node starts Inactive and changes exactly once to Active; the S-modifying
// operation that created it is linearized at that transition.
const (
	// StatusInactive is the initial status of a §5 update node.
	StatusInactive uint32 = iota
	// StatusActive marks an announced (linearized) update node.
	StatusActive
)

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

// UpdateNode is an INS or DEL node (paper Figures 4 and 6). One instance is
// created per S-modifying attempt of an Insert/Delete operation; the node is
// published by a CAS on latest[key] and thereafter shared.
//
// Fields are ordered by size (8-byte words, then 4-byte atomics, then the
// one-byte tags) so the struct carries no padding beyond its tail and
// takes the 80-byte allocation size class.
type UpdateNode struct {
	// Key is the operation's input key (immutable).
	Key int64

	// Target points to the DEL node a TrieInsert is attacking (paper line
	// 5/96): the insert will MinWrite that DEL node's lower1Boundary.
	Target atomic.Pointer[UpdateNode]
	// LatestNext is the next node in the latest[key] list (paper line
	// 8/95). In §5 it is initialized to the previous latest node and
	// changes exactly once, to nil.
	LatestNext atomic.Pointer[UpdateNode]
	// Lower1Boundary (DEL only): all trie nodes at height ≥ this value that
	// depend on this node have interpreted bit 1 (paper line 10/101).
	// Initially b+1; lowered by inserts via MinWrite.
	Lower1Boundary MinRegister

	// DelPredNode is the predecessor node of the Delete operation's first
	// embedded predecessor (§5 DEL only, paper line 102; immutable once the
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

	// Upper0Boundary (DEL only): all trie nodes at height ≤ this value that
	// depend on this node have interpreted bit 0 (paper line 9/100). Only
	// the creating Delete writes it, incrementing from 0 one level at a
	// time (Lemma 4.13).
	Upper0Boundary atomic.Int32
	// Status is StatusInactive/StatusActive (§5 only, paper line 94).
	Status atomic.Uint32
	// Stop tells the Delete operation that created this DEL node to stop
	// updating interpreted bits (paper line 7/97). Monotone false→true.
	Stop atomic.Bool
	// Completed records that the creating operation finished updating the
	// relaxed trie and notifying predecessors (§5 only, paper line 98), so
	// helpers that re-inserted the node into the announcement lists must
	// remove it again.
	Completed atomic.Bool

	// Kind is Ins or Del (immutable).
	Kind Kind
	// DummyNode marks the lazily materialized dummy DEL node that stands
	// for "key never inserted" (see DESIGN.md). Dummies are always active
	// and have Upper0Boundary = b, Lower1Boundary = b+1. Only insert paths
	// materialize one; readers treat a nil latest[key] as the dummy.
	DummyNode bool
}

// NewIns returns a fresh INS node for key. The §5 caller must still set
// LatestNext before publishing.
func NewIns(key int64) *UpdateNode {
	n := &UpdateNode{Key: key, Kind: Ins}
	n.DelPred2.Store(NoKey)
	return n
}

// NewDel returns a fresh DEL node for key with lower1Boundary = b+1 and
// upper0Boundary = 0 (paper Figure 4 initial values).
func NewDel(key int64, b int) *UpdateNode {
	n := &UpdateNode{Key: key, Kind: Del}
	n.Lower1Boundary.Init(b + 1)
	n.DelPred2.Store(NoKey)
	return n
}

// NewDummyDel returns the materialized dummy DEL node for key: active,
// upper0Boundary = b and lower1Boundary = b+1, so every trie node depending
// on it has interpreted bit 0, matching the initial empty set.
func NewDummyDel(key int64, b int) *UpdateNode {
	n := NewDel(key, b)
	n.DummyNode = true
	n.Upper0Boundary.Store(int32(b))
	n.Status.Store(StatusActive)
	return n
}

// Active reports whether the node has been announced (§5). Relaxed-trie
// nodes are created active by convention (§4.4.1: "we consider all update
// nodes to be active").
func (n *UpdateNode) Active() bool {
	return n.Status.Load() == StatusActive
}

// String renders the node for debugging and trieviz output.
func (n *UpdateNode) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.Kind == Del {
		return fmt.Sprintf("%s(%d){u0b:%d l1b:%d}", n.Kind, n.Key,
			n.Upper0Boundary.Load(), n.Lower1Boundary.Read())
	}
	return fmt.Sprintf("%s(%d)", n.Kind, n.Key)
}
