package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/workload"
)

// conns is the number of client connections. Each owns the keys of its
// parity (key mod conns), so the final set is the last issued update per
// key no matter how the two streams interleave.
const conns = 2

// spec is one workload: the served universe, its operation stream and
// how the trie is configured.
type spec struct {
	name string
	u    int64
	mix  workload.Mix
	dist workload.KeyDist
	// slots > 0 confines updates and Contains to one key per slot of
	// u/slots keys (pred-sparse); 0 addresses every key.
	slots int64
	// shards > 0 shards the trie; durable adds the WAL, fsyncing every
	// syncEvery logged ops.
	shards  int
	durable bool
}

// syncEvery is the WAL's fsync policy on durable workloads.
const syncEvery = 1024

// rate is the load point's offered ops/s, both connections together, on
// every workload: it keeps a 2-vCPU host about 65% busy (bench/README.md).
const rate = 40_000

const (
	u20 = int64(1) << 20
	u22 = int64(1) << 22
)

// specs are the workloads; bench/README.md gives the reason for each.
var specs = []spec{
	{
		name: "ingest",
		u:    u20,
		mix:  workload.Mix{InsertPct: 48, DeletePct: 48, SearchPct: 2, PredecessorPct: 2},
		dist: workload.Uniform{U: u20},
	},
	{
		name:    "durable-ingest",
		u:       u20,
		mix:     workload.Mix{InsertPct: 48, DeletePct: 48, SearchPct: 2, PredecessorPct: 2},
		dist:    workload.Uniform{U: u20},
		durable: true,
	},
	{
		name:  "pred-sparse",
		u:     u22,
		mix:   workload.Mix{InsertPct: 5, DeletePct: 5, SearchPct: 10, PredecessorPct: 80},
		dist:  workload.Uniform{U: u22},
		slots: u22 / 128,
	},
	{
		name:   "hot-mixed",
		u:      u20,
		mix:    workload.Mix{InsertPct: 25, DeletePct: 25, SearchPct: 10, PredecessorPct: 40},
		dist:   workload.HotRange{U: u20, HotLo: u20/2 - 512, HotWidth: 1024, HotPct: 90},
		shards: 16,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func isUpdate(k workload.OpKind) bool {
	return k == workload.OpInsert || k == workload.OpDelete
}

// slotKey is the key of slot i: a seeded offset inside the slot whose
// parity is the slot's, so ownership by key parity is ownership by slot.
func (s *spec) slotKey(seed, i int64) int64 {
	w := s.u / s.slots
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return i*w + 2*int64(h%uint64(w/2)) + i&1
}

// stream is connection c's deterministic operation stream.
type stream struct {
	s    *spec
	seed int64
	c    int64
	g    *workload.Generator
}

func newStream(s *spec, seed int64, c int) *stream {
	g, err := workload.NewGenerator(s.mix, s.dist, seed*7919+int64(c))
	if err != nil {
		panic(err) // the mixes above are static and valid
	}
	return &stream{s: s, seed: seed, c: int64(c), g: g}
}

// next draws an op and maps its key: updates onto this connection's
// keys, and (with slots) updates and Contains onto slot keys.
func (st *stream) next() workload.Op {
	op := st.g.Next()
	s := st.s
	switch {
	case s.slots > 0 && op.Kind != workload.OpPredecessor:
		i := op.Key / (s.u / s.slots)
		if isUpdate(op.Kind) {
			i = i&^1 | st.c
		}
		op.Key = s.slotKey(st.seed, i)
	case isUpdate(op.Kind):
		op.Key = op.Key&^1 | st.c
	}
	return op
}

// prefill returns the seeded initial set, ascending: half of the keys
// (or of the slots) chosen independently.
func (s *spec) prefill(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	var keys []int64
	if s.slots > 0 {
		for i := int64(0); i < s.slots; i++ {
			if rng.Intn(2) == 0 {
				keys = append(keys, s.slotKey(seed, i))
			}
		}
		return keys
	}
	for k := int64(0); k < s.u; k++ {
		if rng.Intn(2) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// model is one connection's view of the set: it owns the keys of its
// parity and sets a bit per issued update, so no two goroutines write
// one word.
type model []uint64

func newModel(u int64) model { return make(model, (u+63)/64) }

func (m model) set(k int64, in bool) {
	if in {
		m[k>>6] |= 1 << (k & 63)
	} else {
		m[k>>6] &^= 1 << (k & 63)
	}
}

func (m model) has(k int64) bool { return m[k>>6]&(1<<(k&63)) != 0 }

// expected merges the per-connection models into the ascending key set.
func expected(ms []model, u int64) []int64 {
	var keys []int64
	for k := int64(0); k < u; k++ {
		if ms[k%conns].has(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// predecessorOf returns the largest key of the ascending set below y, −1
// if none.
func predecessorOf(keys []int64, y int64) int64 {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= y })
	if i == 0 {
		return -1
	}
	return keys[i-1]
}
