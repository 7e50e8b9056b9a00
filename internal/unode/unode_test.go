package unode

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMinRegisterInitRead(t *testing.T) {
	tests := []struct {
		name string
		init int
		want int
	}{
		{"zero", 0, 0},
		{"one", 1, 1},
		{"typical b+1", 21, 21},
		{"max", 64, 64},
		{"clamped above", 80, 64},
		{"clamped below", -3, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m MinRegister
			m.Init(tt.init)
			if got := m.Read(); got != tt.want {
				t.Errorf("Read() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestMinRegisterMinWrite(t *testing.T) {
	var m MinRegister
	m.Init(21)
	m.MinWrite(30) // larger: no effect
	if got := m.Read(); got != 21 {
		t.Fatalf("MinWrite(30) changed value to %d, want 21", got)
	}
	m.MinWrite(7)
	if got := m.Read(); got != 7 {
		t.Fatalf("MinWrite(7): Read() = %d, want 7", got)
	}
	m.MinWrite(7) // idempotent
	if got := m.Read(); got != 7 {
		t.Fatalf("repeat MinWrite(7): Read() = %d, want 7", got)
	}
	m.MinWrite(0)
	if got := m.Read(); got != 0 {
		t.Fatalf("MinWrite(0): Read() = %d, want 0", got)
	}
}

// TestMinRegisterQuickMin property: after any sequence of MinWrites the value
// is the minimum of the initial value and all written values.
func TestMinRegisterQuickMin(t *testing.T) {
	f := func(init uint8, writes []uint8) bool {
		v0 := int(init % 65)
		var m MinRegister
		m.Init(v0)
		want := v0
		for _, w := range writes {
			wv := int(w % 65)
			m.MinWrite(wv)
			if wv < want {
				want = wv
			}
		}
		return m.Read() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMinRegisterConcurrentMin: the register converges to the global minimum
// under concurrent MinWrites and never observes a value below it.
func TestMinRegisterConcurrentMin(t *testing.T) {
	const goroutines = 8
	const writesPer = 2000
	var m MinRegister
	m.Init(64)
	globalMin := 64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			localMin := 64
			for i := 0; i < writesPer; i++ {
				v := 3 + rng.Intn(60)
				m.MinWrite(v)
				if v < localMin {
					localMin = v
				}
				if got := m.Read(); got > localMin {
					t.Errorf("Read() = %d after local MinWrite floor %d", got, localMin)
					return
				}
			}
			mu.Lock()
			if localMin < globalMin {
				globalMin = localMin
			}
			mu.Unlock()
		}(int64(g + 1))
	}
	wg.Wait()
	if got := m.Read(); got != globalMin {
		t.Fatalf("final Read() = %d, want global min %d", got, globalMin)
	}
}

func TestNewDelInitialBoundaries(t *testing.T) {
	const b = 20
	n := NewDel(5, b)
	if n.Kind != Del {
		t.Fatalf("Kind = %v, want Del", n.Kind)
	}
	if got := n.Lower1().Read(); got != b+1 {
		t.Errorf("lower1Boundary = %d, want %d", got, b+1)
	}
	if got := n.Del().Upper0Boundary.Load(); got != 0 {
		t.Errorf("upper0Boundary = %d, want 0", got)
	}
	if n.Active() {
		t.Error("fresh DEL node should be inactive")
	}
	if got := n.Del().DelPred2.Load(); got != NoKey {
		t.Errorf("DelPred2 = %d, want NoKey", got)
	}
}

func TestNewDummyDel(t *testing.T) {
	const b = 10
	n := NewDummyDel(3, b)
	if !n.DummyNode || n.Kind != Del {
		t.Fatalf("dummy flags wrong: %+v", n)
	}
	if !n.Active() {
		t.Error("dummy must be active")
	}
	if got := n.Upper0(b); got != b {
		t.Errorf("dummy upper0Boundary = %d, want %d", got, b)
	}
	if got := n.Lower1().Read(); got != b+1 {
		t.Errorf("dummy lower1Boundary = %d, want %d", got, b+1)
	}
}

func TestNewIns(t *testing.T) {
	n := NewIns(7)
	if n.Kind != Ins || n.Key != 7 {
		t.Fatalf("NewIns(7) = %+v", n)
	}
	if n.Ins().Target.Load() != nil {
		t.Error("fresh INS target should be nil")
	}
}

// TestFlags: status, completed and stop share one word; setting one
// leaves the others as they were, and setting one twice is harmless.
func TestFlags(t *testing.T) {
	n := NewDel(1, 4)
	if n.Active() || n.Completed() || n.Stopped() {
		t.Fatal("fresh DEL node has a flag set")
	}
	n.SetStop()
	if n.Active() || n.Completed() || !n.Stopped() {
		t.Fatal("SetStop changed another flag")
	}
	n.Activate()
	n.Activate()
	if !n.Active() || n.Completed() || !n.Stopped() {
		t.Fatal("Activate changed another flag")
	}
	n.SetCompleted()
	if !n.Active() || !n.Completed() || !n.Stopped() {
		t.Fatal("SetCompleted lost a flag")
	}
}

// TestFlagsConcurrent: each flag set by its own goroutines while others
// set the rest; no OR undoes another bit.
func TestFlagsConcurrent(t *testing.T) {
	for round := 0; round < 200; round++ {
		n := NewIns(int64(round))
		var wg sync.WaitGroup
		for _, set := range []func(){n.Activate, n.SetCompleted, n.SetStop, n.Activate} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				set()
			}()
		}
		wg.Wait()
		if !n.Active() || !n.Completed() || !n.Stopped() {
			t.Fatalf("round %d: flags lost: active %v completed %v stop %v",
				round, n.Active(), n.Completed(), n.Stopped())
		}
	}
}

func TestKindString(t *testing.T) {
	if Ins.String() != "INS" || Del.String() != "DEL" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind String mismatch")
	}
}

func TestUpdateNodeString(t *testing.T) {
	var n *UpdateNode
	if n.String() != "<nil>" {
		t.Error("nil String mismatch")
	}
	d := NewDel(4, 3)
	if d.String() != "DEL(4){u0b:0 l1b:4}" {
		t.Errorf("DEL String = %q", d.String())
	}
	if got := NewDummyDel(5, 3).String(); got != "DEL(5){dummy l1b:4}" {
		t.Errorf("dummy String = %q", got)
	}
	i := NewIns(2)
	if i.String() != "INS(2)" {
		t.Errorf("INS String = %q", i.String())
	}
}

// TestUpdateNodeSize pins each layout to its allocation size class:
// every key ever touched keeps update nodes in latest[x], so their size
// is paid per key. A dummy is the first part of a DEL node, so one
// pointer serves both.
func TestUpdateNodeSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"UpdateNode (header)", unsafe.Sizeof(UpdateNode{}), 24},
		{"InsNode", unsafe.Sizeof(InsNode{}), 32},
		{"DelNode", unsafe.Sizeof(DelNode{}), 64},
		{"dummy DEL (delHead)", unsafe.Sizeof(delHead{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
	if off := unsafe.Offsetof(DelNode{}.Lower1Boundary); off != unsafe.Offsetof(delHead{}.Lower1Boundary) {
		t.Errorf("DelNode.Lower1Boundary at offset %d, want delHead's %d", off, unsafe.Offsetof(delHead{}.Lower1Boundary))
	}
}

// TestAccessorsPanicOnWrongKind: each accessor refuses a node whose
// allocation does not hold the fields it would reach.
func TestAccessorsPanicOnWrongKind(t *testing.T) {
	ins, del, dummy := NewIns(1), NewDel(2, 4), NewDummyDel(3, 4)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Ins of a DEL node", func() { del.Ins() }},
		{"Ins of a dummy", func() { dummy.Ins() }},
		{"Del of a dummy", func() { dummy.Del() }},
		{"Del of an INS node", func() { ins.Del() }},
		{"Lower1 of an INS node", func() { ins.Lower1() }},
		{"Upper0 of an INS node", func() { ins.Upper0(4) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.call()
		})
	}
	// And the right kinds pass.
	_ = ins.Ins()
	_ = del.Del()
	_, _ = del.Lower1(), dummy.Lower1()
	if del.Upper0(4) != 0 || dummy.Upper0(4) != 4 {
		t.Error("Upper0: want 0 for a fresh DEL node and b for a dummy")
	}
}
