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
	if got := n.Lower1Boundary.Read(); got != b+1 {
		t.Errorf("lower1Boundary = %d, want %d", got, b+1)
	}
	if got := n.Upper0Boundary.Load(); got != 0 {
		t.Errorf("upper0Boundary = %d, want 0", got)
	}
	if n.Active() {
		t.Error("fresh DEL node should be inactive")
	}
	if got := n.DelPred2.Load(); got != NoKey {
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
	if got := n.Upper0Boundary.Load(); got != int32(b) {
		t.Errorf("dummy upper0Boundary = %d, want %d", got, b)
	}
	if got := n.Lower1Boundary.Read(); got != b+1 {
		t.Errorf("dummy lower1Boundary = %d, want %d", got, b+1)
	}
}

func TestNewIns(t *testing.T) {
	n := NewIns(7)
	if n.Kind != Ins || n.Key != 7 {
		t.Fatalf("NewIns(7) = %+v", n)
	}
	if n.Target.Load() != nil {
		t.Error("fresh INS target should be nil")
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
	i := NewIns(2)
	if i.String() != "INS(2)" {
		t.Errorf("INS String = %q", i.String())
	}
}

// TestUpdateNodeSize pins UpdateNode to the 80-byte allocation size class:
// every key ever touched keeps one in latest[x], so its size is paid per
// key.
func TestUpdateNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(UpdateNode{}); got > 80 {
		t.Fatalf("unsafe.Sizeof(UpdateNode{}) = %d, want ≤ 80", got)
	}
}
