package bitmap

import (
	"math/rand"
	"sync"
	"testing"
)

func TestWordIndex(t *testing.T) {
	for _, tc := range []struct {
		i    int64
		word int64
		bit  uint
	}{{0, 0, 0}, {1, 0, 1}, {63, 0, 63}, {64, 1, 0}, {130, 2, 2}} {
		w, b := WordIndex(tc.i)
		if w != tc.word || b != tc.bit {
			t.Errorf("WordIndex(%d) = (%d,%d), want (%d,%d)", tc.i, w, b, tc.word, tc.bit)
		}
	}
}

func TestSetPopCount(t *testing.T) {
	w := NewWords(200)
	if len(w) != 4 {
		t.Fatalf("NewWords(200): %d words, want 4", len(w))
	}
	for _, i := range []int64{0, 63, 64, 100, 199} {
		w.Set(i)
		if wi, bit := WordIndex(i); w.Load(wi)&(1<<bit) == 0 {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := w.PopCount(); got != 5 {
		t.Fatalf("PopCount = %d, want 5", got)
	}
	// Set is idempotent (the load-first fast path must not skip a needed OR).
	w.Set(63)
	if got := w.PopCount(); got != 5 {
		t.Fatalf("PopCount after re-set = %d, want 5", got)
	}
}

func TestAllOnes(t *testing.T) {
	w := NewWords(70)
	for i := int64(0); i < 70; i++ {
		w.Set(i)
	}
	if !w.AllOnes(70) {
		t.Fatal("AllOnes(70) = false with all 70 bits set")
	}
	// Bits beyond n must not be required.
	if w.AllOnes(71) {
		t.Fatal("AllOnes(71) = true with only 70 bits set")
	}
	gap := NewWords(70)
	for i := int64(0); i < 70; i++ {
		if i != 5 {
			gap.Set(i)
		}
	}
	if gap.AllOnes(70) {
		t.Fatal("AllOnes(70) = true with bit 5 clear")
	}
}

func TestScanHelpers(t *testing.T) {
	var word uint64 = 1<<3 | 1<<17 | 1<<60
	if got := NearestSetBelow(word, 64); got != 60 {
		t.Errorf("NearestSetBelow(·,64) = %d, want 60", got)
	}
	if got := NearestSetBelow(word, 17); got != 3 {
		t.Errorf("NearestSetBelow(·,17) = %d, want 3", got)
	}
	if got := NearestSetBelow(word, 3); got != -1 {
		t.Errorf("NearestSetBelow(·,3) = %d, want -1", got)
	}
	if got := NearestSetBelow(word, 0); got != -1 {
		t.Errorf("NearestSetBelow(·,0) = %d, want -1", got)
	}
	if got := NearestSetAbove(word, 3); got != 17 {
		t.Errorf("NearestSetAbove(·,3) = %d, want 17", got)
	}
	if got := NearestSetAbove(word, 60); got != -1 {
		t.Errorf("NearestSetAbove(·,60) = %d, want -1", got)
	}
	if got := NearestSetAtOrAbove(word, 17); got != 17 {
		t.Errorf("NearestSetAtOrAbove(·,17) = %d, want 17", got)
	}
	if got := NearestSetAtOrAbove(word, 61); got != -1 {
		t.Errorf("NearestSetAtOrAbove(·,61) = %d, want -1", got)
	}
	if got := NearestSetAtOrBelow(word, 17); got != 17 {
		t.Errorf("NearestSetAtOrBelow(·,17) = %d, want 17", got)
	}
	if got := NearestSetAtOrBelow(word, 2); got != -1 {
		t.Errorf("NearestSetAtOrBelow(·,2) = %d, want -1", got)
	}
	if got := NearestSetAtOrBelow(word, 63); got != 60 {
		t.Errorf("NearestSetAtOrBelow(·,63) = %d, want 60", got)
	}
	if got := NearestSetAtOrBelow(0, 63); got != -1 {
		t.Errorf("NearestSetAtOrBelow(0,63) = %d, want -1", got)
	}
}

func TestScanHelpersExhaustive(t *testing.T) {
	// Cross-check the branchy scan helpers against the obvious loops on
	// random words.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		word := rng.Uint64()
		bit := uint(rng.Intn(65))
		ref := func(lo, hi int) int {
			for i := hi; i >= lo; i-- {
				if word&(1<<uint(i)) != 0 {
					return i
				}
			}
			return -1
		}
		refUp := func(lo, hi int) int {
			for i := lo; i <= hi; i++ {
				if word&(1<<uint(i)) != 0 {
					return i
				}
			}
			return -1
		}
		if got, want := NearestSetBelow(word, bit), ref(0, int(bit)-1); got != want {
			t.Fatalf("NearestSetBelow(%#x,%d) = %d, want %d", word, bit, got, want)
		}
		if bit < 64 {
			if got, want := NearestSetAbove(word, bit), refUp(int(bit)+1, 63); got != want {
				t.Fatalf("NearestSetAbove(%#x,%d) = %d, want %d", word, bit, got, want)
			}
			if got, want := NearestSetAtOrAbove(word, bit), refUp(int(bit), 63); got != want {
				t.Fatalf("NearestSetAtOrAbove(%#x,%d) = %d, want %d", word, bit, got, want)
			}
			if got, want := NearestSetAtOrBelow(word, bit), ref(0, int(bit)); got != want {
				t.Fatalf("NearestSetAtOrBelow(%#x,%d) = %d, want %d", word, bit, got, want)
			}
		}
	}
}

func TestConcurrentSetMonotone(t *testing.T) {
	// Concurrent Set calls must never lose each other's bits (the OR is
	// atomic; the load-first fast path only skips when already visible).
	const n = 1 << 12
	w := NewWords(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(g); i < n; i += 2 {
				w.Set(i)
			}
		}(g)
	}
	wg.Wait()
	if got := w.PopCount(); got != n {
		t.Fatalf("PopCount = %d, want %d", got, n)
	}
}
