// Package bitmap provides the atomic summary-word helpers behind the
// cache-compressed trie descents (internal/bitstrie): fixed-width arrays
// of uint64 words where bit j of word w stands for element 64w+j,
// maintained with single atomic OR instructions and queried with popcount
// and bit-scan.
//
// The summaries are monotone: bits are only ever set (OR), never cleared.
// A clear bit is therefore a certificate that nothing it covers was ever
// published, while a set bit is only advisory and readers re-validate it
// against the trie itself. The package has no clearing operation.
package bitmap

import (
	"math/bits"
	"sync/atomic"
)

// WordBits is the number of elements covered by one summary word.
const WordBits = 64

// WordIndex returns the word and in-word bit position covering element i.
func WordIndex(i int64) (word int64, bit uint) {
	return i >> 6, uint(i & 63)
}

// WordsFor returns the number of words needed to cover n elements.
func WordsFor(n int64) int64 {
	return (n + WordBits - 1) / WordBits
}

// Words is a fixed-width array of atomic summary words. The zero value of
// a correctly-sized slice is an all-zeros bitmap.
type Words []atomic.Uint64

// NewWords returns an all-zeros bitmap covering n elements.
func NewWords(n int64) Words {
	return make(Words, WordsFor(n))
}

// Set sets bit i with one atomic OR. It avoids the RMW when the bit is
// already visible, so steady-state re-marking costs one shared load.
func (w Words) Set(i int64) {
	wi, bit := WordIndex(i)
	mask := uint64(1) << bit
	if w[wi].Load()&mask == 0 {
		w[wi].Or(mask)
	}
}

// Load returns word wi.
func (w Words) Load(wi int64) uint64 { return w[wi].Load() }

// PopCount returns the total number of set bits.
func (w Words) PopCount() int64 {
	var n int64
	for i := range w {
		n += int64(bits.OnesCount64(w[i].Load()))
	}
	return n
}

// AllOnes reports whether every bit covering n elements is set (words are
// checked against full masks, with the tail word masked to n%64 bits).
func (w Words) AllOnes(n int64) bool {
	full := n / WordBits
	for i := int64(0); i < full; i++ {
		if w[i].Load() != ^uint64(0) {
			return false
		}
	}
	if rem := uint(n % WordBits); rem != 0 {
		mask := (uint64(1) << rem) - 1
		if w[full].Load()&mask != mask {
			return false
		}
	}
	return true
}

// --- single-word scan helpers (no atomics; operate on loaded words) ---------

// NearestSetBelow returns the largest set bit position strictly below bit in
// word, or -1. bit may be 64 (scan the whole word).
func NearestSetBelow(word uint64, bit uint) int {
	if bit == 0 {
		return -1
	}
	masked := word
	if bit < 64 {
		masked &= (uint64(1) << bit) - 1
	}
	if masked == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(masked)
}

// NearestSetAbove returns the smallest set bit position strictly above bit
// in word, or -1. Pass bit == ^uint(0) ("no lower bound") to scan the whole
// word via NearestSetAtOrAbove(word, 0).
func NearestSetAbove(word uint64, bit uint) int {
	if bit >= 63 {
		return -1
	}
	masked := word &^ ((uint64(2) << bit) - 1)
	if masked == 0 {
		return -1
	}
	return bits.TrailingZeros64(masked)
}

// NearestSetAtOrAbove returns the smallest set bit position ≥ bit, or -1.
func NearestSetAtOrAbove(word uint64, bit uint) int {
	if bit >= 64 {
		return -1
	}
	masked := word &^ ((uint64(1) << bit) - 1)
	if masked == 0 {
		return -1
	}
	return bits.TrailingZeros64(masked)
}

// NearestSetAtOrBelow returns the largest set bit position ≤ bit, or -1.
func NearestSetAtOrBelow(word uint64, bit uint) int {
	if bit >= 63 {
		masked := word
		if masked == 0 {
			return -1
		}
		return 63 - bits.LeadingZeros64(masked)
	}
	masked := word & ((uint64(2) << bit) - 1)
	if masked == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(masked)
}
