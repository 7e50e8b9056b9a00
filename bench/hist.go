package main

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram layout: values below 2^subBits get one bucket each; above
// that every power-of-two octave is split into 2^subBits equal buckets,
// so a bucket is at most 1/64 of its value wide. internal/obs's histogram
// splits octaves in four, too coarse to compare one run with another.
const (
	subBits     = 6
	subCount    = 1 << subBits
	maxOctave   = 42 // values ≥ 2^43 ns (2.4 h) clamp into the last bucket
	histBuckets = subCount + (maxOctave-subBits+1)*subCount
)

// hist is a lock-free latency histogram in nanoseconds. Recording is two
// atomic adds, so callbacks on any goroutine may share one.
type hist struct {
	n       atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1
	if o > maxOctave {
		return histBuckets - 1
	}
	sub := int(v>>(o-subBits)) & (subCount - 1)
	return subCount + (o-subBits)*subCount + sub
}

// bucketRange returns bucket b's inclusive bounds.
func bucketRange(b int) (lo, hi int64) {
	if b < subCount {
		return int64(b), int64(b)
	}
	o := (b-subCount)/subCount + subBits
	sub := int64((b - subCount) % subCount)
	w := int64(1) << (o - subBits)
	lo = int64(1)<<o + sub*w
	return lo, lo + w - 1
}

func (h *hist) record(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantile estimates the nearest-rank q-quantile (the smallest recorded
// value with at least q·n values at or below it): it finds that value's
// bucket and interpolates linearly inside it, so the estimate is within
// one bucket width of the exact value. NaN for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := range h.buckets {
		c := h.buckets[b].Load()
		if cum+c >= rank {
			lo, hi := bucketRange(b)
			return float64(lo) + float64(hi+1-lo)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := bucketRange(histBuckets - 1)
	return float64(lo)
}

// merge adds o's counts into h.
func (h *hist) merge(o *hist) {
	for b := range o.buckets {
		if c := o.buckets[b].Load(); c != 0 {
			h.buckets[b].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}
