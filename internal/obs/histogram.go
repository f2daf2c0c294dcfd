package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// numBuckets is the number of finite log-scale buckets. Bucket b holds
// observations v with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b - 1]
// (bucket 0 holds exactly v == 0). The last finite upper bound is
// 2^48 - 1, about 3.3 days in nanoseconds; anything larger lands in the
// overflow (+Inf) bucket.
const numBuckets = 49

// Histogram is a fixed-footprint log-scale histogram safe for
// concurrent use. It does not retain individual observations, so it can
// sit on hot paths of long-running engines without growing. Quantiles are approximate: Quantile returns
// the upper bound of the bucket containing the requested rank, so the
// answer is at most 2x the true value (one power of two).
type Histogram struct {
	counts   [numBuckets + 1]atomic.Int64 // +1 = overflow bucket
	count    atomic.Int64
	sum      atomic.Int64
	maxValue atomic.Int64
}

// NewHistogram returns an empty histogram. A zero Histogram is also
// ready to use.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b > numBuckets {
		b = numBuckets
	}
	return b
}

// bucketUpper returns the inclusive upper bound of finite bucket b.
func bucketUpper(b int) int64 {
	if b >= numBuckets {
		return int64(1)<<numBuckets - 1
	}
	return int64(1)<<b - 1
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.maxValue.Load()
		if v <= cur || h.maxValue.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Max returns the largest observed value (0 if empty).
func (h *Histogram) Max() int64 { return h.maxValue.Load() }

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// upper edge of the log-scale bucket holding that rank. Empty
// histograms return 0.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(n-1)) + 1 // 1-based rank
	var cum int64
	for b := 0; b <= numBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= rank {
			if b == numBuckets {
				return h.maxValue.Load()
			}
			return bucketUpper(b)
		}
	}
	return h.maxValue.Load()
}

// Summary renders count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("count=%d mean=%.1f p50=%d p99=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// snapshot copies the bucket counts for exposition. Buckets are read
// without a global lock, so the cut is only approximately consistent —
// fine for scraping.
func (h *Histogram) snapshot() (counts [numBuckets + 1]int64, count, sum int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.count.Load(), h.sum.Load()
}
