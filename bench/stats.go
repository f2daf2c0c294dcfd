package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// medianFloat returns the median of v (mean of the middle pair when even).
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// p99Bucket is the width of the time buckets latency_p99_ms is taken
// over: wide enough that a bucket's p99 has samples beyond it at every
// workload's rate, narrow enough that a run has dozens of them.
const p99Bucket = 100 * time.Millisecond

// bucketP99Median buckets samples by the p99Bucket interval their closing
// tuple was due in, takes each bucket's p99, and returns the median of
// those: a stall moves the buckets it touches, not the metric. Buckets
// with fewer than 100 samples carry no p99 of their own and are skipped.
func bucketP99Median(latNS, dueNS []int64) (median float64, buckets int) {
	byBucket := map[int64][]int64{}
	for i, l := range latNS {
		b := dueNS[i] / int64(p99Bucket)
		byBucket[b] = append(byBucket[b], l)
	}
	var p99s []float64
	for _, b := range byBucket {
		if len(b) < 100 {
			continue
		}
		slices.Sort(b)
		p99s = append(p99s, float64(percentile(b, 0.99)))
	}
	return medianFloat(p99s), len(p99s)
}

// highestSupportedPercentile is the highest of p50/p90/p99/p99.9/p99.99
// that still has at least ten of the n samples beyond it.
func highestSupportedPercentile(n int) float64 {
	best := 0.5
	for _, q := range []struct {
		q       float64
		oneInto int // 1−q as 1/oneInto
	}{{0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}} {
		if n/q.oneInto >= 10 {
			best = q.q
		}
	}
	return best
}

// quartiles returns Q1 and Q3 by the exclusive method, the one Python's
// statistics.quantiles(v, n=4) uses, so spreads here match the driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
