package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.0, 10}, {1.0, 100}, {0.05, 10}, {0.11, 20}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestBucketP99MedianIgnoresOneStall(t *testing.T) {
	// Five buckets of 1000 samples at 1 ms; bucket 2 stalls at 500 ms.
	width := int64(p99Bucket)
	var lat, due []int64
	for b := int64(0); b < 5; b++ {
		for i := int64(0); i < 1000; i++ {
			l := int64(1e6)
			if b == 2 {
				l = 500e6
			}
			lat = append(lat, l)
			due = append(due, b*width+i*width/1000)
		}
	}
	// A partial sixth bucket with too few samples for a p99 of its own.
	lat, due = append(lat, 900e6), append(due, 5*width)
	got, buckets := bucketP99Median(lat, due)
	if buckets != 5 {
		t.Errorf("buckets = %d, want 5 (the 1-sample bucket carries no p99)", buckets)
	}
	if got != 1e6 {
		t.Errorf("median of bucket p99s = %v, want 1e6: one stalled bucket must not move it", got)
	}
}

func TestBucketP99IsTheP99OfEachBucket(t *testing.T) {
	var lat, due []int64
	for i := int64(0); i < 1000; i++ {
		lat = append(lat, i+1) // 1..1000 → p99 = 990
		due = append(due, i)
	}
	if got, _ := bucketP99Median(lat, due); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {2_000_000, 0.9999}} {
		if got := highestSupportedPercentile(c.n); got != c.want {
			t.Errorf("n=%d: %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4), whose spread the driver computes.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q3 := quartiles(v)
	if math.Abs(q1-1.75) > 1e-12 || math.Abs(q3-5.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4})
	if math.Abs(q1-1.25) > 1e-12 || math.Abs(q3-3.75) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 1.25, 3.75", q1, q3)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
