package main

import (
	"math"
	"sort"
	"strconv"
)

// flushRows is the row count at which Server.ServeIngest hands its pending
// batch to the engine. Every phase sends a multiple of it, so no tuple of
// a phase is still parked in the server's read loop when the phase ends.
const flushRows = 128

// rng is splitmix64: the whole input of a run is a function of the seed.
type rng struct{ s uint64 }

// newRNG starts the stream at a hash of the seed: splitmix64 states differ
// by a fixed increment per draw, so starting at the seed itself would make
// seed+1 the same stream one draw later.
func newRNG(seed uint64) *rng {
	r := &rng{s: seed}
	r.s = r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks in [0, n) with P(i) ∝ 1/(i+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// tupleGen appends the text line (with trailing newline) of tuple seq.
// Implementations draw from r in a fixed order, so the same seed yields
// the same bytes.
type tupleGen func(r *rng, seq int64, dst []byte) []byte

// genFilter emits "seq,k,v" with k uniform in [0,1000) and v a 4-decimal
// value uniform in [0,1): half of the tuples pass v > 0.5.
func genFilter(r *rng, seq int64, dst []byte) []byte {
	dst = strconv.AppendInt(dst, seq, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.intn(1000)), 10)
	dst = append(dst, ',', '0', '.')
	v := r.intn(10000)
	dst = append(dst, byte('0'+v/1000), byte('0'+v/100%10), byte('0'+v/10%10), byte('0'+v%10))
	return append(dst, '\n')
}

// fanoutKeys is the key range of fanout_1k; the probe passes k < fanoutProbe.
const (
	fanoutKeys  = 2000
	fanoutProbe = 200
)

// genFanout emits "seq,k,v" with k uniform in [0,2000) and v in [0,1000).
func genFanout(r *rng, seq int64, dst []byte) []byte {
	dst = strconv.AppendInt(dst, seq, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.intn(fanoutKeys)), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.intn(1000)), 10)
	return append(dst, '\n')
}

// Window geometry of keyed_window, in event-time ticks (one tick per tuple).
const (
	windowSize     = 1024
	windowLateness = 128
	windowKeys     = 256
)

// newGenWindow emits "seq,k,v,et": k is Zipf(1.1) over 256 keys, et is
// seq, except that one tuple in ten is displaced back by fewer than
// windowLateness ticks — out of order, never late.
func newGenWindow() tupleGen {
	z := newZipf(windowKeys, 1.1)
	return func(r *rng, seq int64, dst []byte) []byte {
		k := z.sample(r)
		v := r.intn(100)
		et := seq
		if r.intn(10) == 0 {
			d := int64(1 + r.intn(windowLateness-1))
			if d > seq {
				d = seq
			}
			et = seq - d
		}
		dst = strconv.AppendInt(dst, seq, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(k), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(v), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, et, 10)
		return append(dst, '\n')
	}
}

// phaseInput is the pre-encoded input of one phase.
type phaseInput struct {
	firstSeq int64
	n        int    // tuples, a multiple of flushRows
	data     []byte // n text lines
	// tickEnd[k] is the byte offset after the last tuple due at or before
	// tick k (1 ms ticks); nil for flat-out phases.
	tickEnd []int
	rate    int // tuples/s; 0 for flat-out phases
}

// roundTuples rounds n down to a multiple of flushRows (at least one batch).
func roundTuples(n int) int {
	n -= n % flushRows
	if n < flushRows {
		n = flushRows
	}
	return n
}

// dueNS is the due time of the i-th tuple of an open-loop phase, in ns
// after the phase start.
func dueNS(i int64, rate int) int64 { return i * 1e9 / int64(rate) }

// encodePhase encodes n tuples starting at firstSeq. With rate > 0 it also
// lays out the pacing schedule: tuple i is due at i/rate seconds and is
// written at the first 1 ms tick at or after its due time.
func encodePhase(gen tupleGen, r *rng, firstSeq int64, n, rate int) *phaseInput {
	p := &phaseInput{firstSeq: firstSeq, n: n, rate: rate}
	p.data = make([]byte, 0, n*24)
	tick := int64(0)
	for i := 0; i < n; i++ {
		if rate > 0 {
			for dueNS(int64(i), rate) > tick*1e6 {
				p.tickEnd = append(p.tickEnd, len(p.data))
				tick++
			}
		}
		p.data = gen(r, firstSeq+int64(i), p.data)
	}
	if rate > 0 {
		p.tickEnd = append(p.tickEnd, len(p.data))
	}
	return p
}
