package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range workloads {
		a := encodePhase(w.gen(), newRNG(7), 0, 4*flushRows, 0)
		b := encodePhase(w.gen(), newRNG(7), 0, 4*flushRows, 0)
		c := encodePhase(w.gen(), newRNG(8), 0, 4*flushRows, 0)
		if !bytes.Equal(a.data, b.data) {
			t.Errorf("%s: the same seed gave different bytes", w.name)
		}
		if bytes.Equal(a.data, c.data) {
			t.Errorf("%s: different seeds gave the same bytes", w.name)
		}
		if n := bytes.Count(a.data, []byte{'\n'}); n != a.n {
			t.Errorf("%s: %d lines for %d tuples", w.name, n, a.n)
		}
	}
}

func TestGeneratedTuplesParseAgainstTheirKinds(t *testing.T) {
	for _, w := range workloads {
		in := encodePhase(w.gen(), newRNG(1), 1000, flushRows, 0)
		for i, line := range bytes.Split(bytes.TrimSuffix(in.data, []byte{'\n'}), []byte{'\n'}) {
			r, err := parseRow(line, w.inKinds)
			if err != nil {
				t.Fatalf("%s: tuple %q: %v", w.name, line, err)
			}
			if r[0] != int64(1000+i) {
				t.Fatalf("%s: tuple %d carries seq %d", w.name, i, r[0])
			}
		}
	}
}

func TestRoundTuples(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 128}, {127, 128}, {128, 128}, {129, 128}, {1000, 896}, {4096, 4096}} {
		if got := roundTuples(c.in); got != c.want {
			t.Errorf("roundTuples(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// A tuple is due at i/rate seconds and is written at the first 1 ms tick at
// or after that; tickEnd must cut the byte stream exactly there.
func TestPacingSchedule(t *testing.T) {
	const rate, n = 2500, 1280 // 2.5 tuples per tick
	in := encodePhase(genFanout, newRNG(1), 0, n, rate)
	lineEnd := make([]int, 0, n) // byte offset after tuple i
	for off, b := range in.data {
		if b == '\n' {
			lineEnd = append(lineEnd, off+1)
		}
	}
	prev := 0
	for k, end := range in.tickEnd {
		if end < prev {
			t.Fatalf("tick %d ends at %d, before tick %d's %d", k, end, k-1, prev)
		}
		prev = end
		// Tuples whose due time is at or before tick k: i*1e9/rate <= k*1e6.
		want := 0
		for want < n && dueNS(int64(want), rate) <= int64(k)*1e6 {
			want++
		}
		if end != lineEnd[want-1] {
			t.Fatalf("tick %d sends through byte %d, want through tuple %d (byte %d)", k, end, want-1, lineEnd[want-1])
		}
	}
	if last := in.tickEnd[len(in.tickEnd)-1]; last != len(in.data) {
		t.Errorf("the last tick ends at %d of %d bytes", last, len(in.data))
	}
	// 1280 tuples at 2500/s: the last is due at 511.6 ms, so tick 512 is the last.
	if got := len(in.tickEnd); got != 513 {
		t.Errorf("%d ticks, want 513", got)
	}
	if flat := encodePhase(genFanout, newRNG(1), 0, n, 0); flat.tickEnd != nil {
		t.Errorf("a flat-out phase has a pacing schedule")
	}
}

func TestDueTimes(t *testing.T) {
	if got := dueNS(400_000, 400_000); got != 1e9 {
		t.Errorf("tuple rate-th is due at %d ns, want 1e9", got)
	}
	if got := dueNS(1, 2000); got != 500_000 {
		t.Errorf("second tuple at 2000/s is due at %d ns, want 500000", got)
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z, r := newZipf(windowKeys, 1.1), newRNG(1)
	counts := make([]int, windowKeys)
	for i := 0; i < 100_000; i++ {
		k := z.sample(r)
		if k < 0 || k >= windowKeys {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Errorf("not skewed: counts[0,1,10,200] = %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
	// P(0) = 1/H(256, 1.1) ≈ 0.20.
	if share := float64(counts[0]) / 100_000; share < 0.17 || share > 0.23 {
		t.Errorf("rank 0 drew %.3f of the samples, want ≈ 0.20", share)
	}
}

// One tuple in ten is displaced back, by fewer ticks than the lateness, so
// none can ever be late.
func TestWindowDisorderStaysWithinLateness(t *testing.T) {
	in := encodePhase(newGenWindow(), newRNG(3), 0, 200*flushRows, 0)
	displaced := 0
	for _, line := range bytes.Split(bytes.TrimSuffix(in.data, []byte{'\n'}), []byte{'\n'}) {
		r, err := parseRow(line, []colKind{kInt, kInt, kInt, kInt})
		if err != nil {
			t.Fatal(err)
		}
		seq, et := r[0], r[3]
		if et > seq || seq-et >= windowLateness || et < 0 {
			t.Fatalf("seq %d has et %d", seq, et)
		}
		if et != seq {
			displaced++
		}
	}
	if share := float64(displaced) / float64(in.n); share < 0.08 || share > 0.12 {
		t.Errorf("%.3f of the tuples are displaced, want ≈ 0.10", share)
	}
}
