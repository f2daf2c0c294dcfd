package storage

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/vector"
)

func intSchema() *catalog.Schema {
	return catalog.NewSchema(catalog.Column{Name: "v", Type: vector.Int64})
}

// fillSeq appends rows carrying their own OID as the value, so any view
// can be checked against its head OID.
func fillSeq(t *testing.T, tb *Table, n int) {
	t.Helper()
	start := int64(tb.Hseq()) + int64(tb.NumRows())
	for i := int64(0); i < int64(n); i++ {
		if err := tb.AppendRow([]vector.Value{vector.NewInt(start + i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// checkSeq asserts that the table content is exactly the OID sequence
// hseq..hseq+rows.
func checkSeq(t *testing.T, tb *Table) {
	t.Helper()
	view := tb.Snapshot()
	hseq := int64(tb.Hseq())
	for i := 0; i < view.NumRows(); i++ {
		if got := view.Get(0, i).I; got != hseq+int64(i) {
			t.Fatalf("row %d = %d, want %d", i, got, hseq+int64(i))
		}
	}
}

func TestSealingProducesChunks(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(8)
	fillSeq(t, tb, 30)
	chunks, rows, dropped := tb.Stats()
	if rows != 30 || dropped != 0 {
		t.Fatalf("rows=%d dropped=%d", rows, dropped)
	}
	if chunks != 4 { // 8+8+8+6
		t.Fatalf("chunks = %d, want 4", chunks)
	}
	checkSeq(t, tb)
}

func TestAppendBatchSplitsAtTarget(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(10)
	vals := make([]int64, 35)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := tb.AppendBatch([]*vector.Vector{vector.FromInts(vals)}); err != nil {
		t.Fatal(err)
	}
	chunks, rows, _ := tb.Stats()
	if rows != 35 || chunks != 4 {
		t.Fatalf("rows=%d chunks=%d", rows, chunks)
	}
	for _, ch := range tb.Snapshot().Chunks {
		if ch.Len() > 10 {
			t.Fatalf("oversized chunk: %d", ch.Len())
		}
	}
	checkSeq(t, tb)
}

func TestDropPrefixReleasesWholeChunks(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(8)
	fillSeq(t, tb, 32)
	before := tb.Snapshot()

	tb.DropPrefix(20) // 2 whole chunks + 4 rows of the third
	if tb.NumRows() != 12 || tb.Hseq() != 20 {
		t.Fatalf("rows=%d hseq=%d", tb.NumRows(), tb.Hseq())
	}
	checkSeq(t, tb)
	// The surviving sealed chunk is shared with the pre-drop snapshot's
	// backing, not copied: dropping again still reads the right values.
	tb.DropPrefix(5)
	if tb.Hseq() != 25 {
		t.Fatalf("hseq=%d", tb.Hseq())
	}
	checkSeq(t, tb)
	// The pre-drop snapshot still reads the full original content.
	if before.NumRows() != 32 || before.Get(0, 0).I != 0 || before.Get(0, 31).I != 31 {
		t.Error("prior snapshot disturbed by DropPrefix")
	}
}

func TestDropPrefixIntoTail(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(8)
	fillSeq(t, tb, 12) // one sealed chunk + 4 tail rows
	tb.DropPrefix(10)  // reaches 2 rows into the tail
	if tb.NumRows() != 2 || tb.Hseq() != 10 {
		t.Fatalf("rows=%d hseq=%d", tb.NumRows(), tb.Hseq())
	}
	checkSeq(t, tb)
	// Appends after the tail was frozen keep working.
	fillSeq(t, tb, 3)
	if tb.NumRows() != 5 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	checkSeq(t, tb)
}

func TestRetainSharesUntouchedChunks(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(8)
	fillSeq(t, tb, 24) // 3 sealed chunks
	firstChunk := tb.Snapshot().Chunks[0].Cols[0]

	// Remove rows only from the middle chunk.
	tb.Remove([]int{9, 12})
	if tb.NumRows() != 22 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	if got := tb.Snapshot().Chunks[0].Cols[0]; got != firstChunk {
		t.Error("untouched chunk should be shared, not rewritten")
	}
	// Values: 0..8, 10, 11, 13..23 renumbered from hseq 2.
	view := tb.Snapshot()
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}
	for i, w := range want {
		if got := view.Get(0, i).I; got != w {
			t.Fatalf("row %d = %d, want %d", i, got, w)
		}
	}
	if tb.Hseq() != 2 {
		t.Fatalf("hseq=%d", tb.Hseq())
	}
}

// TestSetChunkTargetSealsOversizedTail: shrinking the target below the
// current tail size must seal the tail instead of leaving later appends
// with negative headroom.
func TestSetChunkTargetSealsOversizedTail(t *testing.T) {
	tb := NewTable("t", intSchema())
	fillSeq(t, tb, 10) // tail holds 10 rows under the default target
	tb.SetChunkTarget(5)
	if err := tb.AppendBatch([]*vector.Vector{vector.FromInts([]int64{10, 11, 12})}); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 13 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	checkSeq(t, tb)
}

func TestStatsCountsDropped(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(4)
	fillSeq(t, tb, 10)
	tb.DropPrefix(6)
	tb.Remove([]int{0})
	chunks, rows, dropped := tb.Stats()
	if rows != 3 || dropped != 7 {
		t.Fatalf("rows=%d dropped=%d", rows, dropped)
	}
	if chunks < 1 {
		t.Fatalf("chunks=%d", chunks)
	}
}

// TestPropChunkedMatchesFlatModel drives a chunked table and a flat
// reference slice through the same random op sequence and compares
// content, head OID, and pre-op snapshot stability after every step.
func TestPropChunkedMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tb := NewTable("t", intSchema())
		tb.SetChunkTarget(1 + rng.Intn(9))
		var model []int64 // model[i] is the value at position i
		next := int64(0)
		var hseq int64

		for step := 0; step < 60; step++ {
			prior := tb.Snapshot()
			priorVals := append([]int64(nil), model...)

			switch op := rng.Intn(4); {
			case op == 0 || len(model) == 0: // append batch
				n := 1 + rng.Intn(12)
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = next
					next++
				}
				if err := tb.AppendBatch([]*vector.Vector{vector.FromInts(vals)}); err != nil {
					t.Fatal(err)
				}
				model = append(model, vals...)
			case op == 1: // drop prefix
				n := rng.Intn(len(model) + 1)
				tb.DropPrefix(n)
				model = model[n:]
				hseq += int64(n)
			case op == 2: // remove random sorted positions
				var pos []int
				for i := range model {
					if rng.Intn(3) == 0 {
						pos = append(pos, i)
					}
				}
				tb.Remove(pos)
				kept := model[:0]
				j := 0
				for i, v := range model {
					if j < len(pos) && pos[j] == i {
						j++
						continue
					}
					kept = append(kept, v)
				}
				hseq += int64(len(model) - len(kept))
				model = kept
			default: // truncate
				hseq += int64(len(model))
				tb.Truncate()
				model = model[:0]
			}

			if tb.NumRows() != len(model) {
				t.Fatalf("trial %d step %d: rows=%d model=%d", trial, step, tb.NumRows(), len(model))
			}
			if int64(tb.Hseq()) != hseq {
				t.Fatalf("trial %d step %d: hseq=%d model=%d", trial, step, tb.Hseq(), hseq)
			}
			view := tb.Snapshot()
			for i, w := range model {
				if got := view.Get(0, i).I; got != w {
					t.Fatalf("trial %d step %d row %d: %d, want %d", trial, step, i, got, w)
				}
			}
			// The snapshot taken before this op still reads the old content.
			for i, w := range priorVals {
				if got := prior.Get(0, i).I; got != w {
					t.Fatalf("trial %d step %d: prior snapshot row %d = %d, want %d",
						trial, step, i, got, w)
				}
			}
		}
	}
}

// TestStressSnapshotStability is the -race stress for the consumption
// contract: snapshots taken before DropPrefix/Remove keep reading correct
// values while appends and consumption run concurrently. Every row's
// value is its OID, so any view is self-checking against the head OID of
// the moment it was taken.
func TestStressSnapshotStability(t *testing.T) {
	tb := NewTable("t", intSchema())
	tb.SetChunkTarget(16)
	const total = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Appender: values follow the OID sequence.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := int64(0)
		for next < total {
			n := int64(1 + next%7)
			vals := make([]int64, 0, n)
			for i := int64(0); i < n && next < total; i++ {
				vals = append(vals, next)
				next++
			}
			if err := tb.AppendBatch([]*vector.Vector{vector.FromInts(vals)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Consumer: alternates DropPrefix and Remove-from-the-front.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(11))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := tb.NumRows()
			if n == 0 {
				runtime.Gosched()
				continue
			}
			k := 1 + rng.Intn(n)
			if i%2 == 0 {
				tb.DropPrefix(k)
			} else {
				pos := make([]int, k)
				for j := range pos {
					pos[j] = j
				}
				tb.Remove(pos)
			}
		}
	}()

	// Readers: every snapshot must be internally consistent — value at
	// view row i equals the view's first value plus i (both consumption
	// paths only ever remove prefixes here).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := tb.Snapshot()
				n := view.NumRows()
				if n == 0 {
					continue
				}
				first := view.Get(0, 0).I
				for i := 0; i < n; i++ {
					if got := view.Get(0, i).I; got != first+int64(i) {
						t.Errorf("snapshot row %d = %d, want %d", i, got, first+int64(i))
						return
					}
				}
			}
		}()
	}

	// Wait until everything appended has been consumed, then stop the
	// consumer and readers (the appender exits on its own).
	for tb.NumRows() > 0 || int64(tb.Hseq()) < total {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}
