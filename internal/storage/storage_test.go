package storage

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/vector"
)

func schemaAB() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "a", Type: vector.Int64},
		catalog.Column{Name: "b", Type: vector.String},
	)
}

func rowIS(i int64, s string) []vector.Value {
	return []vector.Value{vector.NewInt(i), vector.NewString(s)}
}

func TestAppendRowAndSnapshot(t *testing.T) {
	tb := NewTable("t", schemaAB())
	if err := tb.AppendRow(rowIS(1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(rowIS(2, "y")); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	snap := tb.Snapshot().Columns()
	if snap[0].Get(1).I != 2 || snap[1].Get(0).S != "x" {
		t.Errorf("snapshot: %v %v", snap[0], snap[1])
	}
}

func TestAppendRowArityError(t *testing.T) {
	tb := NewTable("t", schemaAB())
	if err := tb.AppendRow([]vector.Value{vector.NewInt(1)}); err == nil {
		t.Error("short row should fail")
	}
}

func TestAppendBatchTypeError(t *testing.T) {
	tb := NewTable("t", schemaAB())
	err := tb.AppendBatch([]*vector.Vector{
		vector.FromFloats([]float64{1}), vector.FromStrings([]string{"x"}),
	})
	if err == nil {
		t.Error("wrong column type should fail")
	}
	err = tb.AppendBatch([]*vector.Vector{vector.FromInts([]int64{1})})
	if err == nil {
		t.Error("wrong column count should fail")
	}
	err = tb.AppendBatch([]*vector.Vector{
		vector.FromInts([]int64{1, 2}), vector.FromStrings([]string{"x"}),
	})
	if err == nil {
		t.Error("ragged batch should fail")
	}
}

func TestSnapshotStableAcrossAppends(t *testing.T) {
	tb := NewTable("t", schemaAB())
	_ = tb.AppendRow(rowIS(1, "x"))
	snap := tb.Snapshot().Columns()
	for i := 0; i < 100; i++ {
		_ = tb.AppendRow(rowIS(int64(i), "later"))
	}
	if snap[0].Len() != 1 || snap[0].Get(0).I != 1 {
		t.Errorf("snapshot changed: %v", snap[0])
	}
}

func TestDropPrefixAdvancesHseq(t *testing.T) {
	tb := NewTable("t", schemaAB())
	for i := int64(0); i < 5; i++ {
		_ = tb.AppendRow(rowIS(i, "r"))
	}
	tb.DropPrefix(3)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if tb.Hseq() != 3 {
		t.Errorf("Hseq = %d, want 3", tb.Hseq())
	}
	if tb.Snapshot().Get(0, 0).I != 3 {
		t.Error("wrong survivor")
	}
}

func TestRemoveAndRetain(t *testing.T) {
	tb := NewTable("t", schemaAB())
	for i := int64(0); i < 5; i++ {
		_ = tb.AppendRow(rowIS(i, "r"))
	}
	tb.Remove([]int{1, 3})
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	snap := tb.Snapshot()
	want := []int64{0, 2, 4}
	for i, w := range want {
		if snap.Get(0, i).I != w {
			t.Errorf("row %d = %d, want %d", i, snap.Get(0, i).I, w)
		}
	}
	tb.Remove(nil) // no-op
	if tb.NumRows() != 3 {
		t.Error("Remove(nil) should be a no-op")
	}
}

func TestTruncate(t *testing.T) {
	tb := NewTable("t", schemaAB())
	for i := int64(0); i < 4; i++ {
		_ = tb.AppendRow(rowIS(i, "r"))
	}
	tb.Truncate()
	if tb.NumRows() != 0 {
		t.Errorf("NumRows = %d after truncate", tb.NumRows())
	}
	if tb.Hseq() != 4 {
		t.Errorf("Hseq = %d, want 4", tb.Hseq())
	}
}

func TestConcurrentAppendAndSnapshot(t *testing.T) {
	tb := NewTable("t", schemaAB())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 250; i++ {
				_ = tb.AppendRow(rowIS(i, "c"))
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				view := tb.Snapshot()
				if view.NumCols() != 2 {
					t.Error("wrong column count")
					return
				}
				for _, ch := range view.Chunks {
					if ch.Cols[0].Len() != ch.Cols[1].Len() {
						t.Error("ragged snapshot chunk")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if tb.NumRows() != 1000 {
		t.Errorf("NumRows = %d, want 1000", tb.NumRows())
	}
}

func TestRelationRoundTrip(t *testing.T) {
	r := NewRelation(schemaAB())
	r.AppendRow(rowIS(7, "seven"))
	r.AppendRow(rowIS(8, "eight"))
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	row := r.Row(1)
	if row[0].I != 8 || row[1].S != "eight" {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestRelationTake(t *testing.T) {
	r := NewRelation(schemaAB())
	for i := int64(0); i < 4; i++ {
		r.AppendRow(rowIS(i, "r"))
	}
	got := r.Take([]int{3, 1})
	if got.NumRows() != 2 || got.Row(0)[0].I != 3 || got.Row(1)[0].I != 1 {
		t.Errorf("Take: %v", got)
	}
}

func TestRelationAppendRelation(t *testing.T) {
	a := NewRelation(schemaAB())
	a.AppendRow(rowIS(1, "x"))
	b := NewRelation(schemaAB())
	b.AppendRow(rowIS(2, "y"))
	a.AppendRelation(b)
	if a.NumRows() != 2 || a.Row(1)[0].I != 2 {
		t.Errorf("AppendRelation: %v", a)
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation(schemaAB())
	r.AppendRow(rowIS(1, "x"))
	s := r.String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestTableAppendRelation(t *testing.T) {
	tb := NewTable("t", schemaAB())
	r := NewRelation(schemaAB())
	r.AppendRow(rowIS(1, "x"))
	if err := tb.AppendRelation(r); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}
