package adapters

import (
	"testing"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/vector"
)

func schemaIV() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: vector.Int64},
		catalog.Column{Name: "v", Type: vector.Float64},
	)
}

func TestParseTuple(t *testing.T) {
	row, err := ParseTuple(schemaIV(), "42,3.5")
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 42 || row[1].F != 3.5 {
		t.Errorf("row = %v", row)
	}
}

func TestParseTupleErrors(t *testing.T) {
	if _, err := ParseTuple(schemaIV(), "1"); err == nil {
		t.Error("short tuple should fail")
	}
	if _, err := ParseTuple(schemaIV(), "abc,1.0"); err == nil {
		t.Error("bad int should fail")
	}
}

func TestParseTupleNull(t *testing.T) {
	row, err := ParseTuple(schemaIV(), "1,NULL")
	if err != nil {
		t.Fatal(err)
	}
	if !row[1].Null {
		t.Error("NULL field should parse as null")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	row := []vector.Value{vector.NewInt(7), vector.NewFloat(2.25)}
	line := FormatTuple(row)
	back, err := ParseTuple(schemaIV(), line)
	if err != nil {
		t.Fatal(err)
	}
	if vector.Compare(back[0], row[0]) != 0 || vector.Compare(back[1], row[1]) != 0 {
		t.Errorf("round trip: %v -> %q -> %v", row, line, back)
	}
}

func TestChannelEmitter(t *testing.T) {
	clk := metrics.NewManualClock(1)
	b := basket.New("out", schemaIV(), clk)
	e := NewChannelEmitter("sub", b, 2, BackpressureBlock)
	if err := e.Fire(); err != nil || len(e.C()) != 0 {
		t.Fatalf("empty basket: Fire sent %d batches (err %v)", len(e.C()), err)
	}
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(9), vector.NewFloat(9.5)}})
	if err := e.Fire(); err != nil {
		t.Fatal(err)
	}
	select {
	case rel := <-e.C():
		if rel.NumRows() != 1 || rel.Cols[0].Get(0).I != 9 {
			t.Errorf("rel = %v", rel)
		}
	default:
		t.Fatal("nothing on channel")
	}
	if b.Len() != 0 || e.Batches() != 1 || e.Delivered() != 1 {
		t.Errorf("after delivery: %d rows left, batches %d, delivered %d", b.Len(), e.Batches(), e.Delivered())
	}
}

// TestChannelEmitterBackpressure: under the blocking policy a Fire that
// finds the channel full leaves the rows in the basket and returns; the
// next Fire after a receive made room delivers them all, in order, as one
// batch. Nothing is dropped and no Fire waits on the consumer.
func TestChannelEmitterBackpressure(t *testing.T) {
	clk := metrics.NewManualClock(1)
	b := basket.New("out", schemaIV(), clk)
	e := NewChannelEmitter("sub", b, 1, BackpressureBlock)
	row := func(i int64) [][]vector.Value {
		return [][]vector.Value{{vector.NewInt(i), vector.NewFloat(float64(i))}}
	}
	_ = b.AppendRows(row(1))
	_ = e.Fire()
	_ = b.AppendRows(row(2))
	_ = e.Fire()
	_ = b.AppendRows(row(3))
	_ = e.Fire()
	if len(e.C()) != 1 || b.Len() != 2 {
		t.Fatalf("full channel: %d batches sent, %d rows retained; want 1 and 2", len(e.C()), b.Len())
	}
	if rel := <-e.C(); rel.Cols[0].Get(0).I != 1 {
		t.Fatalf("first batch carried %v", rel.Row(0))
	}
	_ = e.Fire()
	rel := <-e.C()
	if rel.NumRows() != 2 || rel.Cols[0].Get(0).I != 2 || rel.Cols[0].Get(1).I != 3 {
		t.Fatalf("retained rows arrived as %v", rel)
	}
	if b.Len() != 0 || e.Dropped() != 0 || e.Delivered() != 3 {
		t.Errorf("after the refill: %d rows retained, %d dropped, %d delivered", b.Len(), e.Dropped(), e.Delivered())
	}
	e.Close()
	_ = b.AppendRows(row(4))
	if err := e.Fire(); err != nil || b.Len() != 1 {
		t.Errorf("closed emitter: Fire took rows (%d left, err %v)", b.Len(), err)
	}
}
