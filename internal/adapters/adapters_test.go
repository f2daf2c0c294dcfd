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
	if e.Ready() {
		t.Error("empty basket: not ready")
	}
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(9), vector.NewFloat(9.5)}})
	if !e.Ready() {
		t.Fatal("should be ready")
	}
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
}

func TestChannelEmitterBackpressure(t *testing.T) {
	clk := metrics.NewManualClock(1)
	b := basket.New("out", schemaIV(), clk)
	e := NewChannelEmitter("sub", b, 1, BackpressureBlock)
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(1), vector.NewFloat(1)}})
	_ = e.Fire()
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(2), vector.NewFloat(2)}})
	if e.Unparked() {
		t.Error("an emitter that never declined a firing has nothing to report")
	}
	// Channel full: emitter reports not ready instead of dropping.
	if e.Ready() {
		t.Error("full channel should gate readiness")
	}
	if e.Unparked() {
		t.Error("parked on a channel that is still full: no wake is due")
	}
	<-e.C()
	// The receive wakes nobody; Unparked is how the scheduler's owner
	// learns, exactly once, that the emitter can run again.
	if !e.Unparked() {
		t.Error("the consumer made room: the parked emitter needs a wake")
	}
	if e.Unparked() {
		t.Error("Unparked must report an episode once")
	}
	if !e.Ready() {
		t.Error("drained channel should unblock")
	}
}
