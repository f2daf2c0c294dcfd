package basket

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

func sensorSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: vector.Int64},
		catalog.Column{Name: "temp", Type: vector.Float64},
	)
}

func newB(t *testing.T) (*Basket, *metrics.ManualClock) {
	t.Helper()
	clk := metrics.NewManualClock(1000)
	return New("sensors", sensorSchema(), clk), clk
}

func TestSchemaGetsTimestamp(t *testing.T) {
	b, _ := newB(t)
	if b.Schema().Len() != 3 {
		t.Fatalf("schema = %v", b.Schema())
	}
	if b.Schema().Index(catalog.TimestampColumn) != 2 {
		t.Error("ts column missing")
	}
	if b.UserWidth() != 2 {
		t.Errorf("UserWidth = %d", b.UserWidth())
	}
}

func TestAppendStampsTimestamps(t *testing.T) {
	b, clk := newB(t)
	if err := b.Append([]*vector.Vector{
		vector.FromInts([]int64{1, 2}),
		vector.FromFloats([]float64{20.5, 21.5}),
	}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500)
	if err := b.AppendRows([][]vector.Value{
		{vector.NewInt(3), vector.NewFloat(22.5)},
	}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	view := b.Snapshot()
	if view.Get(2, 0).I != 1000 || view.Get(2, 2).I != 1500 {
		t.Errorf("timestamps: %v", view.Column(2))
	}
}

func TestAppendArityError(t *testing.T) {
	b, _ := newB(t)
	if err := b.Append([]*vector.Vector{vector.FromInts([]int64{1})}); err == nil {
		t.Error("short append should fail")
	}
	if err := b.AppendRows([][]vector.Value{{vector.NewInt(1)}}); err == nil {
		t.Error("short row should fail")
	}
}

func TestOnAppendHook(t *testing.T) {
	b, _ := newB(t)
	calls := 0
	b.Subscribe(func() { calls++ })
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(1), vector.NewFloat(1)}})
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(2), vector.NewFloat(2)}})
	if calls != 2 {
		t.Errorf("hook calls = %d", calls)
	}
}

func TestOwnedConsumption(t *testing.T) {
	b, _ := newB(t)
	for i := int64(0); i < 5; i++ {
		_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(float64(i))}})
	}
	b.Lock()
	view, n := b.LockedSnapshot()
	if n != 5 {
		t.Fatalf("n = %d", n)
	}
	b.LockedRemove([]int{0, 2, 4})
	b.Unlock()
	if b.Len() != 2 {
		t.Fatalf("Len after remove = %d", b.Len())
	}
	// The pre-removal snapshot stays intact.
	if view.NumRows() != 5 || view.Get(0, 0).I != 0 {
		t.Error("snapshot corrupted by removal")
	}
	// Survivors are ids 1 and 3.
	after := b.Snapshot()
	if after.Get(0, 0).I != 1 || after.Get(0, 1).I != 3 {
		t.Errorf("survivors: %v", after.Column(0))
	}
}

func TestLockedDropPrefix(t *testing.T) {
	b, _ := newB(t)
	for i := int64(0); i < 4; i++ {
		_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(0)}})
	}
	b.Lock()
	b.LockedDropPrefix(3)
	b.Unlock()
	if b.Len() != 1 || b.Snapshot().Get(0, 0).I != 3 {
		t.Errorf("after drop: len=%d", b.Len())
	}
	if b.Hseq() != 3 {
		t.Errorf("Hseq = %d", b.Hseq())
	}
}

func TestSharedWatermarks(t *testing.T) {
	b, _ := newB(t)
	b.RegisterReader("q1")
	b.RegisterReader("q2")
	if b.Readers() != 2 {
		t.Fatalf("Readers = %d", b.Readers())
	}
	for i := int64(0); i < 6; i++ {
		_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(0)}})
	}

	// q1 sees everything; tuples must be retained for q2.
	b.Lock()
	off, n := b.UnseenLocked("q1")
	if off != 0 || n != 6 {
		t.Fatalf("q1 unseen = %d..%d", off, n)
	}
	b.LockedSetMark("q1", b.LockedHseq()+6)
	b.Unlock()
	if b.Len() != 6 {
		t.Fatalf("retained for q2: Len = %d", b.Len())
	}

	// q1 has nothing unseen now.
	b.Lock()
	off, n = b.UnseenLocked("q1")
	b.Unlock()
	if n-off != 0 {
		t.Errorf("q1 unseen after mark = %d", n-off)
	}

	// q2 consumes 4 of 6: prefix min(q1=6, q2=4) = 4 compacted.
	b.Lock()
	b.LockedSetMark("q2", b.LockedHseq()+4)
	b.Unlock()
	if b.Len() != 2 {
		t.Fatalf("after q2 partial mark: Len = %d", b.Len())
	}

	// q2 finishes; everything compacts.
	b.Lock()
	b.LockedSetMark("q2", b.LockedHseq()+2)
	b.Unlock()
	if b.Len() != 0 {
		t.Errorf("after full marks: Len = %d", b.Len())
	}
}

func TestLateReaderStartsAtCurrentHead(t *testing.T) {
	b, _ := newB(t)
	b.RegisterReader("q1")
	for i := int64(0); i < 3; i++ {
		_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(0)}})
	}
	b.Lock()
	b.LockedSetMark("q1", 3)
	b.Unlock()
	// New reader registers after compaction; it must not block on history.
	b.RegisterReader("q2")
	_ = b.AppendRows([][]vector.Value{{vector.NewInt(9), vector.NewFloat(0)}})
	b.Lock()
	off, n := b.UnseenLocked("q2")
	b.Unlock()
	if n-off != 1 {
		t.Errorf("q2 unseen = %d, want 1", n-off)
	}
}

func TestUnregisterReaderUnblocksCompaction(t *testing.T) {
	b, _ := newB(t)
	b.RegisterReader("fast")
	b.RegisterReader("slow")
	for i := int64(0); i < 4; i++ {
		_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(0)}})
	}
	b.Lock()
	b.LockedSetMark("fast", 4)
	b.Unlock()
	if b.Len() != 4 {
		t.Fatal("slow reader should retain")
	}
	b.UnregisterReader("slow")
	if b.Len() != 0 {
		t.Errorf("Len after unregister = %d", b.Len())
	}
}

func TestAppendRelationDropsForeignTS(t *testing.T) {
	b, clk := newB(t)
	other := New("other", sensorSchema(), metrics.NewManualClock(1))
	_ = other.AppendRows([][]vector.Value{{vector.NewInt(7), vector.NewFloat(7)}})
	clk.Set(9999)
	// A relation carrying a ts column (3 cols) gets fresh stamps.
	rel := &storage.Relation{Schema: other.Schema(), Cols: other.Snapshot().Columns()}
	if err := b.AppendRelation(rel); err != nil {
		t.Fatal(err)
	}
	got := b.Snapshot()
	if got.Get(2, 0).I != 9999 {
		t.Errorf("ts = %d, want fresh 9999", got.Get(2, 0).I)
	}
}

func TestConcurrentAppendAndConsume(t *testing.T) {
	b, _ := newB(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 500; i++ {
			_ = b.AppendRows([][]vector.Value{{vector.NewInt(i), vector.NewFloat(0)}})
		}
	}()
	consumed := 0
	go func() {
		defer wg.Done()
		for consumed < 500 {
			b.Lock()
			_, n := b.LockedSnapshot()
			b.LockedDropPrefix(n)
			b.Unlock()
			consumed += n
		}
	}()
	wg.Wait()
	if b.Len() != 0 {
		t.Errorf("leftover = %d", b.Len())
	}
	if consumed != 500 {
		t.Errorf("consumed = %d", consumed)
	}
}
