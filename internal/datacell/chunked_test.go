package datacell

// Engine-level coverage of the chunked basket storage: SHOW BASKETS
// layout introspection, multi-chunk scans through the SQL path, and the
// -race stress for snapshots under concurrent ingest + firing.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/vector"
)

// TestShowBasketsChunkStats checks the extended SHOW BASKETS columns:
// resident tuples, chunk count, and the cumulative dropped/shed counters
// surfaced from the chunked storage layer.
func TestShowBasketsChunkStats(t *testing.T) {
	e, _ := newEngine(t)
	ctx := context.Background()
	q, err := register(e, "q", "strategy = shared, polling = true",
		"SELECT * FROM [SELECT * FROM R] AS x WHERE x.a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Stream("R")
	if err != nil {
		t.Fatal(err)
	}
	b.SetChunkTarget(4)
	for i := int64(0); i < 10; i++ {
		ingestPairs(t, e, "R", [][2]int64{{i, i}})
	}
	e.Drain()
	if got := q.Stats().TuplesIn; got != 10 {
		t.Fatalf("consumed %d tuples", got)
	}

	rel, err := e.Exec(ctx, "SHOW BASKETS")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"name", "shard", "tuples", "chunks", "dropped", "shed"}
	for i, w := range wantCols {
		if rel.Schema.Columns[i].Name != w {
			t.Fatalf("SHOW BASKETS column %d = %s, want %s", i, rel.Schema.Columns[i].Name, w)
		}
	}
	stats := map[string][]int64{}
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		if !row[1].Null {
			t.Errorf("%s: unsharded basket has shard = %v", row[0].S, row[1])
		}
		stats[row[0].S] = []int64{row[2].I, row[3].I, row[4].I, row[5].I}
	}
	// The shared input basket was fully consumed: nothing resident, all 10
	// dropped, none shed.
	r := stats["R"]
	if r == nil || r[0] != 0 || r[2] != 10 || r[3] != 0 {
		t.Errorf("R stats = %v, want tuples=0 dropped=10 shed=0", r)
	}
	// The polling output basket retains the 10 results.
	out := stats["q_out"]
	if out == nil || out[0] != 10 || out[1] < 1 {
		t.Errorf("q_out stats = %v, want tuples=10 chunks>=1", out)
	}
}

// TestMultiChunkScanThroughSQL pushes a stream across many sealed chunks
// and checks that a continuous filter still sees every tuple exactly
// once, in order.
func TestMultiChunkScanThroughSQL(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "q", "strategy = shared",
		"SELECT * FROM [SELECT * FROM R] AS x WHERE x.a % 2 = 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Stream("R")
	if err != nil {
		t.Fatal(err)
	}
	b.SetChunkTarget(3)
	// One big batch spanning several chunks, no firing in between.
	rows := make([][]vector.Value, 20)
	for i := range rows {
		rows[i] = []vector.Value{vector.NewInt(int64(i)), vector.NewInt(0)}
	}
	if err := e.Ingest(context.Background(), "R", rows); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	var got []int64
	for _, rel := range collect(q) {
		for i := 0; i < rel.NumRows(); i++ {
			got = append(got, rel.Row(i)[0].I)
		}
	}
	if len(got) != 10 {
		t.Fatalf("matched %d tuples: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(2*i) {
			t.Fatalf("result %d = %d, want %d", i, v, 2*i)
		}
	}
}

// TestConcurrentIngestAndFiringStress is the engine-level -race stress:
// several ingesters feed a stream while the concurrent scheduler fires a
// consuming query and a one-time SELECT repeatedly snapshots the output
// basket. Totals must balance exactly.
func TestConcurrentIngestAndFiringStress(t *testing.T) {
	e := newCore(Config{Workers: 4})
	ctx := context.Background()
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "q", "polling = true", "SELECT * FROM [SELECT * FROM s] AS x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	b.SetChunkTarget(8)
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		each    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rows := [][]vector.Value{{vector.NewInt(int64(w*each + i))}}
				if err := e.Ingest(ctx, "s", rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Snapshot readers racing the firings.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Exec(ctx, "SELECT COUNT(*) AS n FROM q_out"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for q.Stats().TuplesIn < writers*each {
			e.Drain()
		}
	}()
	<-done
	close(stop)
	wg.Wait()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if got := q.Stats().TuplesIn; got != writers*each {
		t.Fatalf("consumed %d tuples, want %d", got, writers*each)
	}
	if got := q.Stats().TuplesOut; got != writers*each {
		t.Fatalf("emitted %d tuples, want %d", got, writers*each)
	}
}
