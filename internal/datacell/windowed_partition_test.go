package datacell

// Engine-level coverage of partitioned windowed execution: sharded
// time-windowed aggregates produce the same result sets as a single
// pipeline under out-of-order event time, late tuples are counted and
// surfaced, fallbacks stay on one pipeline, and teardown is complete.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vector"
)

// newWindowedPair returns two engines with stream s (k INT, g INT, v
// INT, et INT) — one sharded 4 ways by k, one unpartitioned — for
// flat-vs-sharded comparison of event-time windowed queries.
func newWindowedPair(t *testing.T) (part, flat *Engine) {
	t.Helper()
	ctx := context.Background()
	part = newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	flat = newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := part.Exec(ctx, "CREATE BASKET s (k INT, g INT, v INT, et INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Exec(ctx, "CREATE BASKET s (k INT, g INT, v INT, et INT)"); err != nil {
		t.Fatal(err)
	}
	return part, flat
}

// windowedRows generates count tuples with bounded out-of-order event
// time (each tuple trails the running maximum by less than lateness),
// followed by a closing tail that advances every shard's event time far
// enough to seal all earlier windows.
func windowedRows(rng *rand.Rand, count int, lateness int64) [][]vector.Value {
	var rows [][]vector.Value
	et := int64(0)
	block := []int64{}
	flush := func() {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ts := range block {
			rows = append(rows, []vector.Value{
				vector.NewInt(int64(rng.Intn(32))), // k: partition key
				vector.NewInt(int64(rng.Intn(5))),  // g: non-aligned group
				vector.NewInt(int64(rng.Intn(40) - 10)),
				vector.NewInt(ts),
			})
		}
		block = block[:0]
	}
	blockStart := int64(0)
	for i := 0; i < count; i++ {
		et += int64(rng.Intn(4))
		if et-blockStart >= lateness {
			flush()
			blockStart = et
		}
		block = append(block, et)
	}
	flush()
	// Closing tail: every key 0..31 gets a tuple far in the future, so
	// each shard's own stream (and the group watermark) passes the last
	// data window.
	for k := int64(0); k < 32; k++ {
		rows = append(rows, []vector.Value{
			vector.NewInt(k), vector.NewInt(0), vector.NewInt(0), vector.NewInt(et + 10_000),
		})
	}
	return rows
}

// runWindowedCompare registers the query on both engines, ingests the
// same rows, drains with window flushes, and compares the output
// multisets. Returns the partitioned query for further assertions.
func runWindowedCompare(t *testing.T, query string, rows [][]vector.Value) *Query {
	t.Helper()
	ctx := context.Background()
	part, flat := newWindowedPair(t)
	for _, e := range []*Engine{part, flat} {
		if _, err := e.Exec(ctx, query); err != nil {
			t.Fatal(err)
		}
	}
	qp, err := part.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{part, flat} {
		if err := e.Ingest(ctx, "s", rows); err != nil {
			t.Fatal(err)
		}
		// Drain: shard frontiers republish against the final group
		// watermark, and the merges they unblock fire.
		e.Drain()
	}
	got := sortedRows(t, drainOut(t, part, "q"))
	want := sortedRows(t, drainOut(t, flat, "q"))
	if len(want) == 0 {
		t.Fatal("flat engine produced nothing")
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("partitioned (%d rows) != flat (%d rows)\npartitioned = %v\nflat = %v",
			len(got), len(want), got, want)
	}
	if lag := qp.MergeLag(); lag != 0 {
		t.Errorf("merge lag = %d after drain", lag)
	}
	return qp
}

// TestPartitionedWindowedAlignedMatchesFlat: a GROUP BY on the partition
// column runs sharded with per-shard-final windows (concat merge) and
// matches the flat engine under out-of-order event time.
func TestPartitionedWindowedAlignedMatchesFlat(t *testing.T) {
	const query = `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et, lateness = 64) AS
		SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv, AVG(x.v) AS av
		FROM [SELECT * FROM s] AS x GROUP BY x.k WINDOW RANGE 256 SLIDE 128`
	rows := windowedRows(rand.New(rand.NewSource(5)), 900, 64)
	qp := runWindowedCompare(t, query, rows)
	if qp.Shards() != 4 || !qp.Partitioned() {
		t.Fatalf("shards = %d, partitioned = %v (windowed aligned should shard)", qp.Shards(), qp.Partitioned())
	}
	if late := qp.LateTuples(); late != 0 {
		t.Errorf("late = %d under bounded disorder", late)
	}
	if wm, ok := qp.Watermark(); !ok || wm <= 0 {
		t.Errorf("watermark = %d, %v", wm, ok)
	}
}

// TestPartitionedWindowedReaggMatchesFlat: grouping NOT aligned with the
// partition key — shards emit per-window partials, the windowed merge
// re-aggregates each window across shards.
func TestPartitionedWindowedReaggMatchesFlat(t *testing.T) {
	queries := map[string]string{
		"grouped": `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et, lateness = 64) AS
			SELECT x.g, COUNT(*) AS c, SUM(x.v) AS sv, MIN(x.v) AS mn, MAX(x.v) AS mx
			FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 256 SLIDE 128`,
		"having": `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et, lateness = 64) AS
			SELECT x.g, COUNT(*) AS c FROM [SELECT * FROM s] AS x
			GROUP BY x.g HAVING COUNT(*) > 3 WINDOW RANGE 256 SLIDE 256`,
		"scalar": `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et, lateness = 64) AS
			SELECT COUNT(*) AS c, SUM(x.v) AS sv, MAX(x.v) AS mx
			FROM [SELECT * FROM s] AS x WINDOW RANGE 256 SLIDE 128`,
		"filtered": `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et, lateness = 64) AS
			SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s WHERE v >= 0] AS x
			GROUP BY x.g WINDOW RANGE 256 SLIDE 128`,
	}
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			rows := windowedRows(rand.New(rand.NewSource(7)), 800, 64)
			qp := runWindowedCompare(t, query, rows)
			if qp.Shards() != 4 || !qp.Partitioned() {
				t.Fatalf("shards = %d (windowed re-aggregation should shard)", qp.Shards())
			}
		})
	}
}

// TestPartitionedWindowedInOrder: the sharded path is also correct for
// perfectly in-order input (no disorder, zero lateness).
func TestPartitionedWindowedInOrder(t *testing.T) {
	const query = `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et) AS
		SELECT x.g, COUNT(*) AS c, SUM(x.v) AS sv
		FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 200 SLIDE 100`
	rng := rand.New(rand.NewSource(3))
	var rows [][]vector.Value
	for i := 0; i < 600; i++ {
		rows = append(rows, []vector.Value{
			vector.NewInt(int64(rng.Intn(32))),
			vector.NewInt(int64(rng.Intn(4))),
			vector.NewInt(int64(rng.Intn(20))),
			vector.NewInt(int64(i)),
		})
	}
	for k := int64(0); k < 32; k++ {
		rows = append(rows, []vector.Value{vector.NewInt(k), vector.NewInt(0), vector.NewInt(0), vector.NewInt(10_000)})
	}
	qp := runWindowedCompare(t, query, rows)
	if qp.Shards() != 4 {
		t.Fatalf("shards = %d", qp.Shards())
	}
}

// TestPartitionedWindowedFallbacks: windowed shapes the analyzer cannot
// merge stay on one pipeline — count windows, non-aligned AVG / COUNT
// DISTINCT, row-preserving windows, and non-divisible slides — while
// aligned AVG shards fine.
func TestPartitionedWindowedFallbacks(t *testing.T) {
	ctx := context.Background()
	part, _ := newWindowedPair(t)
	fallbacks := map[string]string{
		"rows_window": `CREATE CONTINUOUS QUERY fq1 WITH (polling = true) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW ROWS 8 SLIDE 8`,
		"avg_reagg": `CREATE CONTINUOUS QUERY fq2 WITH (polling = true, timestamp = et) AS
			SELECT x.g, AVG(x.v) AS av FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100`,
		"count_distinct_reagg": `CREATE CONTINUOUS QUERY fq3 WITH (polling = true, timestamp = et) AS
			SELECT x.g, COUNT(DISTINCT x.v) AS dv FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100`,
		"row_preserving": `CREATE CONTINUOUS QUERY fq4 WITH (polling = true, timestamp = et) AS
			SELECT x.v FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 100`,
		"ragged_slide": `CREATE CONTINUOUS QUERY fq5 WITH (polling = true, timestamp = et) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 30`,
	}
	for name, ddl := range fallbacks {
		if _, err := part.Exec(ctx, ddl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, qn := range []string{"fq1", "fq2", "fq3", "fq4", "fq5"} {
		q, err := part.Query(qn)
		if err != nil {
			t.Fatal(err)
		}
		if q.Shards() != 1 || q.Partitioned() {
			t.Errorf("%s: shards = %d, partitioned = %v, want single-pipeline fallback", qn, q.Shards(), q.Partitioned())
		}
	}
	// Aligned AVG is per-shard-final and must NOT fall back.
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY okq WITH (polling = true, timestamp = et) AS
		SELECT x.k, AVG(x.v) AS av FROM [SELECT * FROM s] AS x GROUP BY x.k WINDOW RANGE 100 SLIDE 100`); err != nil {
		t.Fatal(err)
	}
	if q, _ := part.Query("okq"); q.Shards() != 4 {
		t.Errorf("aligned AVG: shards = %d, want 4", q.Shards())
	}
}

// TestWindowedLateSurfaced: late tuples are counted per query and appear
// in Query.Stats(), LateTuples(), and SHOW QUERIES alongside the
// watermark.
func TestWindowedLateSurfaced(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT, et INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (polling = true, timestamp = et) AS
		SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 100`); err != nil {
		t.Fatal(err)
	}
	ingest := func(v, et int64) {
		if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(v), vector.NewInt(et)}}); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	ingest(1, 10)
	ingest(2, 150) // closes [0,100)
	ingest(9, 20)  // behind the emitted boundary: late
	ingest(9, 30)  // late again
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.LateTuples(); got != 2 {
		t.Errorf("LateTuples = %d, want 2", got)
	}
	if got := q.Stats().Late; got != 2 {
		t.Errorf("Stats().Late = %d, want 2", got)
	}
	if wm, ok := q.Watermark(); !ok || wm != 150 {
		t.Errorf("watermark = %d, %v, want 150", wm, ok)
	}
	rel, err := e.Exec(ctx, "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	lateIdx, wmIdx := rel.Schema.Index("late_tuples"), rel.Schema.Index("watermark")
	if lateIdx < 0 || wmIdx < 0 {
		t.Fatalf("SHOW QUERIES missing late_tuples/watermark: %v", rel.Schema)
	}
	if got := rel.Cols[lateIdx].Get(0).I; got != 2 {
		t.Errorf("SHOW QUERIES late_tuples = %d, want 2", got)
	}
	if got := rel.Cols[wmIdx].Get(0); got.Null || got.I != 150 {
		t.Errorf("SHOW QUERIES watermark = %v, want 150", got)
	}
	// An unwindowed query reports NULL watermark and 0 late tuples.
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY plain WITH (polling = true) AS
		SELECT * FROM [SELECT * FROM s] AS x`); err != nil {
		t.Fatal(err)
	}
	rel, _ = e.Exec(ctx, "SHOW QUERIES")
	for i := 0; i < rel.NumRows(); i++ {
		if rel.Cols[0].Get(i).S != "plain" {
			continue
		}
		if !rel.Cols[wmIdx].Get(i).Null || rel.Cols[lateIdx].Get(i).I != 0 {
			t.Errorf("unwindowed query: watermark/late = %v/%v",
				rel.Cols[wmIdx].Get(i), rel.Cols[lateIdx].Get(i))
		}
	}
}

// TestWindowedOptionErrors: invalid lateness/timestamp declarations are
// rejected with typed errors.
func TestWindowedOptionErrors(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT, et INT, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for name, ddl := range map[string]string{
		"lateness_no_window": `CREATE CONTINUOUS QUERY q WITH (lateness = 10) AS
			SELECT * FROM [SELECT * FROM s] AS x`,
		"lateness_rows_window": `CREATE CONTINUOUS QUERY q WITH (lateness = 10) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW ROWS 4 SLIDE 4`,
		"lateness_negative": `CREATE CONTINUOUS QUERY q WITH (lateness = -5, timestamp = et) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100`,
		"lateness_garbage": `CREATE CONTINUOUS QUERY q WITH (lateness = 'soon') AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100`,
		"timestamp_unknown": `CREATE CONTINUOUS QUERY q WITH (timestamp = nope) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100`,
		"timestamp_bad_type": `CREATE CONTINUOUS QUERY q WITH (timestamp = name) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100`,
	} {
		if _, err := e.Exec(ctx, ddl); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", name, err)
		}
	}
	// Duration strings are accepted.
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY ok WITH (lateness = '250ms', timestamp = et) AS
		SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 1000000000`); err != nil {
		t.Errorf("duration lateness rejected: %v", err)
	}
}

// TestPartitionedWindowedConcurrentIngest is the -race stress for the
// windowed sharded path: concurrent producers feed event-time tuples
// while the worker pool fires shard window runners, the ticker flushes
// frontiers, and the windowed merge recombines — the engine must consume
// everything and stop cleanly.
func TestPartitionedWindowedConcurrentIngest(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 4})
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT, g INT, v INT, et INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (depth = 256, timestamp = et, lateness = 5000) AS
		SELECT x.g, COUNT(*) AS c, SUM(x.v) AS sv
		FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 1024 SLIDE 1024`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if q.Shards() != 4 {
		t.Fatalf("shards = %d", q.Shards())
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := q.Subscription().Recv(ctx); err != nil {
				return
			}
		}
	}()

	const producers, perProducer = 4, 400
	var et int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				ts := atomic.AddInt64(&et, 3)
				row := [][]vector.Value{{
					vector.NewInt(int64(p*31 + i)), vector.NewInt(int64(i % 4)),
					vector.NewInt(int64(i)), vector.NewInt(ts),
				}}
				if err := e.Ingest(ctx, "s", row); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	const want = producers * perProducer
	deadline := time.After(20 * time.Second)
	for q.Stats().TuplesIn < want {
		select {
		case <-deadline:
			t.Fatalf("timed out with %d of %d tuples consumed", q.Stats().TuplesIn, want)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestPartitionedWindowedTeardown: DROP CONTINUOUS QUERY removes the
// shard factories, the windowed merge, and the shard output baskets.
func TestPartitionedWindowedTeardown(t *testing.T) {
	ctx := context.Background()
	part, _ := newWindowedPair(t)
	baseline := len(part.Scheduler().Transitions())
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (timestamp = et) AS
		SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100`); err != nil {
		t.Fatal(err)
	}
	// 4 shard factories + windowed merge; delivery is no transition.
	if got := len(part.Scheduler().Transitions()); got != baseline+5 {
		t.Fatalf("transitions = %d, want %d", got, baseline+5)
	}
	if _, err := part.Exec(ctx, "DROP CONTINUOUS QUERY q"); err != nil {
		t.Fatal(err)
	}
	if got := len(part.Scheduler().Transitions()); got != baseline {
		t.Errorf("transitions leaked after drop: %d, want %d", got, baseline)
	}
	if _, err := part.Exec(ctx, "SELECT * FROM q_out"); err == nil {
		t.Error("q_out still queryable after drop")
	}
	part.mu.Lock()
	s := part.streams["s"]
	part.mu.Unlock()
	if s.shardReaders != 0 {
		t.Errorf("shardReaders = %d after drop", s.shardReaders)
	}
}
