package datacell

// Engine-level coverage of partitioned parallel execution: shard
// pipelines produce the same result sets as a single pipeline, DROP
// tears every shard transition down, routing is visible through SHOW,
// and concurrent ingest across shards survives the race detector.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

// newPartitionedPair returns two engines with the same stream schema —
// one sharded 4 ways by k, one unpartitioned — so a query registered on
// both can be compared row for row.
func newPartitionedPair(t *testing.T) (part, flat *Engine) {
	t.Helper()
	ctx := context.Background()
	part = newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	flat = newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := part.Exec(ctx, "CREATE BASKET s (k INT, v INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Exec(ctx, "CREATE BASKET s (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	return part, flat
}

func kvRows(pairs [][2]int64) [][]vector.Value {
	rows := make([][]vector.Value, len(pairs))
	for i, p := range pairs {
		rows[i] = []vector.Value{vector.NewInt(p[0]), vector.NewInt(p[1])}
	}
	return rows
}

// sortedRows renders a relation's rows (excluding the trailing ts
// column when present) as sorted strings for order-insensitive
// comparison.
func sortedRows(t *testing.T, rels ...*storage.Relation) []string {
	t.Helper()
	var out []string
	for _, rel := range rels {
		w := rel.Schema.Len()
		if rel.Schema.Index("ts") == w-1 {
			w--
		}
		for i := 0; i < rel.NumRows(); i++ {
			var parts []string
			for c := 0; c < w; c++ {
				parts = append(parts, rel.Cols[c].Get(i).String())
			}
			out = append(out, strings.Join(parts, ","))
		}
	}
	sort.Strings(out)
	return out
}

func drainOut(t *testing.T, e *Engine, query string) *storage.Relation {
	t.Helper()
	rel, err := e.Exec(context.Background(), "SELECT * FROM "+query+"_out")
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestPartitionedFilterMatchesFlat interleaves ingest and scheduler
// passes arbitrarily; a row-preserving filter query must produce the
// same result multiset on the sharded and flat engines.
func TestPartitionedFilterMatchesFlat(t *testing.T) {
	ctx := context.Background()
	part, flat := newPartitionedPair(t)
	const query = `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v % 3 <> 0`
	for _, e := range []*Engine{part, flat} {
		if _, err := e.Exec(ctx, query); err != nil {
			t.Fatal(err)
		}
	}
	qp, _ := part.Query("q")
	if qp.Shards() != 4 || !qp.Partitioned() {
		t.Fatalf("shards = %d, partitioned = %v", qp.Shards(), qp.Partitioned())
	}
	qf, _ := flat.Query("q")
	if qf.Shards() != 1 {
		t.Fatalf("flat shards = %d", qf.Shards())
	}

	rng := rand.New(rand.NewSource(42))
	total := 0
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(40)
		var pairs [][2]int64
		for i := 0; i < n; i++ {
			pairs = append(pairs, [2]int64{int64(rng.Intn(16)), int64(total + i)})
		}
		total += n
		rows := kvRows(pairs)
		if err := part.Ingest(ctx, "s", rows); err != nil {
			t.Fatal(err)
		}
		if err := flat.Ingest(ctx, "s", rows); err != nil {
			t.Fatal(err)
		}
		// Fire at arbitrary points: sometimes after every batch, sometimes
		// letting backlog build up across rounds.
		if rng.Intn(3) > 0 {
			part.Step()
		}
		if rng.Intn(3) > 0 {
			flat.Step()
		}
	}
	part.Drain()
	flat.Drain()

	got := sortedRows(t, drainOut(t, part, "q"))
	want := sortedRows(t, drainOut(t, flat, "q"))
	if len(got) == 0 {
		t.Fatal("no results")
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("partitioned %d rows != flat %d rows", len(got), len(want))
	}
	if qp.Stats().TuplesIn != int64(total) {
		t.Errorf("shard pipelines consumed %d of %d tuples", qp.Stats().TuplesIn, total)
	}
	if lag := qp.MergeLag(); lag != 0 {
		t.Errorf("merge lag = %d after drain", lag)
	}
}

// TestPartitionedAggregatesMatchFlat checks the grouped shapes under an
// ingest-then-drain schedule (both engines fire exactly once over the
// full backlog, so per-firing aggregation semantics coincide): aligned
// grouping (concat merge), non-aligned grouping (global re-aggregation),
// HAVING at the merge stage, scalar aggregates, and DISTINCT.
func TestPartitionedAggregatesMatchFlat(t *testing.T) {
	queries := map[string]string{
		"aligned": `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
			SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.k`,
		"global": `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
			SELECT x.v, COUNT(*) AS c, SUM(x.k) AS sk, MIN(x.k) AS mn, MAX(x.k) AS mx
			FROM [SELECT * FROM s] AS x GROUP BY x.v`,
		"having": `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
			SELECT x.v, COUNT(*) AS c FROM [SELECT * FROM s] AS x GROUP BY x.v HAVING COUNT(*) > 2`,
		"scalar": `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
			SELECT COUNT(*) AS c, SUM(x.v) AS sv, MIN(x.v) AS mn FROM [SELECT * FROM s] AS x`,
		"distinct": `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
			SELECT DISTINCT x.v FROM [SELECT * FROM s] AS x`,
	}
	for name, query := range queries {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			part, flat := newPartitionedPair(t)
			for _, e := range []*Engine{part, flat} {
				if _, err := e.Exec(ctx, query); err != nil {
					t.Fatal(err)
				}
			}
			qp, _ := part.Query("q")
			if qp.Shards() != 4 {
				t.Fatalf("shards = %d", qp.Shards())
			}
			rng := rand.New(rand.NewSource(9))
			var pairs [][2]int64
			for i := 0; i < 500; i++ {
				pairs = append(pairs, [2]int64{int64(rng.Intn(32)), int64(rng.Intn(8))})
			}
			rows := kvRows(pairs)
			if err := part.Ingest(ctx, "s", rows); err != nil {
				t.Fatal(err)
			}
			if err := flat.Ingest(ctx, "s", rows); err != nil {
				t.Fatal(err)
			}
			part.Drain()
			flat.Drain()
			got := sortedRows(t, drainOut(t, part, "q"))
			want := sortedRows(t, drainOut(t, flat, "q"))
			if len(want) == 0 {
				t.Fatal("flat engine produced nothing")
			}
			if strings.Join(got, ";") != strings.Join(want, ";") {
				t.Errorf("partitioned = %v\nflat = %v", got, want)
			}
		})
	}
}

// TestPartitionedFallbacks: shapes the analyzer rejects (and options the
// partitioned path cannot honor) must still run — as one pipeline.
func TestPartitionedFallbacks(t *testing.T) {
	ctx := context.Background()
	part, _ := newPartitionedPair(t)
	cases := map[string]string{
		"avg":     `CREATE CONTINUOUS QUERY avgq WITH (polling = true) AS SELECT AVG(x.v) AS a FROM [SELECT * FROM s] AS x`,
		"orderby": `CREATE CONTINUOUS QUERY ordq WITH (polling = true) AS SELECT * FROM [SELECT * FROM s] AS x ORDER BY x.v`,
		"window": `CREATE CONTINUOUS QUERY winq WITH (polling = true) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW ROWS 4 SLIDE 4`,
		"shedding": `CREATE CONTINUOUS QUERY shedq WITH (polling = true, shed_limit = 100) AS
			SELECT * FROM [SELECT * FROM s] AS x`,
	}
	for name, ddl := range cases {
		if _, err := part.Exec(ctx, ddl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, qn := range []string{"avgq", "ordq", "winq", "shedq"} {
		q, err := part.Query(qn)
		if err != nil {
			t.Fatal(err)
		}
		if q.Shards() != 1 || q.Partitioned() {
			t.Errorf("%s: shards = %d, partitioned = %v", qn, q.Shards(), q.Partitioned())
		}
	}
	// The fallback pipelines still see the stream: a replica receives the
	// full batches next to the shard routing.
	if err := part.Ingest(ctx, "s", kvRows([][2]int64{{1, 10}, {2, 20}})); err != nil {
		t.Fatal(err)
	}
	part.Drain()
	if rel := drainOut(t, part, "shedq"); rel.NumRows() != 2 {
		t.Errorf("fallback query saw %d of 2 tuples", rel.NumRows())
	}
}

// TestPartitionedDropTeardown: DROP CONTINUOUS QUERY must remove every
// shard factory, the merge transition, and the emitter from the
// scheduler, release the shard watermarks, and free the output baskets.
func TestPartitionedDropTeardown(t *testing.T) {
	ctx := context.Background()
	part, _ := newPartitionedPair(t)
	baseline := len(part.Scheduler().Transitions())
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY q AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
		t.Fatal(err)
	}
	// 4 shard factories + merge; delivery is no transition.
	if got := len(part.Scheduler().Transitions()); got != baseline+5 {
		t.Fatalf("transitions = %d, want %d", got, baseline+5)
	}
	if err := part.Ingest(ctx, "s", kvRows([][2]int64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})); err != nil {
		t.Fatal(err)
	}
	part.Drain()
	if _, err := part.Exec(ctx, "DROP CONTINUOUS QUERY q"); err != nil {
		t.Fatal(err)
	}
	if got := len(part.Scheduler().Transitions()); got != baseline {
		t.Errorf("transitions leaked after drop: %d, want %d", got, baseline)
	}
	for _, obj := range []string{"q_out"} {
		if _, err := part.Exec(ctx, "SELECT * FROM "+obj); err == nil {
			t.Errorf("%s still queryable after drop", obj)
		}
	}
	// No registered readers: later ingest must not accumulate in shards.
	if err := part.Ingest(ctx, "s", kvRows([][2]int64{{9, 9}})); err != nil {
		t.Fatal(err)
	}
	part.mu.Lock()
	s := part.streams["s"]
	part.mu.Unlock()
	if s.shardReaders != 0 {
		t.Errorf("shardReaders = %d after drop", s.shardReaders)
	}
	for i, sh := range s.shards {
		if sh.Len() != 0 {
			t.Errorf("shard %d retains %d tuples after drop", i, sh.Len())
		}
	}
	// The name is reusable.
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY q AS
		SELECT * FROM [SELECT * FROM s] AS x`); err != nil {
		t.Errorf("re-create after drop: %v", err)
	}
}

// TestPartitionedDropStream: DROP BASKET is blocked while a partitioned
// query reads the stream and removes the shard catalog entries once
// free.
func TestPartitionedDropStream(t *testing.T) {
	ctx := context.Background()
	part, _ := newPartitionedPair(t)
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY q AS
		SELECT * FROM [SELECT * FROM s] AS x`); err != nil {
		t.Fatal(err)
	}
	if _, err := part.Exec(ctx, "DROP BASKET s"); err == nil {
		t.Fatal("dropped a stream a partitioned query reads")
	}
	if _, err := part.Exec(ctx, "DROP CONTINUOUS QUERY q"); err != nil {
		t.Fatal(err)
	}
	if _, err := part.Exec(ctx, "DROP BASKET s"); err != nil {
		t.Fatal(err)
	}
	rel, err := part.Exec(ctx, "SHOW BASKETS")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.NumRows(); i++ {
		if name := rel.Cols[0].Get(i).S; strings.HasPrefix(name, "s#") {
			t.Errorf("shard basket %s survived DROP BASKET", name)
		}
	}
}

// TestPartitionedShow checks the per-shard introspection columns: SHOW
// QUERIES reports shard count and merge lag, SHOW BASKETS lists the
// stream's and the query's shard baskets with their shard indexes.
func TestPartitionedShow(t *testing.T) {
	ctx := context.Background()
	part, _ := newPartitionedPair(t)
	if _, err := part.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
		SELECT * FROM [SELECT * FROM s] AS x`); err != nil {
		t.Fatal(err)
	}
	rel, err := part.Exec(ctx, "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"name", "strategy", "shards", "merge_lag", "late_tuples", "watermark", "join_state", "join_evictions", "last_checkpoint", "replay_lag", "sql"}
	for i, w := range wantCols {
		if rel.Schema.Columns[i].Name != w {
			t.Fatalf("SHOW QUERIES column %d = %s, want %s", i, rel.Schema.Columns[i].Name, w)
		}
	}
	if rel.NumRows() != 1 || rel.Cols[2].Get(0).I != 4 || rel.Cols[3].Get(0).I != 0 {
		t.Fatalf("SHOW QUERIES = %v", rel)
	}
	// The effective arrangement is reported, not the declared strategy.
	if got := rel.Cols[1].Get(0).S; got != "partitioned" {
		t.Errorf("strategy = %q, want partitioned", got)
	}

	if err := part.Ingest(ctx, "s", kvRows([][2]int64{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}})); err != nil {
		t.Fatal(err)
	}
	part.Drain()
	rel, err = part.Exec(ctx, "SHOW BASKETS")
	if err != nil {
		t.Fatal(err)
	}
	shardRows := map[string]int64{}
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		if !row[1].Null {
			shardRows[row[0].S] = row[1].I
		}
	}
	for i := 0; i < 4; i++ {
		if got, ok := shardRows[fmt.Sprintf("s#%d", i)]; !ok || got != int64(i) {
			t.Errorf("stream shard %d row = %v, %v", i, got, ok)
		}
		if got, ok := shardRows[fmt.Sprintf("q_out#%d", i)]; !ok || got != int64(i) {
			t.Errorf("query shard-out %d row = %v, %v", i, got, ok)
		}
	}
}

// TestPartitionedCreateErrors: invalid partitioning declarations are
// rejected with typed errors and register nothing.
func TestPartitionedCreateErrors(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{})
	for _, ddl := range []string{
		"CREATE BASKET s (k INT) WITH (partitions = 4, partition_by = nope)",
		"CREATE BASKET s (k INT) WITH (bogus = 1)",
		"CREATE BASKET s (k INT) WITH (partitions = 0)",
		// A typo'd column must fail even when partitions = 1 disables routing.
		"CREATE BASKET s (k INT) WITH (partitions = 1, partition_by = nope)",
	} {
		if _, err := e.Exec(ctx, ddl); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", ddl, err)
		}
	}
	// The failed declarations left no catalog entries behind.
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT) WITH (partitions = 2, partition_by = k)"); err != nil {
		t.Fatalf("name not reusable after failed creates: %v", err)
	}
}

// TestPartitionedConcurrentIngest is the -race stress: several producers
// ingest across shards while the concurrent scheduler fires shard
// pipelines and a subscriber drains — every tuple must come out exactly
// once.
func TestPartitionedConcurrentIngest(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 4})
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT, v INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (depth = 64) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
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

	const producers, batches, batchSize = 4, 25, 20
	const want = producers * batches * batchSize
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var pairs [][2]int64
				for i := 0; i < batchSize; i++ {
					pairs = append(pairs, [2]int64{int64(p*31 + b*7 + i), int64(i)})
				}
				if err := e.Ingest(ctx, "s", kvRows(pairs)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	got := 0
	deadline := time.After(20 * time.Second)
	recvCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for got < want {
		select {
		case <-deadline:
			t.Fatalf("timed out with %d of %d rows", got, want)
		default:
		}
		rel, err := q.Subscription().Recv(recvCtx)
		if err != nil {
			t.Fatalf("recv after %d of %d rows: %v", got, want, err)
		}
		got += rel.NumRows()
	}
	wg.Wait()
	if got != want {
		t.Fatalf("delivered %d rows, want %d", got, want)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}
