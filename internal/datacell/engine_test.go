package datacell

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

func newEngine(t *testing.T) (*Engine, *metrics.ManualClock) {
	t.Helper()
	clk := metrics.NewManualClock(1_000_000)
	e := newCore(Config{Clock: clk})
	if _, err := e.Exec(context.Background(), "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	return e, clk
}

// register runs CREATE CONTINUOUS QUERY name [WITH (with)] AS text and
// returns the installed query.
func register(e *Engine, name, with, text string) (*Query, error) {
	stmt := "CREATE CONTINUOUS QUERY " + name
	if with != "" {
		stmt += " WITH (" + with + ")"
	}
	if _, err := e.Exec(context.Background(), stmt+" AS "+text); err != nil {
		return nil, err
	}
	return e.Query(name)
}

// dropQuery runs DROP CONTINUOUS QUERY name.
func dropQuery(e *Engine, name string) error {
	_, err := e.Exec(context.Background(), "DROP CONTINUOUS QUERY "+name)
	return err
}

func ingestPairs(t *testing.T, e *Engine, stream string, pairs [][2]int64) {
	t.Helper()
	rows := make([][]vector.Value, len(pairs))
	for i, p := range pairs {
		rows[i] = []vector.Value{vector.NewInt(p[0]), vector.NewInt(p[1])}
	}
	if err := e.Ingest(context.Background(), stream, rows); err != nil {
		t.Fatal(err)
	}
}

func collect(q *Query) []*storage.Relation {
	var out []*storage.Relation
	for {
		rel, _ := q.Subscription().TryRecv()
		if rel == nil {
			return out
		}
		out = append(out, rel)
	}
}

func countRows(rels []*storage.Relation) int {
	n := 0
	for _, r := range rels {
		n += r.NumRows()
	}
	return n
}

func TestDDLAndOneTimeQuery(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Exec(context.Background(), "CREATE TABLE static (k INT, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), "INSERT INTO static VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Exec(context.Background(), "SELECT v FROM static WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).S != "two" {
		t.Errorf("result = %v", rel)
	}
}

func TestInsertIntoBasketRoutesAsIngest(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Exec(context.Background(), "INSERT INTO R VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}
	if e.Ingested("R") != 2 {
		t.Errorf("ingested = %d", e.Ingested("R"))
	}
	rel, err := e.Exec(context.Background(), "SELECT a FROM R WHERE b >= 20")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

func TestInsertLiteralCoercion(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Exec(context.Background(), "CREATE TABLE m (f DOUBLE, i INT, ts TIMESTAMP)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), "INSERT INTO m VALUES (1, 2.0, 3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(context.Background(), "INSERT INTO m VALUES (-1.5, -2, NULL)"); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.Exec(context.Background(), "SELECT f, i, ts FROM m ORDER BY f")
	if rel.Cols[0].Get(0).F != -1.5 || rel.Cols[1].Get(0).I != -2 || !rel.Cols[2].Get(0).Null {
		t.Errorf("row0 = %v", rel.Row(0))
	}
	if _, err := e.Exec(context.Background(), "INSERT INTO m VALUES ('x', 1, 1)"); err == nil {
		t.Error("string into double should fail")
	}
}

func TestExecErrors(t *testing.T) {
	e, _ := newEngine(t)
	for _, q := range []string{
		"SELECT * FROM [SELECT * FROM R] AS S", // continuous via Exec
		"INSERT INTO nosuch VALUES (1)",        // unknown target
		"INSERT INTO R VALUES (1)",             // arity
		"INSERT INTO R VALUES (1+1, 2)",        // non-literal
		"CREATE BASKET R (a INT, b INT)",       // duplicate
		"DROP TABLE nosuch",                    // unknown drop
	} {
		if _, err := e.Exec(context.Background(), q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
}

// The paper's q1: consume everything, filter in the outer query.
func TestContinuousQ1SeparateStrategy(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "q1", "",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{5, 1}, {15, 2}, {25, 3}})
	e.Drain()
	rels := collect(q)
	if countRows(rels) != 2 {
		t.Fatalf("results = %d rows", countRows(rels))
	}
	// The private input basket is fully consumed.
	if q.InputBacklog() != 0 {
		t.Errorf("replica len = %d", q.InputBacklog())
	}
	// New batch flows incrementally, no duplicates.
	ingestPairs(t, e, "R", [][2]int64{{50, 4}})
	e.Drain()
	rels = collect(q)
	if countRows(rels) != 1 {
		t.Errorf("second batch rows = %d", countRows(rels))
	}
	st := q.Stats()
	if st.TuplesIn != 4 || st.TuplesOut != 3 {
		t.Errorf("stats = %+v", st)
	}
}

// The paper's q2: predicate window — only tuples inside the window are
// consumed; others stay in the basket.
func TestContinuousQ2PredicateWindow(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "q2", "",
		"SELECT * FROM [SELECT * FROM R WHERE b < 100] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{
		{20, 50},  // in window, matches outer
		{5, 60},   // in window, fails outer (still consumed)
		{30, 500}, // outside window: retained
	})
	e.Drain()
	rels := collect(q)
	if countRows(rels) != 1 {
		t.Fatalf("results = %d", countRows(rels))
	}
	if q.InputBacklog() != 1 {
		t.Errorf("retained = %d, want 1 (the out-of-window tuple)", q.InputBacklog())
	}
}

func TestSharedStrategyTwoQueries(t *testing.T) {
	e, _ := newEngine(t)
	qa, err := register(e, "qa", "strategy = shared",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := register(e, "qb", "strategy = shared",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a <= 10")
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := e.Stream("R")
	if primary.Readers() != 2 {
		t.Fatalf("readers = %d", primary.Readers())
	}
	ingestPairs(t, e, "R", [][2]int64{{5, 1}, {15, 2}, {25, 3}, {8, 4}})
	e.Drain()
	if got := countRows(collect(qa)); got != 2 {
		t.Errorf("qa rows = %d", got)
	}
	if got := countRows(collect(qb)); got != 2 {
		t.Errorf("qb rows = %d", got)
	}
	// Both saw everything once; the shared basket is compacted.
	if primary.Len() != 0 {
		t.Errorf("shared basket len = %d", primary.Len())
	}
	// No duplicates on the next batch.
	ingestPairs(t, e, "R", [][2]int64{{11, 9}})
	e.Drain()
	if got := countRows(collect(qa)); got != 1 {
		t.Errorf("qa second batch = %d", got)
	}
	if got := countRows(collect(qb)); got != 0 {
		t.Errorf("qb second batch = %d", got)
	}
}

func TestSeparateAndSharedCoexist(t *testing.T) {
	e, _ := newEngine(t)
	qSep, _ := register(e, "sep", "strategy = separate",
		"SELECT * FROM [SELECT * FROM R] AS S")
	qSh, _ := register(e, "sh", "strategy = shared",
		"SELECT * FROM [SELECT * FROM R] AS S")
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {2, 2}})
	e.Drain()
	if got := countRows(collect(qSep)); got != 2 {
		t.Errorf("separate rows = %d", got)
	}
	if got := countRows(collect(qSh)); got != 2 {
		t.Errorf("shared rows = %d", got)
	}
}

func TestResultBasketQueryableViaSQL(t *testing.T) {
	e, _ := newEngine(t)
	_, err := register(e, "q", "polling = true",
		"SELECT S.a AS a, S.b AS b FROM [SELECT * FROM R] AS S WHERE S.a > 0")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{7, 70}})
	e.Drain()
	// Consume results via one-time SQL over the output basket.
	rel, err := e.Exec(context.Background(), "SELECT a, b FROM q_out")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[1].Get(0).I != 70 {
		t.Errorf("q_out = %v", rel)
	}
}

func TestContinuousAggregate(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "agg", "min_tuples = 3",
		"SELECT COUNT(*) AS n, SUM(S.b) AS total FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 10}, {2, 20}})
	e.Drain()
	if len(collect(q)) != 0 {
		t.Fatal("fired below min-tuples threshold")
	}
	ingestPairs(t, e, "R", [][2]int64{{3, 30}})
	e.Drain()
	rels := collect(q)
	if len(rels) != 1 {
		t.Fatalf("batches = %d", len(rels))
	}
	if rels[0].Cols[0].Get(0).I != 3 || rels[0].Cols[1].Get(0).I != 60 {
		t.Errorf("agg = %v", rels[0].Row(0))
	}
}

func TestWindowedContinuousQuery(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "w", "",
		"SELECT SUM(S.b) AS total FROM [SELECT * FROM R] AS S WINDOW ROWS 4 SLIDE 4")
	if err != nil {
		t.Fatal(err)
	}
	if q.Stats().Firings != 0 {
		t.Fatal("no firings yet")
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {2, 2}, {3, 3}})
	e.Drain()
	if len(collect(q)) != 0 {
		t.Fatal("window emitted early")
	}
	ingestPairs(t, e, "R", [][2]int64{{4, 4}, {5, 5}})
	e.Drain()
	rels := collect(q)
	if len(rels) != 1 {
		t.Fatalf("windows = %d", len(rels))
	}
	if rels[0].Cols[0].Get(0).I != 10 {
		t.Errorf("window sum = %v", rels[0].Row(0))
	}
}

func TestWindowedTimeFlush(t *testing.T) {
	e, clk := newEngine(t)
	q, err := register(e, "tw", "window_mode = incremental",
		"SELECT COUNT(*) AS n FROM [SELECT * FROM R] AS S WINDOW RANGE 1000 SLIDE 1000")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {2, 2}})
	e.Drain()
	if len(collect(q)) != 0 {
		t.Fatal("window emitted before time passed")
	}
	clk.Advance(5000)
	e.Drain()
	rels := collect(q)
	if len(rels) != 1 || rels[0].Cols[0].Get(0).I != 2 {
		t.Fatalf("flush results = %v", rels)
	}
}

func TestWindowModeForcedIncompatible(t *testing.T) {
	e, _ := newEngine(t)
	// Non-aggregate query cannot run incrementally.
	_, err := register(e, "bad", "window_mode = incremental",
		"SELECT * FROM [SELECT * FROM R] AS S WINDOW ROWS 4")
	if err == nil {
		t.Error("forcing incremental on non-aggregate plan should fail")
	}
}

func TestCascadeStrategy(t *testing.T) {
	e, _ := newEngine(t)
	c, err := e.RegisterCascade("casc", "R", []CascadePredicate{
		{Attr: "a", Lo: vector.NewInt(0), Hi: vector.NewInt(10)},
		{Attr: "a", Lo: vector.NewInt(10), Hi: vector.NewInt(20)},
		{Attr: "a", Lo: vector.NewInt(20), Hi: vector.NewInt(30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][2]int64
	for i := int64(0); i < 30; i++ {
		rows = append(rows, [2]int64{i, i * 10})
	}
	ingestPairs(t, e, "R", rows)
	e.Drain()
	for i := 0; i < 3; i++ {
		got := 0
		for {
			rel, _ := c.Subscription(i).TryRecv()
			if rel == nil {
				break
			}
			got += rel.NumRows()
		}
		if got != 10 {
			t.Errorf("stage %d rows = %d, want 10", i, got)
		}
	}
	// Work reduction: stage 0 saw 30, stage 1 saw 20, stage 2 saw 10.
	if c.Processed(0) != 30 || c.Processed(1) != 20 || c.Processed(2) != 10 {
		t.Errorf("processed = %d %d %d", c.Processed(0), c.Processed(1), c.Processed(2))
	}
}

func TestCascadeErrors(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.RegisterCascade("c", "nosuch", []CascadePredicate{{Attr: "a"}}); err == nil {
		t.Error("unknown stream should fail")
	}
	if _, err := e.RegisterCascade("c", "R", nil); err == nil {
		t.Error("empty cascade should fail")
	}
	if _, err := e.RegisterCascade("c", "R", []CascadePredicate{{Attr: "zzz"}}); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestDropContinuousQuery(t *testing.T) {
	e, _ := newEngine(t)
	_, err := register(e, "tmp", "", "SELECT * FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	if err := dropQuery(e, "tmp"); err != nil {
		t.Fatal(err)
	}
	if err := dropQuery(e, "tmp"); err == nil {
		t.Error("double drop should fail")
	}
	// Replicas are detached: ingest doesn't fail and nothing leaks.
	ingestPairs(t, e, "R", [][2]int64{{1, 1}})
	if _, err := e.Exec(context.Background(), "SELECT * FROM tmp_out"); err == nil {
		t.Error("output basket should be dropped")
	}
}

func TestRegisterErrors(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := register(e, "x", "", "SELECT a FROM R"); err == nil {
		t.Error("non-continuous query should be rejected")
	}
	if _, err := register(e, "x", "", "SELECT * FROM [SELECT * FROM nosuch] AS S"); err == nil {
		t.Error("unknown stream should fail")
	}
	_, _ = register(e, "dup", "", "SELECT * FROM [SELECT * FROM R] AS S")
	if _, err := register(e, "dup", "", "SELECT * FROM [SELECT * FROM R] AS S"); err == nil {
		t.Error("duplicate name should fail")
	}
}

func TestConcurrentModeEndToEnd(t *testing.T) {
	e := newCore(Config{Workers: 4}) // wall clock for realistic latency
	if _, err := e.Exec(context.Background(), "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "big", "strategy = shared, depth = 1024",
		"SELECT * FROM [SELECT * FROM s] AS S WHERE S.v % 2 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(context.Background())
	go func() {
		for i := int64(0); i < 2000; i += 100 {
			rows := make([][]vector.Value, 100)
			for j := range rows {
				rows[j] = []vector.Value{vector.NewInt(i + int64(j))}
			}
			_ = e.Ingest(context.Background(), "s", rows)
		}
	}()
	got := 0
	rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for got < 1000 {
		rel, err := q.Subscription().Recv(rctx)
		if err != nil {
			t.Fatalf("got %d of 1000: %v", got, err)
		}
		got += rel.NumRows()
	}
	if got != 1000 {
		t.Errorf("evens = %d", got)
	}
}

func TestManyQueriesManyBatches(t *testing.T) {
	e, _ := newEngine(t)
	const nq = 8
	qs := make([]*Query, nq)
	for i := 0; i < nq; i++ {
		var err error
		qs[i], err = register(e, fmt.Sprintf("q%d", i), "strategy = shared",
			fmt.Sprintf("SELECT * FROM [SELECT * FROM R] AS S WHERE S.a >= %d", i*10))
		if err != nil {
			t.Fatal(err)
		}
	}
	var rows [][2]int64
	for i := int64(0); i < 80; i++ {
		rows = append(rows, [2]int64{i, 0})
	}
	ingestPairs(t, e, "R", rows)
	e.Drain()
	for i, q := range qs {
		want := 80 - i*10
		if got := countRows(collect(q)); got != want {
			t.Errorf("q%d rows = %d, want %d", i, got, want)
		}
	}
	primary, _ := e.Stream("R")
	if primary.Len() != 0 {
		t.Errorf("shared basket leak: %d", primary.Len())
	}
}
