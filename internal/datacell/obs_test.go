package datacell

// End-to-end coverage of the observability layer: the /metrics HTTP
// endpoint served from Config.MetricsAddr, EXPLAIN ANALYZE across the
// four query shapes, SHOW TRACE, and a race hammer over Stats()/SHOW
// during concurrent ingest.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

func intRows(vals ...int64) [][]vector.Value {
	rows := make([][]vector.Value, len(vals))
	for i, v := range vals {
		rows[i] = []vector.Value{vector.NewInt(v)}
	}
	return rows
}

// column returns the named column's values over all rows, as strings.
func column(t *testing.T, rel *storage.Relation, name string) []string {
	t.Helper()
	idx := rel.Schema.Index(name)
	if idx < 0 {
		t.Fatalf("relation has no column %q (schema %v)", name, rel.Schema)
	}
	out := make([]string, rel.NumRows())
	for i := range out {
		out[i] = rel.Cols[idx].Get(i).String()
	}
	return out
}

func TestMetricsEndpointServes(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(ctx, Config{
		Clock:       metrics.NewManualClock(1_000_000),
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop(ctx)
	addr := eng.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after Open with MetricsAddr set")
	}

	if _, err := eng.Exec(ctx, "CREATE BASKET s (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.a > 1"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(ctx, "s", intRows(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	eng.Drain()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"dc_ingest_tuples_total 4",
		"dc_ingest_batches_total 1",
		`dc_stream_ingested_total{stream="s"} 4`,
		`dc_query_firings_total{query="q"}`,
		`dc_stage_fire_ns_bucket{stage="fire",le="+Inf"}`,
		"dc_stage_fire_ns_count",
		"# TYPE dc_stage_fire_ns histogram",
		"# TYPE dc_ingest_tuples_total counter",
		"# TYPE dc_stream_backlog gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The firing stage must have recorded at least one observation.
	if strings.Contains(text, "dc_stage_fire_ns_count{stage=\"fire\"} 0\n") {
		t.Error("no fire-stage firings recorded")
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
}

func TestShowTrace(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx, "CREATE BASKET s (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Ingest(ctx, "s", intRows(int64(i), int64(i+10))); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	rel, err := e.Exec(ctx, "SHOW TRACE q")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() == 0 {
		t.Fatal("SHOW TRACE returned no events after firings")
	}
	stages := column(t, rel, "stage")
	joined := strings.Join(stages, ",")
	if !strings.Contains(joined, "fire") || !strings.Contains(joined, "deliver") {
		t.Fatalf("trace stages = %v, want fire and deliver events", stages)
	}
	// Sequence numbers must be strictly increasing (oldest first).
	seqs := column(t, rel, "seq")
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("trace seq not increasing: %v", seqs)
		}
	}
	// Fired tuples are accounted: at least one fire event moved tuples.
	in := column(t, rel, "tuples_in")
	movedTuples := false
	for i := range in {
		if stages[i] == "fire" && in[i] != "0" {
			movedTuples = true
		}
	}
	if !movedTuples {
		t.Fatalf("no fire event recorded tuples_in > 0: in=%v stages=%v", in, stages)
	}
	if _, err := e.Exec(ctx, "SHOW TRACE nosuch"); err == nil {
		t.Fatal("SHOW TRACE on unknown query did not fail")
	}
}

// explainOps runs EXPLAIN ANALYZE and returns the operator column.
func explainOps(t *testing.T, e *Engine, query string) ([]string, *storage.Relation) {
	t.Helper()
	rel, err := e.Exec(context.Background(), "EXPLAIN ANALYZE "+query)
	if err != nil {
		t.Fatal(err)
	}
	return column(t, rel, "operator"), rel
}

func TestExplainAnalyzeFlat(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx, "CREATE BASKET s (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.a > 10"); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "s", intRows(5, 15, 25)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	ops, rel := explainOps(t, e, "q")
	for _, want := range []string{"query", "stream", "factory", "plan", "output", "deliver"} {
		if !strings.Contains(strings.Join(ops, ","), want) {
			t.Errorf("EXPLAIN ANALYZE operators %v missing %q", ops, want)
		}
	}
	if strings.Contains(strings.Join(ops, ","), "merge") {
		t.Errorf("flat query shows a merge stage: %v", ops)
	}
	// The query row carries the cumulative counters.
	ins := column(t, rel, "tuples_in")
	outs := column(t, rel, "tuples_out")
	if ops[0] != "query" || ins[0] != "3" || outs[0] != "2" {
		t.Fatalf("query row = op %s in %s out %s, want query/3/2", ops[0], ins[0], outs[0])
	}
	if _, err := e.Exec(ctx, "EXPLAIN ANALYZE nosuch"); err == nil {
		t.Fatal("EXPLAIN ANALYZE on unknown query did not fail")
	}
}

func TestExplainAnalyzePartitioned(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx,
		"CREATE BASKET s (k INT, v INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT s.k AS k, SUM(s.v) AS total FROM [SELECT * FROM s] AS s GROUP BY s.k"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]vector.Value, 0, 32)
	for i := int64(0); i < 32; i++ {
		rows = append(rows, []vector.Value{vector.NewInt(i % 8), vector.NewInt(i)})
	}
	if err := e.Ingest(ctx, "s", rows); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	ops, rel := explainOps(t, e, "q")
	joined := strings.Join(ops, ",")
	for _, want := range []string{"query", "factory", "merge", "tail", "output"} {
		if !strings.Contains(joined, want) {
			t.Errorf("partitioned EXPLAIN ANALYZE operators %v missing %q", ops, want)
		}
	}
	factories := 0
	for _, op := range ops {
		if op == "factory" {
			factories++
		}
	}
	if factories != 4 {
		t.Fatalf("factory rows = %d, want one per shard (4)", factories)
	}
	details := column(t, rel, "detail")
	if !strings.Contains(details[0], "partitioned") || !strings.Contains(details[0], "4 shards") {
		t.Fatalf("query detail = %q, want partitioned with 4 shards", details[0])
	}
}

func TestExplainAnalyzeWindowed(t *testing.T) {
	ctx := context.Background()
	clock := metrics.NewManualClock(1_000)
	e := newCore(Config{Clock: clock})
	if _, err := e.Exec(ctx, "CREATE BASKET s (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x WINDOW RANGE 1000 SLIDE 1000"); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "s", intRows(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	clock.Set(5_000)
	if err := e.Ingest(ctx, "s", intRows(4)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	ops, rel := explainOps(t, e, "q")
	details := column(t, rel, "detail")
	if !strings.Contains(details[0], "windowed") {
		t.Fatalf("query detail = %q, want windowed shape", details[0])
	}
	watermarked := false
	for i, op := range ops {
		if op == "factory" && strings.Contains(details[i], "watermark=") {
			watermarked = true
		}
	}
	if !watermarked {
		t.Fatalf("no factory row carries a watermark: ops=%v details=%v", ops, details)
	}
}

func TestExplainAnalyzeJoin(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	for _, ddl := range []string{
		"CREATE BASKET l (k INT, v INT)",
		"CREATE BASKET r (k INT, w INT)",
	} {
		if _, err := e.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Exec(ctx,
		`CREATE CONTINUOUS QUERY j AS SELECT l.k AS k, l.v AS v, r.w AS w
		 FROM [SELECT * FROM l] AS l JOIN [SELECT * FROM r] AS r ON l.k = r.k`); err != nil {
		t.Fatal(err)
	}
	ingest2 := func(stream string, k, v int64) {
		if err := e.Ingest(ctx, stream,
			[][]vector.Value{{vector.NewInt(k), vector.NewInt(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	ingest2("l", 1, 10)
	ingest2("r", 1, 20)
	e.Drain()
	ops, rel := explainOps(t, e, "j")
	details := column(t, rel, "detail")
	if !strings.Contains(details[0], "join") {
		t.Fatalf("query detail = %q, want join shape", details[0])
	}
	// Both source streams appear.
	streams := 0
	for _, op := range ops {
		if op == "stream" {
			streams++
		}
	}
	if streams != 2 {
		t.Fatalf("stream rows = %d, want 2 (both join sides)", streams)
	}
}

// TestExplainShapeFromTopology: the shape row comes from the planned
// topology, not from the query text — a JOIN keyword between newlines is
// still a join, and a ' JOIN ' string literal in a filter is not one.
func TestExplainShapeFromTopology(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	for _, ddl := range []string{
		"CREATE BASKET l (k INT, v INT)",
		"CREATE BASKET r (k INT, w INT)",
		"CREATE BASKET tagged (a INT, tag VARCHAR)",
		"CREATE CONTINUOUS QUERY j AS SELECT l.k AS k FROM [SELECT * FROM l] AS l\nJOIN\n[SELECT * FROM r] AS r ON l.k = r.k",
		"CREATE CONTINUOUS QUERY lit AS SELECT * FROM [SELECT * FROM tagged] AS x WHERE x.tag = ' JOIN '",
	} {
		if _, err := e.Exec(ctx, ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	for query, want := range map[string]string{"j": "strategy=separate shape=join", "lit": "strategy=separate shape=flat"} {
		_, rel := explainOps(t, e, query)
		if got := column(t, rel, "detail")[0]; got != want {
			t.Errorf("EXPLAIN ANALYZE %s: query detail = %q, want %q", query, got, want)
		}
	}
}

// TestStatsShowRace hammers the consistent-cut read paths — Stats(),
// SHOW QUERIES/BASKETS/SCHEDULER, EXPLAIN ANALYZE, /metrics rendering —
// while concurrent ingesters and the worker pool mutate everything they
// read. Run under -race this is the satellite's epoch-mixing guard.
func TestStatsShowRace(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := Open(ctx, Config{Workers: 2, DataDir: dir, CheckpointInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx, "CREATE BASKET s (k INT, v INT) WITH (partitions = 2, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT s.k AS k, SUM(s.v) AS total FROM [SELECT * FROM s] AS s GROUP BY s.k"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows := [][]vector.Value{{vector.NewInt(i % 7), vector.NewInt(i)}}
				_ = eng.Ingest(ctx, "s", rows)
				i++
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stmts := []string{"SHOW QUERIES", "SHOW BASKETS", "SHOW SCHEDULER", "SHOW STREAMS", "EXPLAIN ANALYZE q", "SHOW TRACE q"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				if st.WALLastSeq < st.CheckpointSeq {
					t.Errorf("inconsistent cut: WALLastSeq %d < CheckpointSeq %d", st.WALLastSeq, st.CheckpointSeq)
					return
				}
				if _, err := eng.Exec(ctx, stmts[i%len(stmts)]); err != nil {
					t.Errorf("%s: %v", stmts[i%len(stmts)], err)
					return
				}
				var sb strings.Builder
				req, _ := http.NewRequest("GET", "/metrics", nil)
				eng.MetricsHandler().ServeHTTP(&nopResponseWriter{&sb}, req)
			}
		}()
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := eng.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// nopResponseWriter adapts a strings.Builder for handler-level scrapes.
type nopResponseWriter struct{ sb *strings.Builder }

func (w *nopResponseWriter) Header() http.Header { return http.Header{} }
func (w *nopResponseWriter) WriteHeader(int)     {}
func (w *nopResponseWriter) Write(p []byte) (int, error) {
	return w.sb.Write(p)
}

// The consistent cut must also hold when read through a query handle.
func TestQueryCheckpointConsistent(t *testing.T) {
	ctx := context.Background()
	eng, err := Open(ctx, Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop(ctx)
	if _, err := eng.Exec(ctx, "CREATE BASKET s (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(ctx,
		"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x"); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(ctx, "s", intRows(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	info := q.Checkpoint()
	if !info.Durable {
		t.Fatal("query not durable on a durable engine")
	}
	if info.LastCheckpoint.IsZero() {
		t.Fatal("LastCheckpoint zero after explicit checkpoint")
	}
	if info.ReplayLag != 0 {
		t.Fatalf("ReplayLag = %d immediately after checkpoint, want 0", info.ReplayLag)
	}
	_ = fmt.Sprint(info)
}
