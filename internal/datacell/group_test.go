package datacell

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vector"
)

func TestQueryNetworkChaining(t *testing.T) {
	e, _ := newEngine(t)
	// q1 filters the stream; q2 consumes q1's output basket.
	_, err := register(e, "stage1", "polling = true",
		"SELECT S.a AS a, S.b AS b FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := register(e, "stage2", "",
		"SELECT * FROM [SELECT * FROM stage1_out] AS x WHERE x.b < 100")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{
		{5, 50},   // dropped by stage1
		{20, 50},  // survives both
		{30, 500}, // dropped by stage2
	})
	e.Drain()
	rels := collect(q2)
	if countRows(rels) != 1 {
		t.Fatalf("chained rows = %d, want 1", countRows(rels))
	}
	if rels[0].Cols[0].Get(0).I != 20 {
		t.Errorf("row = %v", rels[0].Row(0))
	}
	// Second batch flows through the chain incrementally.
	ingestPairs(t, e, "R", [][2]int64{{40, 60}})
	e.Drain()
	if got := countRows(collect(q2)); got != 1 {
		t.Errorf("second batch rows = %d", got)
	}
}

func TestChainedUnknownUpstreamFails(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := register(e, "bad", "",
		"SELECT * FROM [SELECT * FROM nosuch_out] AS x"); err == nil {
		t.Error("unknown upstream should fail")
	}
}

// TestFilterGroupSharedFactory: the §3.2 shared factory is two kinds of
// DDL statement — a shared, polling common query, and shared members
// reading its output basket — so the common predicate runs once per tuple
// and each member examines only what it admitted.
func TestFilterGroupSharedFactory(t *testing.T) {
	e, _ := newEngine(t)
	for _, ddl := range []string{
		"CREATE CONTINUOUS QUERY grp_common WITH (strategy = shared, polling = true) AS SELECT * FROM [SELECT * FROM R] AS x WHERE x.a >= 10 AND x.a < 40",
		"CREATE CONTINUOUS QUERY m0 WITH (strategy = shared) AS SELECT * FROM [SELECT * FROM grp_common_out] AS x WHERE x.a < 20",
		"CREATE CONTINUOUS QUERY m1 WITH (strategy = shared) AS SELECT * FROM [SELECT * FROM grp_common_out] AS x WHERE x.a >= 20 AND x.a < 30",
		"CREATE CONTINUOUS QUERY m2 WITH (strategy = shared) AS SELECT * FROM [SELECT * FROM grp_common_out] AS x WHERE x.a >= 30",
	} {
		if _, err := e.Exec(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	var rows [][2]int64
	for i := int64(0); i < 50; i++ {
		rows = append(rows, [2]int64{i, i})
	}
	ingestPairs(t, e, "R", rows)
	e.Drain()

	// Common admits a in [10,40): 30 tuples, evaluated once.
	common, err := e.Query("grp_common")
	if err != nil {
		t.Fatal(err)
	}
	if got := common.Stats().TuplesIn; got != 50 {
		t.Errorf("common examined %d, want 50", got)
	}
	if got := common.Stats().TuplesOut; got != 30 {
		t.Errorf("common admitted %d, want 30", got)
	}
	for i := 0; i < 3; i++ {
		m, err := e.Query(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := countRows(collect(m)); got != 10 {
			t.Errorf("member %d rows = %d, want 10", i, got)
		}
		// Members only examined the 30 admitted tuples, not all 50.
		if got := m.Stats().TuplesIn; got != 30 {
			t.Errorf("member %d examined %d, want 30", i, got)
		}
	}
}

func TestChainedWindowedQuery(t *testing.T) {
	e, _ := newEngine(t)
	_, err := register(e, "filt", "polling = true",
		"SELECT S.a AS a FROM [SELECT * FROM R] AS S WHERE S.a >= 0")
	if err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "agg", "",
		"SELECT SUM(x.a) AS total FROM [SELECT * FROM filt_out] AS x WINDOW ROWS 3 SLIDE 3")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 0}, {2, 0}, {3, 0}, {4, 0}})
	e.Drain()
	rels := collect(q)
	if len(rels) != 1 || rels[0].Cols[0].Get(0).I != 6 {
		t.Fatalf("windowed chain: %v", rels)
	}
}

// TestGroupKeyRuleAgrees: every grouping path applies one key rule —
// NULLs form one group, -0 equals +0, every NaN equals every NaN — so a
// one-time GROUP BY, SELECT DISTINCT and COUNT(DISTINCT) over a table,
// incremental and re-evaluated windows, and a partitioned window whose
// groups span shards (re-aggregated in the merge) find the same groups.
func TestGroupKeyRuleAgrees(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	const windowed = "SELECT S.k, COUNT(*) AS n FROM [SELECT * FROM d] AS S GROUP BY S.k WINDOW ROWS 7 SLIDE 7"
	for _, stmt := range []string{
		"CREATE TABLE t (k DOUBLE, v INT)",
		"CREATE BASKET d (k DOUBLE, v INT)",
		"CREATE BASKET p (k DOUBLE, v INT, et INT) WITH (partitions = 2, partition_by = v)",
		"CREATE CONTINUOUS QUERY inc WITH (window_mode = incremental, polling = true) AS " + windowed,
		"CREATE CONTINUOUS QUERY re WITH (window_mode = reeval, polling = true) AS " + windowed,
		`CREATE CONTINUOUS QUERY part WITH (polling = true, timestamp = et) AS
			SELECT S.k, COUNT(*) AS n FROM [SELECT * FROM p] AS S GROUP BY S.k WINDOW RANGE 100 SLIDE 100`,
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	keys := []vector.Value{
		vector.NewFloat(0), vector.NewFloat(math.Copysign(0, -1)),
		vector.NewFloat(math.NaN()), vector.NewFloat(math.Float64frombits(0xfff8_0000_0000_0001)),
		vector.NullValue(vector.Float64), vector.NullValue(vector.Float64), vector.NewFloat(1.5),
	}
	// v routes the two NaNs, and +0 and -0, to different shards of p.
	vs := []int64{0, 1, 2, 1, 4, 5, 6}
	var rows, timed [][]vector.Value
	for i, k := range keys {
		rows = append(rows, []vector.Value{k, vector.NewInt(vs[i])})
		timed = append(timed, []vector.Value{k, vector.NewInt(vs[i]), vector.NewInt(int64(i))})
	}
	for v := int64(0); v < 8; v++ { // closes the window on every shard
		timed = append(timed, []vector.Value{vector.NewFloat(9), vector.NewInt(v), vector.NewInt(1000)})
	}
	e.mu.Lock()
	tbl := e.tables["t"]
	e.mu.Unlock()
	for _, row := range rows {
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(ctx, "d", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "p", timed); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if q, err := e.Query("part"); err != nil || q.Shards() != 2 {
		t.Fatalf("part runs on %v lanes (%v), want 2", q.Shards(), err)
	}

	want := "[0|2 1.5|1 NULL|2 NaN|2]"
	for _, query := range []string{
		"SELECT t.k, COUNT(*) AS n FROM t GROUP BY t.k",
		"SELECT k, n FROM inc_out",
		"SELECT k, n FROM re_out",
		"SELECT k, n FROM part_out",
	} {
		if got := fmt.Sprint(queryRows(t, e, query)); got != want {
			t.Errorf("%s: %s, want %s", query, got, want)
		}
	}
	if got := fmt.Sprint(queryRows(t, e, "SELECT DISTINCT t.k FROM t")); got != "[0 1.5 NULL NaN]" {
		t.Errorf("SELECT DISTINCT: %s", got)
	}
	if got := fmt.Sprint(queryRows(t, e, "SELECT COUNT(DISTINCT t.k) AS n FROM t")); got != "[3]" {
		t.Errorf("COUNT(DISTINCT): %s, want [3]: 0, NaN and 1.5", got)
	}
}
