package datacell

import (
	"context"
	"fmt"
	"testing"
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
