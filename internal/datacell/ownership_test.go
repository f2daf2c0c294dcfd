package datacell

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vector"
)

// TestIngestColumnsLeavesTheCallersVectorsAlone holds IngestColumns to its
// ownership contract: once the call has returned the engine reads the
// caller's vectors no more, whichever target took the batch — the primary
// basket (shared and routed readers), a separate-strategy replica, the
// shard inbox (a batch split over shards and one handed through whole),
// the WAL record and the checkpoint image. The engine is driven by Drain,
// so nothing has consumed the batch when the vectors are overwritten the
// way server.ServeIngest reuses its builders.
func TestIngestColumnsLeavesTheCallersVectorsAlone(t *testing.T) {
	ctx := context.Background()
	targets := []struct {
		name, basketOpts, queryOpts string
		keys                        []int64
	}{
		{"replica", "", "strategy = separate", []int64{1, 2, 3, 4}},
		{"primary, shared reader", "", "strategy = shared", []int64{1, 2, 3, 4}},
		{"primary, routed scan", "", "strategy = routed", []int64{1, 2, 3, 4}},
		{"shard inbox, split", " WITH (partitions = 4, partition_by = k)", "", []int64{1, 2, 3, 4}},
		{"shard inbox, one shard", " WITH (partitions = 4, partition_by = k)", "", []int64{7, 7, 7, 7}},
	}
	// What the engine is given, then what the caller's next batch looks
	// like: other values, a NULL where there was none, other strings.
	ingestThenScribble := func(t *testing.T, e *Engine, keys []int64) {
		t.Helper()
		k, v, s := vector.NewWithCap(vector.Int64, 4), vector.NewWithCap(vector.Int64, 4), vector.NewWithCap(vector.String, 4)
		for i, key := range keys {
			k.AppendInt(key)
			if i == 2 {
				v.AppendNull()
			} else {
				v.AppendInt(int64(10 * (i + 1)))
			}
			s.AppendString(string(rune('a' + i)))
		}
		cols := []*vector.Vector{k, v, s}
		if err := e.IngestColumns(ctx, "s", cols); err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			c.Truncate(0)
		}
		for i := range keys {
			k.AppendInt(int64(-100 - i))
			if i == 0 {
				v.AppendNull()
			} else {
				v.AppendInt(-1)
			}
			s.AppendString("scribbled")
		}
	}
	want := func(keys []int64) []string {
		rows := []string{}
		for i, key := range keys {
			v := vector.NewInt(int64(10 * (i + 1)))
			if i == 2 {
				v = vector.NullValue(vector.Int64)
			}
			rows = append(rows, vector.NewInt(key).String()+","+v.String()+","+string(rune('a'+i)))
		}
		sort.Strings(rows) // as sortedRows orders them
		return rows
	}
	results := func(t *testing.T, e *Engine) []string {
		t.Helper()
		e.Drain()
		q, err := e.Query("q")
		if err != nil {
			t.Fatal(err)
		}
		return sortedRows(t, collect(q)...)
	}
	setUp := func(t *testing.T, e *Engine, basketOpts, queryOpts string) {
		t.Helper()
		create := "CREATE CONTINUOUS QUERY q"
		if queryOpts != "" {
			create += " WITH (" + queryOpts + ")"
		}
		for _, stmt := range []string{
			"CREATE BASKET s (k INT, v INT, name VARCHAR)" + basketOpts,
			create + " AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.k > 0",
		} {
			if _, err := e.Exec(ctx, stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}
	for _, tc := range targets {
		t.Run(tc.name, func(t *testing.T) {
			e := newCore(Config{})
			defer stopQuiet(e)
			setUp(t, e, tc.basketOpts, tc.queryOpts)
			ingestThenScribble(t, e, tc.keys)
			if got := results(t, e); !reflect.DeepEqual(got, want(tc.keys)) {
				t.Errorf("results = %v, want %v", got, want(tc.keys))
			}
		})
		// A crash right after the call: the batch comes back from the WAL
		// record alone, or from a checkpoint image taken of the baskets
		// after the caller moved on.
		for _, checkpoint := range []bool{false, true} {
			name := tc.name + ", recovered from the WAL"
			if checkpoint {
				name = tc.name + ", recovered from a checkpoint image"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				e := openDurable(t, dir)
				defer stopQuiet(e)
				setUp(t, e, tc.basketOpts, tc.queryOpts)
				ingestThenScribble(t, e, tc.keys)
				if checkpoint {
					if err := e.Checkpoint(ctx); err != nil {
						t.Fatal(err)
					}
				}
				crash := t.TempDir()
				copyTree(t, dir, crash)
				e2 := openDurable(t, crash)
				defer stopQuiet(e2)
				if got := results(t, e2); !reflect.DeepEqual(got, want(tc.keys)) {
					t.Errorf("results after recovery = %v, want %v", got, want(tc.keys))
				}
			})
		}
	}
}
