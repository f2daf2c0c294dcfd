package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/vector"
)

func testSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "k", Type: vector.Int64},
		catalog.Column{Name: "v", Type: vector.Int64},
		catalog.Column{Name: "s", Type: vector.String},
	)
}

func batchOf(rows [][3]interface{}) []*vector.Vector {
	k := vector.New(vector.Int64)
	v := vector.New(vector.Int64)
	s := vector.New(vector.String)
	for _, r := range rows {
		k.AppendInt(int64(r[0].(int)))
		v.AppendInt(int64(r[1].(int)))
		s.AppendString(r[2].(string))
	}
	return []*vector.Vector{k, v, s}
}

// TestSplitHashProperty is the routing property test: every ingested
// tuple lands in exactly one shard, rows with equal keys land in the
// same shard, the union of the shards equals the flat input (as a
// sequence-per-shard preserving arrival order), and routing is purely a
// function of the key.
func TestSplitHashProperty(t *testing.T) {
	r, err := NewRouter(testSchema(), Spec{Shards: 4, By: "k"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keyShard := map[int64]int{}
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(64)
		var rows [][3]interface{}
		for i := 0; i < n; i++ {
			rows = append(rows, [3]interface{}{rng.Intn(10), i, fmt.Sprint(i)})
		}
		cols := batchOf(rows)
		parts, err := r.Split(cols)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 4 {
			t.Fatalf("parts = %d", len(parts))
		}
		// Flat model: walk shards, record every (k, v) with its shard; v is
		// unique per row in this batch, so it identifies the row.
		total := 0
		seen := map[int64]int{} // v → shard
		order := map[int][]int64{}
		for sh, part := range parts {
			if part == nil {
				continue
			}
			pn := part[0].Len()
			total += pn
			for i := 0; i < pn; i++ {
				k := part[0].Get(i).I
				v := part[1].Get(i).I
				if prev, dup := seen[v]; dup {
					t.Fatalf("row v=%d in shards %d and %d", v, prev, sh)
				}
				seen[v] = sh
				order[sh] = append(order[sh], v)
				if want, ok := keyShard[k]; ok && want != sh {
					t.Fatalf("key %d routed to shard %d, earlier to %d", k, sh, want)
				}
				keyShard[k] = sh
			}
		}
		if total != n {
			t.Fatalf("union of shards has %d rows, ingested %d", total, n)
		}
		// Arrival order within each shard: v values must be increasing.
		for sh, vs := range order {
			for i := 1; i < len(vs); i++ {
				if vs[i] < vs[i-1] {
					t.Fatalf("shard %d out of order: %v", sh, vs)
				}
			}
		}
	}
}

// TestSplitSingleShardZeroCopy checks the pass-through path: a batch
// whose rows all hash to one shard is handed through as the same column
// slice, not copied.
func TestSplitSingleShardZeroCopy(t *testing.T) {
	r, err := NewRouter(testSchema(), Spec{Shards: 4, By: "k"})
	if err != nil {
		t.Fatal(err)
	}
	cols := batchOf([][3]interface{}{{5, 0, "a"}, {5, 1, "b"}, {5, 2, "c"}})
	parts, err := r.Split(cols)
	if err != nil {
		t.Fatal(err)
	}
	found := -1
	for sh, part := range parts {
		if part != nil {
			if found >= 0 {
				t.Fatalf("single-key batch split across shards %d and %d", found, sh)
			}
			found = sh
			if part[0] != cols[0] {
				t.Error("single-shard batch was copied instead of handed through")
			}
		}
	}
	if found < 0 {
		t.Fatal("batch routed nowhere")
	}
}

// TestSplitRoundRobin checks keyless routing: a batch spreads evenly and
// the cursor carries across batches.
func TestSplitRoundRobin(t *testing.T) {
	r, err := NewRouter(testSchema(), Spec{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for round := 0; round < 10; round++ {
		var rows [][3]interface{}
		for i := 0; i < 10; i++ { // 10 % 4 != 0: carries remainder across batches
			rows = append(rows, [3]interface{}{i, i, "x"})
		}
		parts, err := r.Split(batchOf(rows))
		if err != nil {
			t.Fatal(err)
		}
		for sh, part := range parts {
			if part != nil {
				counts[sh] += part[0].Len()
			}
		}
	}
	for sh, c := range counts {
		if c != 25 {
			t.Errorf("shard %d got %d of 100 round-robin rows", sh, counts)
			_ = sh
		}
	}
}

func TestFromOptions(t *testing.T) {
	spec, rest, err := FromOptions([]sql.OptionSpec{
		{Key: "partitions", Val: "4"},
		{Key: "partition_by", Val: "k"},
		{Key: "other", Val: "1"},
	})
	if err != nil || spec.Shards != 4 || spec.By != "k" || len(rest) != 1 || rest[0].Key != "other" {
		t.Fatalf("spec=%+v rest=%v err=%v", spec, rest, err)
	}
	if _, _, err := FromOptions([]sql.OptionSpec{{Key: "partitions", Val: "zero"}}); err == nil {
		t.Error("non-integer partitions accepted")
	}
	if _, _, err := FromOptions([]sql.OptionSpec{{Key: "partitions", Val: "0"}}); err == nil {
		t.Error("partitions = 0 accepted")
	}
	if _, _, err := FromOptions([]sql.OptionSpec{{Key: "partition_by", Val: "k"}}); err == nil {
		t.Error("partition_by without partitions accepted")
	}
}

func TestRouterRejectsUnknownColumn(t *testing.T) {
	if _, err := NewRouter(testSchema(), Spec{Shards: 4, By: "nope"}); err == nil {
		t.Error("unknown partition_by column accepted")
	}
}

// buildPlan compiles a continuous query against a catalog holding the
// partitioned stream s (plus a static table for join shapes).
func buildPlan(t *testing.T, query string) plan.Node {
	t.Helper()
	cat := catalog.New()
	b := basket.New("s", testSchema(), nil)
	if err := cat.RegisterPartitioned("s", catalog.KindBasket, b, 4, "k"); err != nil {
		t.Fatal(err)
	}
	sel, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeModes(t *testing.T) {
	cases := []struct {
		name  string
		query string
		ok    bool
		mode  MergeMode
	}{
		{"filter", "SELECT * FROM [SELECT * FROM s] AS x WHERE x.v > 3", true, MergeConcat},
		{"project", "SELECT x.v + 1 AS w FROM [SELECT * FROM s] AS x", true, MergeConcat},
		{"aligned group", "SELECT x.k, COUNT(*) AS c FROM [SELECT * FROM s] AS x GROUP BY x.k", true, MergeConcat},
		{"aligned multi-key", "SELECT x.v, x.k, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.v, x.k", true, MergeConcat},
		{"global group", "SELECT x.v, COUNT(*) AS c, SUM(x.k) AS sk FROM [SELECT * FROM s] AS x GROUP BY x.v", true, MergeReagg},
		{"global scalar", "SELECT COUNT(*) AS c, MAX(x.v) AS m FROM [SELECT * FROM s] AS x", true, MergeReagg},
		{"global having", "SELECT x.v, COUNT(*) AS c FROM [SELECT * FROM s] AS x GROUP BY x.v HAVING COUNT(*) > 1", true, MergeReagg},
		{"distinct", "SELECT DISTINCT x.v FROM [SELECT * FROM s] AS x", true, MergeDistinct},
		{"avg", "SELECT AVG(x.v) AS a FROM [SELECT * FROM s] AS x", false, 0},
		{"count distinct", "SELECT COUNT(DISTINCT x.v) AS c FROM [SELECT * FROM s] AS x", false, 0},
		{"order by", "SELECT * FROM [SELECT * FROM s] AS x ORDER BY x.v", false, 0},
		{"limit", "SELECT * FROM [SELECT * FROM s] AS x LIMIT 5", false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildPlan(t, tc.query)
			an := Analyze(p, "s", "k", "q#partials")
			if an.OK != tc.ok {
				t.Fatalf("OK = %v (%s), want %v", an.OK, an.Reason, tc.ok)
			}
			if an.OK && an.Mode != tc.mode {
				t.Errorf("mode = %v, want %v", an.Mode, tc.mode)
			}
			if an.OK && an.Mode == MergeReagg && an.MergePlan == nil {
				t.Error("reagg without a merge plan")
			}
		})
	}
}

// TestEqualKeysShareAShard: values equal as join keys route to one shard —
// a TIMESTAMP and a BIGINT of the same instant, and DOUBLE -0 and +0 —
// so co-partitioned joins and partition-aligned groups see them together.
func TestEqualKeysShareAShard(t *testing.T) {
	r, err := NewRouter(testSchema(), Spec{Shards: 64, By: "k"})
	if err != nil {
		t.Fatal(err)
	}
	negZero := vector.NewFloat(0)
	negZero.F = -negZero.F
	for _, pair := range [][2]vector.Value{
		{vector.NewInt(12345), vector.NewTimestamp(12345)},
		{vector.NewFloat(0), negZero},
	} {
		if a, b := r.shardOfValue(pair[0]), r.shardOfValue(pair[1]); a != b {
			t.Errorf("%v and %v route to shards %d and %d", pair[0], pair[1], a, b)
		}
	}
}
