package window

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// compileOver compiles q against a basket s of the given schema.
func compileOver(t testing.TB, schema *catalog.Schema, q string) (plan.Node, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	if err := cat.Register("s", catalog.KindBasket, storage.NewTable("s", schema)); err != nil {
		t.Fatal(err)
	}
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return p, cat
}

// propSchema holds one key column per groupable type (with NULLs, -0 and
// NaN among the DOUBLE keys) and the aggregate arguments.
func propSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "ki", Type: vector.Int64},
		catalog.Column{Name: "kd", Type: vector.Float64},
		catalog.Column{Name: "ks", Type: vector.String},
		catalog.Column{Name: "kb", Type: vector.Bool},
		catalog.Column{Name: "vi", Type: vector.Int64},
		catalog.Column{Name: "vd", Type: vector.Float64},
		catalog.Column{Name: "vs", Type: vector.String},
	).WithTimestamp()
}

// propRow draws one tuple. DOUBLE arguments are small integers or halves
// (and -0), so every summation order gives the same sum.
func propRow(rng *rand.Rand, ts int64) []vector.Value {
	pick := func(vals ...vector.Value) vector.Value { return vals[rng.Intn(len(vals))] }
	nullI, nullF := vector.NullValue(vector.Int64), vector.NullValue(vector.Float64)
	nullS, nullB := vector.NullValue(vector.String), vector.NullValue(vector.Bool)
	vd := vector.NewFloat(float64(rng.Intn(21)-10) / 2)
	if rng.Intn(8) == 0 {
		vd = nullF
	}
	vi := vector.NewInt(int64(rng.Intn(21) - 10))
	if rng.Intn(8) == 0 {
		vi = nullI
	}
	return []vector.Value{
		pick(nullI, vector.NewInt(-1), vector.NewInt(0), vector.NewInt(1), vector.NewInt(2)),
		pick(nullF, vector.NewFloat(0), vector.NewFloat(math.Copysign(0, -1)), vector.NewFloat(math.NaN()),
			vector.NewFloat(math.Float64frombits(0x7ff8_0000_0000_00ff)), vector.NewFloat(1.5), vector.NewFloat(-2)),
		pick(nullS, vector.NewString(""), vector.NewString("a"), vector.NewString("b")),
		pick(nullB, vector.NewBool(true), vector.NewBool(false)),
		vi,
		pick(vd, vd, vd, vector.NewFloat(math.Copysign(0, -1))),
		pick(nullS, vector.NewString("x"), vector.NewString("y"), vector.NewString("z")),
		vector.NewTimestamp(ts),
	}
}

// propQuery draws a grouped or scalar aggregate over every aggregate
// kind the incremental evaluator accepts, with optional WHERE and HAVING.
func propQuery(rng *rand.Rand) string {
	keys := []string{"ki", "kd", "ks", "kb"}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:rng.Intn(3)]
	aggs := []string{
		"COUNT(*)", "COUNT(S.vd)", "COUNT(S.ks)", "COUNT(DISTINCT S.kd)", "COUNT(DISTINCT S.vs)",
		"COUNT(DISTINCT S.vi)", "SUM(S.vi)", "SUM(S.vd)", "AVG(S.vi)", "AVG(S.vd)",
		"MIN(S.vi)", "MAX(S.vd)", "MIN(S.vs)", "MAX(S.vs)", "MIN(S.kb)", "MAX(S.vi)",
	}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	var sel []string
	for _, k := range keys {
		sel = append(sel, "S."+k)
	}
	for i, a := range aggs[:1+rng.Intn(3)] {
		sel = append(sel, fmt.Sprintf("%s AS a%d", a, i))
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM [SELECT * FROM s" +
		[]string{"", "", " WHERE vi >= 0", " WHERE vd < 2"}[rng.Intn(4)] + "] AS S"
	if len(keys) > 0 {
		q += " GROUP BY S." + strings.Join(keys, ", S.")
		if rng.Intn(3) == 0 {
			q += " HAVING COUNT(*) > 1"
		}
	}
	return q
}

// TestIncrementalMatchesReEvaluateProperty: on random grouped and scalar
// aggregates over every key type, the incremental evaluator (pane
// partials merged by the kernel's group-by) emits the same windows, each
// with the same rows as a multiset, as re-evaluating the plan over the
// window — for count and time windows, tumbling and sliding over four
// panes.
func TestIncrementalMatchesReEvaluateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schema := propSchema()
	tsIdx := schema.Index(catalog.TimestampColumn)
	for trial := 0; trial < 240; trial++ {
		q := propQuery(rng)
		kind := []sql.WindowKind{sql.WindowRows, sql.WindowRange}[trial%2]
		slide := int64(3 + rng.Intn(3))
		size := slide * []int64{1, 4}[trial/2%2]
		spec := Spec{Kind: kind, Size: size, Slide: slide, TSIndex: tsIdx}
		p, cat := compileOver(t, schema, q)
		re, err := NewRunner(spec, ReEvaluate, &PlanEvaluator{Plan: p, Catalog: cat, Source: "s"}, nil, schema)
		if err != nil {
			t.Fatal(err)
		}
		paneEval, ok := RecognizeIncremental(p)
		if !ok {
			t.Fatalf("%s: not incrementally evaluable:\n%s", q, plan.Explain(p))
		}
		inc, err := NewRunner(spec, Incremental, nil, paneEval, schema)
		if err != nil {
			t.Fatal(err)
		}
		ts, windows := int64(0), 0
		for b := 0; b < 12; b++ {
			in := storage.NewRelation(schema)
			for i := 1 + rng.Intn(12); i > 0; i-- {
				ts += int64(rng.Intn(3))
				in.AppendRow(propRow(rng, ts))
			}
			a, err := re.Append(in)
			if err != nil {
				t.Fatalf("%s: re-evaluate: %v", q, err)
			}
			c, err := inc.Append(in)
			if err != nil {
				t.Fatalf("%s: incremental: %v", q, err)
			}
			if len(a) != len(c) {
				t.Fatalf("%s (kind %d) %d/%d: re-evaluate emits %d windows, incremental %d", q, kind, size, slide, len(a), len(c))
			}
			for w := range a {
				if a[w].Start != c[w].Start || a[w].End != c[w].End || !sameRows(a[w].Rel, c[w].Rel) {
					t.Fatalf("%s (kind %d) %d/%d, window [%d, %d):\nre-evaluate %s\nincremental [%d, %d) %s",
						q, kind, size, slide, a[w].Start, a[w].End, a[w].Rel, c[w].Start, c[w].End, c[w].Rel)
				}
			}
			windows += len(a)
		}
		if windows == 0 {
			t.Fatalf("%s: no window closed", q)
		}
	}
}

// TestPaneSummaryCostIsFlatInRows: summarizing a pane costs a fixed
// number of allocations whatever its row count, and merging one pane's
// partials costs a fixed number per window.
func TestPaneSummaryCostIsFlatInRows(t *testing.T) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: vector.Int64},
		catalog.Column{Name: "v", Type: vector.Int64},
	).WithTimestamp()
	p, _ := compileOver(t, schema,
		"SELECT S.k, COUNT(*) AS n, SUM(S.v) AS sv, MAX(S.v) AS mx FROM [SELECT * FROM s] AS S GROUP BY S.k")
	ev, ok := RecognizeIncremental(p)
	if !ok {
		t.Fatal("plan not incrementally evaluable")
	}
	pane := func(rows int) *storage.Relation {
		k, v, ts := make([]int64, rows), make([]int64, rows), make([]int64, rows)
		for i := range k {
			k[i], v[i], ts[i] = int64(i*7%256), int64(i%100), int64(i)
		}
		return &storage.Relation{Schema: schema, Cols: []*vector.Vector{
			vector.FromInts(k), vector.FromInts(v), vector.FromTimestamps(ts)}}
	}
	for _, rows := range []int{1024, 16384} {
		in := pane(rows)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ev.Summarize(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("Summarize of %d rows: %.0f allocations, want <= 64", rows, allocs)
		}
	}
	sum, err := ev.Summarize(pane(1024))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, err := ev.Merge([]Summary{sum})
		if err != nil || out.NumRows() != 256 {
			t.Fatalf("Merge: %v, %d rows", err, out.NumRows())
		}
	})
	if allocs > 32 {
		t.Errorf("Merge of one 256-group pane: %.0f allocations, want <= 32", allocs)
	}
}

// TestAvgOverTimestampsDoesNotWrap: AVG adds its inputs as DOUBLE in
// both window modes, so the average of present-day timestamps
// (nanoseconds since the epoch, about 1.76e18: six of them overflow
// int64) is right, also when Merge folds several panes.
func TestAvgOverTimestampsDoesNotWrap(t *testing.T) {
	schema := catalog.NewSchema(catalog.Column{Name: "k", Type: vector.Int64}).WithTimestamp()
	p, cat := compileOver(t, schema,
		"SELECT S.k, AVG(S.ts) AS a, MIN(S.ts) AS lo, MAX(S.ts) AS hi FROM [SELECT * FROM s] AS S GROUP BY S.k")
	paneEval, ok := RecognizeIncremental(p)
	if !ok {
		t.Fatal("plan not incrementally evaluable")
	}
	const base = int64(1_760_000_000_000_000_000)
	in := storage.NewRelation(schema)
	for i := int64(0); i < 64; i++ {
		in.AppendRow([]vector.Value{vector.NewInt(i % 2), vector.NewTimestamp(base + 1000*i)})
	}
	for _, spec := range []Spec{{Kind: sql.WindowRows, Size: 16, Slide: 16}, {Kind: sql.WindowRows, Size: 32, Slide: 8}} {
		re, err := NewRunner(spec, ReEvaluate, &PlanEvaluator{Plan: p, Catalog: cat, Source: "s"}, nil, schema)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewRunner(spec, Incremental, nil, paneEval, schema)
		if err != nil {
			t.Fatal(err)
		}
		for mode, r := range map[string]*Runner{"reeval": re, "incremental": inc} {
			wins, err := r.Append(in)
			if err != nil || len(wins) == 0 {
				t.Fatalf("%s %d/%d: %d windows, %v", mode, spec.Size, spec.Slide, len(wins), err)
			}
			for _, w := range wins {
				for i := 0; i < w.Rel.NumRows(); i++ {
					// Each group's timestamps are evenly spaced: the mean
					// is the midpoint of the extremes.
					row := w.Rel.Row(i)
					got, want := row[1].F, float64(row[2].I)/2+float64(row[3].I)/2
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("%s %d/%d, window [%d, %d) key %d: AVG(ts) = %g, want %g",
							mode, spec.Size, spec.Slide, w.Start, w.End, row[0].I, got, want)
					}
				}
			}
		}
	}
}
