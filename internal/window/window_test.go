package window

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// streamSchema mimics a basket: v BIGINT, g VARCHAR, ts TIMESTAMP.
func streamSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "v", Type: vector.Int64},
		catalog.Column{Name: "g", Type: vector.String},
	).WithTimestamp()
}

// buildQuery compiles a continuous aggregate over the stream basket and
// returns the plan plus catalog.
func buildQuery(t *testing.T, q string) (plan.Node, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	tbl := storage.NewTable("s", streamSchema())
	if err := cat.Register("s", catalog.KindBasket, tbl); err != nil {
		t.Fatal(err)
	}
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p, cat
}

func batch(vals []int64, groups []string, ts []int64) *storage.Relation {
	r := storage.NewRelation(streamSchema())
	for i := range vals {
		r.AppendRow([]vector.Value{
			vector.NewInt(vals[i]), vector.NewString(groups[i]), vector.NewTimestamp(ts[i]),
		})
	}
	return r
}

func seq(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func strs(n int, f func(i int) string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

const sumQuery = "SELECT SUM(S.v) AS total FROM [SELECT * FROM s] AS S"

func newRunnerPair(t *testing.T, q string, spec Spec) (*Runner, *Runner) {
	t.Helper()
	p, cat := buildQuery(t, q)
	reEval, err := NewRunner(spec, ReEvaluate,
		&PlanEvaluator{Plan: p, Catalog: cat, Source: "s"}, nil, streamSchema())
	if err != nil {
		t.Fatal(err)
	}
	paneEval, ok := RecognizeIncremental(p)
	if !ok {
		t.Fatalf("plan not recognized for incremental mode:\n%s", plan.Explain(p))
	}
	incr, err := NewRunner(spec, Incremental, nil, paneEval, streamSchema())
	if err != nil {
		t.Fatal(err)
	}
	return reEval, incr
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: sql.WindowRows, Size: 0, Slide: 1},
		{Kind: sql.WindowRows, Size: 4, Slide: 0},
		{Kind: sql.WindowRows, Size: 4, Slide: 5},
		{Kind: sql.WindowNone, Size: 4, Slide: 4},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", s)
		}
	}
	good := Spec{Kind: sql.WindowRange, Size: 10, Slide: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
}

func TestCountTumblingSum(t *testing.T) {
	spec := Spec{Kind: sql.WindowRows, Size: 4, Slide: 4, TSIndex: 2}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		in := batch(seq(10, func(i int) int64 { return int64(i) }),
			strs(10, func(int) string { return "x" }),
			seq(10, func(i int) int64 { return int64(i) }))
		results, err := r.Append(in)
		if err != nil {
			t.Fatalf("%s: %v", r.Mode(), err)
		}
		// Windows [0,4): 0+1+2+3=6 and [4,8): 4+5+6+7=22; 2 tuples pending.
		if len(results) != 2 {
			t.Fatalf("%s: %d windows", r.Mode(), len(results))
		}
		if got := results[0].Rel.Cols[0].Get(0).I; got != 6 {
			t.Errorf("%s: w0 sum = %d", r.Mode(), got)
		}
		if got := results[1].Rel.Cols[0].Get(0).I; got != 22 {
			t.Errorf("%s: w1 sum = %d", r.Mode(), got)
		}
		if r.buf.NumRows() != 2 {
			t.Errorf("%s: buffered = %d", r.Mode(), r.buf.NumRows())
		}
	}
}

func TestCountSlidingAgreement(t *testing.T) {
	spec := Spec{Kind: sql.WindowRows, Size: 8, Slide: 2, TSIndex: 2}
	re, inc := newRunnerPair(t,
		"SELECT SUM(S.v) AS total, COUNT(*) AS n, MIN(S.v) AS lo, MAX(S.v) AS hi, AVG(S.v) AS mean FROM [SELECT * FROM s] AS S",
		spec)
	n := 50
	in := batch(seq(n, func(i int) int64 { return int64(i*i%37 - 10) }),
		strs(n, func(int) string { return "x" }),
		seq(n, func(i int) int64 { return int64(i) }))
	a, err := re.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("window counts: re=%d inc=%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Rel.String() != b[i].Rel.String() {
			t.Errorf("window %d differs:\nre-eval:\n%s\nincremental:\n%s",
				i, a[i].Rel, b[i].Rel)
		}
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			t.Errorf("window %d bounds differ: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGroupedSlidingAgreement(t *testing.T) {
	spec := Spec{Kind: sql.WindowRows, Size: 6, Slide: 3, TSIndex: 2}
	re, inc := newRunnerPair(t,
		"SELECT S.g, SUM(S.v) AS total FROM [SELECT * FROM s] AS S GROUP BY S.g",
		spec)
	n := 30
	groups := strs(n, func(i int) string { return string(rune('a' + i%3)) })
	in := batch(seq(n, func(i int) int64 { return int64(i) }), groups,
		seq(n, func(i int) int64 { return int64(i) }))
	a, _ := re.Append(in)
	b, _ := inc.Append(in)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("window counts: re=%d inc=%d", len(a), len(b))
	}
	for i := range a {
		// Group output order may differ; compare as sets of rows.
		if !sameRows(a[i].Rel, b[i].Rel) {
			t.Errorf("window %d differs:\n%s\nvs\n%s", i, a[i].Rel, b[i].Rel)
		}
	}
}

func sameRows(x, y *storage.Relation) bool {
	if x.NumRows() != y.NumRows() {
		return false
	}
	seen := map[string]int{}
	for i := 0; i < x.NumRows(); i++ {
		key := ""
		for _, v := range x.Row(i) {
			key += v.String() + "|"
		}
		seen[key]++
	}
	for i := 0; i < y.NumRows(); i++ {
		key := ""
		for _, v := range y.Row(i) {
			key += v.String() + "|"
		}
		seen[key]--
	}
	for _, c := range seen {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestTimeWindows(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 50, TSIndex: 2}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		// Tuples at ts 0,10,…,240; value = ts/10.
		n := 25
		in := batch(seq(n, func(i int) int64 { return int64(i) }),
			strs(n, func(int) string { return "x" }),
			seq(n, func(i int) int64 { return int64(i * 10) }))
		results, err := r.Append(in)
		if err != nil {
			t.Fatalf("%s: %v", r.Mode(), err)
		}
		// Windows: [0,100) sum 0..9=45, [50,150) sum 5..14=95, [100,200) sum 10..19=145.
		// [150,250) not yet complete (no tuple with ts >= 250).
		want := []int64{45, 95, 145}
		if len(results) != len(want) {
			t.Fatalf("%s: %d windows, want %d", r.Mode(), len(results), len(want))
		}
		for i, w := range want {
			if got := results[i].Rel.Cols[0].Get(0).I; got != w {
				t.Errorf("%s: window %d sum = %d, want %d", r.Mode(), i, got, w)
			}
		}
	}
}

func TestTimeWindowFlush(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 100, TSIndex: 2}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		in := batch([]int64{1, 2, 3}, []string{"x", "x", "x"}, []int64{0, 10, 20})
		results, err := r.Append(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 0 {
			t.Fatalf("%s: premature emission", r.Mode())
		}
		// Clock passes the window end with no new tuples.
		results, err = r.Flush(150)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Rel.Cols[0].Get(0).I != 6 {
			t.Fatalf("%s: flush results = %v", r.Mode(), results)
		}
	}
}

func TestFlushOnCountWindowIsNoop(t *testing.T) {
	spec := Spec{Kind: sql.WindowRows, Size: 4, Slide: 4, TSIndex: 2}
	re, _ := newRunnerPair(t, sumQuery, spec)
	res, err := re.Flush(1 << 40)
	if err != nil || res != nil {
		t.Errorf("flush on count window: %v %v", res, err)
	}
}

func TestIncrementalRequiresDivisibility(t *testing.T) {
	p, cat := buildQuery(t, sumQuery)
	pe, _ := RecognizeIncremental(p)
	_, err := NewRunner(Spec{Kind: sql.WindowRows, Size: 10, Slide: 3, TSIndex: 2},
		Incremental, nil, pe, streamSchema())
	if err == nil {
		t.Error("size not divisible by slide should fail in incremental mode")
	}
	_, err = NewRunner(Spec{Kind: sql.WindowRows, Size: 10, Slide: 5, TSIndex: 2},
		ReEvaluate, &PlanEvaluator{Plan: p, Catalog: cat, Source: "s"}, nil, streamSchema())
	if err != nil {
		t.Errorf("re-eval should accept any slide: %v", err)
	}
}

func TestRecognizeIncrementalRejectsNonAggregates(t *testing.T) {
	p, _ := buildQuery(t, "SELECT S.v FROM [SELECT * FROM s] AS S WHERE S.v > 0")
	if _, ok := RecognizeIncremental(p); ok {
		t.Error("non-aggregate plan should not be recognized")
	}
}

func TestRecognizeIncrementalWithFilterAndHaving(t *testing.T) {
	q := "SELECT S.g, COUNT(*) AS n FROM [SELECT * FROM s WHERE v >= 0] AS S GROUP BY S.g HAVING COUNT(*) > 1"
	spec := Spec{Kind: sql.WindowRows, Size: 6, Slide: 6, TSIndex: 2}
	re, inc := newRunnerPair(t, q, spec)
	in := batch([]int64{1, -5, 2, 3, -7, 4, 5, 6, 7, 8, 9, 10},
		[]string{"a", "a", "a", "b", "b", "b", "a", "a", "b", "b", "b", "b"},
		seq(12, func(i int) int64 { return int64(i) }))
	a, err := re.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("windows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameRows(a[i].Rel, b[i].Rel) {
			t.Errorf("window %d differs:\n%s\nvs\n%s", i, a[i].Rel, b[i].Rel)
		}
	}
}

func TestRunnerConstructionErrors(t *testing.T) {
	if _, err := NewRunner(Spec{Kind: sql.WindowRows, Size: 4, Slide: 4}, ReEvaluate, nil, nil, streamSchema()); err == nil {
		t.Error("re-eval without evaluator should fail")
	}
	if _, err := NewRunner(Spec{Kind: sql.WindowRows, Size: 4, Slide: 4}, Incremental, nil, nil, streamSchema()); err == nil {
		t.Error("incremental without pane evaluator should fail")
	}
}

func TestPlanEvaluatorMatchesDirectExec(t *testing.T) {
	p, cat := buildQuery(t, sumQuery)
	ev := &PlanEvaluator{Plan: p, Catalog: cat, Source: "s"}
	win := batch([]int64{5, 6}, []string{"x", "y"}, []int64{1, 2})
	got, err := ev.Eval(win)
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext(cat)
	ctx.Overrides["s"] = bat.ViewOf(win.Cols...)
	want, err := exec.Run(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("evaluator mismatch:\n%s\nvs\n%s", got, want)
	}
	if ev.Schema().Len() != 1 {
		t.Errorf("schema = %v", ev.Schema())
	}
}

func TestModeString(t *testing.T) {
	if ReEvaluate.String() != "re-evaluation" || Incremental.String() != "incremental" {
		t.Error("mode strings wrong")
	}
}

func TestCountDistinctSlidingAgreement(t *testing.T) {
	spec := Spec{Kind: sql.WindowRows, Size: 8, Slide: 2, TSIndex: 2}
	re, inc := newRunnerPair(t,
		"SELECT S.g, COUNT(DISTINCT S.v) AS dv FROM [SELECT * FROM s] AS S GROUP BY S.g",
		spec)
	n := 40
	in := batch(seq(n, func(i int) int64 { return int64(i % 5) }), // repeating values
		strs(n, func(i int) string { return string(rune('a' + i%2)) }),
		seq(n, func(i int) int64 { return int64(i) }))
	a, err := re.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("windows: re=%d inc=%d", len(a), len(b))
	}
	for i := range a {
		if !sameRows(a[i].Rel, b[i].Rel) {
			t.Errorf("window %d differs:\n%s\nvs\n%s", i, a[i].Rel, b[i].Rel)
		}
	}
}
