package factory

import (
	"testing"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
	"repro/internal/window"
)

// env is a tiny test rig: one stream basket registered in a catalog, plus
// a compiled continuous plan over it.
type env struct {
	cat   *catalog.Catalog
	clk   *metrics.ManualClock
	in    *basket.Basket
	out   *basket.Basket
	plan  plan.Node
	sel   *sql.SelectStmt
	query string
}

func newEnv(t *testing.T, query string) *env {
	t.Helper()
	clk := metrics.NewManualClock(1000)
	cat := catalog.New()
	schema := catalog.NewSchema(
		catalog.Column{Name: "v", Type: vector.Int64},
	)
	in := basket.New("s", schema, clk)
	if err := cat.Register("s", catalog.KindBasket, in); err != nil {
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
	out := basket.New("out", p.Schema(), clk)
	return &env{cat: cat, clk: clk, in: in, out: out, plan: p, sel: sel, query: query}
}

func (e *env) push(t *testing.T, vals ...int64) {
	t.Helper()
	rows := make([][]vector.Value, len(vals))
	for i, v := range vals {
		rows[i] = []vector.Value{vector.NewInt(v)}
	}
	if err := e.in.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryBasicLoop(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S WHERE S.v > 10")
	f, err := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}},
		[]*basket.Basket{e.out}, WithClock(e.clk))
	if err != nil {
		t.Fatal(err)
	}
	if f.Ready() {
		t.Fatal("empty input: not ready")
	}
	e.push(t, 5, 15, 25)
	if !f.Ready() {
		t.Fatal("should be ready")
	}
	if err := f.Fire(); err != nil {
		t.Fatal(err)
	}
	if e.in.Len() != 0 {
		t.Errorf("input not consumed: %d", e.in.Len())
	}
	if e.out.Len() != 2 {
		t.Errorf("output rows = %d", e.out.Len())
	}
	st := f.Stats()
	if st.Firings != 1 || st.TuplesIn != 3 || st.TuplesOut != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Firing with no input is a no-op, not an error.
	if err := f.Fire(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Firings != 1 {
		t.Error("empty fire should not count")
	}
}

func TestFactoryPredicateWindowRetainsTuples(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s WHERE v < 100] AS S")
	f, err := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, []*basket.Basket{e.out}, WithClock(e.clk))
	if err != nil {
		t.Fatal(err)
	}
	e.push(t, 50, 500, 70)
	if err := f.Fire(); err != nil {
		t.Fatal(err)
	}
	if e.in.Len() != 1 {
		t.Errorf("retained = %d, want 1", e.in.Len())
	}
	if e.out.Len() != 2 {
		t.Errorf("emitted = %d, want 2", e.out.Len())
	}
}

func TestFactoryMinTuples(t *testing.T) {
	e := newEnv(t, "SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS S")
	f, err := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, []*basket.Basket{e.out},
		WithMinTuples(5), WithClock(e.clk))
	if err != nil {
		t.Fatal(err)
	}
	e.push(t, 1, 2, 3)
	if f.Ready() {
		t.Error("below threshold should not be ready")
	}
	e.push(t, 4, 5)
	if !f.Ready() {
		t.Error("at threshold should be ready")
	}
	_ = f.Fire()
	if e.out.Len() != 1 {
		t.Errorf("out rows = %d", e.out.Len())
	}
	snap := e.out.Snapshot()
	if snap.Get(0, 0).I != 5 {
		t.Errorf("count = %v", snap.Get(0, 0))
	}
}

func TestFactorySharedWatermarkNoDuplicates(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S")
	f1, _ := New("f1", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Shared}}, []*basket.Basket{e.out}, WithClock(e.clk))
	out2 := basket.New("out2", e.plan.Schema(), e.clk)
	f2, _ := New("f2", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Shared}}, []*basket.Basket{out2}, WithClock(e.clk))

	e.push(t, 1, 2, 3)
	_ = f1.Fire()
	// Basket retains for f2.
	if e.in.Len() != 3 {
		t.Errorf("retained = %d", e.in.Len())
	}
	if f1.Ready() {
		t.Error("f1 has seen everything; must not refire")
	}
	_ = f2.Fire()
	if e.in.Len() != 0 {
		t.Errorf("after both: %d", e.in.Len())
	}
	if e.out.Len() != 3 || out2.Len() != 3 {
		t.Errorf("outputs: %d %d", e.out.Len(), out2.Len())
	}
	// Second round: only new tuples.
	e.push(t, 4)
	_ = f1.Fire()
	_ = f2.Fire()
	if e.out.Len() != 4 || out2.Len() != 4 {
		t.Errorf("after round 2: %d %d", e.out.Len(), out2.Len())
	}
	f1.Close()
	f2.Close()
}

func TestFactoryOnResultCallback(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S")
	var got int
	var gotTS int64
	f, _ := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, nil, WithClock(e.clk))
	f.SetResultHook(func(rel *storage.Relation, maxTS int64) {
		got += rel.NumRows()
		gotTS = maxTS
	})
	e.clk.Set(7777)
	e.push(t, 1, 2)
	_ = f.Fire()
	if got != 2 {
		t.Errorf("callback rows = %d", got)
	}
	if gotTS != 7777 {
		t.Errorf("callback maxTS = %d", gotTS)
	}
}

func TestFactoryLatencyObserved(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S")
	f, _ := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, []*basket.Basket{e.out}, WithClock(e.clk))
	e.clk.Set(1000)
	e.push(t, 1)
	e.clk.Set(1500)
	_ = f.Fire()
	if f.Latency.Count() != 1 {
		t.Fatalf("latency observations = %d", f.Latency.Count())
	}
	if got := f.Latency.Max(); got != 500 {
		t.Errorf("latency = %d, want 500", got)
	}
}

func TestFactoryWindowed(t *testing.T) {
	e := newEnv(t, "SELECT SUM(S.v) AS total FROM [SELECT * FROM s] AS S WINDOW ROWS 3 SLIDE 3")
	bufSchema := e.in.Schema()
	spec := window.Spec{Kind: sql.WindowRows, Size: 3, Slide: 3, TSIndex: bufSchema.Index(catalog.TimestampColumn)}
	pe, ok := window.RecognizeIncremental(e.plan)
	if !ok {
		t.Fatal("plan should be recognizable")
	}
	runner, err := window.NewRunner(spec, window.Incremental, nil, pe, bufSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, []*basket.Basket{e.out},
		WithWindow(runner), WithClock(e.clk))
	if err != nil {
		t.Fatal(err)
	}
	e.push(t, 1, 2)
	_ = f.Fire()
	if e.out.Len() != 0 {
		t.Fatal("window emitted early")
	}
	if e.in.Len() != 0 {
		t.Error("windowed factory should consume into its buffer")
	}
	e.push(t, 3, 4)
	_ = f.Fire()
	if e.out.Len() != 1 {
		t.Fatalf("windows = %d", e.out.Len())
	}
	if got := e.out.Snapshot().Get(0, 0).I; got != 6 {
		t.Errorf("window sum = %d", got)
	}
}

func TestFactoryErrors(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S")
	if _, err := New("f", e.plan, e.cat, nil, nil); err == nil {
		t.Error("no inputs should fail")
	}
	// Output schema mismatch surfaces as a Fire error.
	wrong := basket.New("wrong", catalog.NewSchema(
		catalog.Column{Name: "a", Type: vector.String},
		catalog.Column{Name: "b", Type: vector.String},
	), e.clk)
	f, _ := New("f", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, []*basket.Basket{wrong}, WithClock(e.clk))
	e.push(t, 1)
	if err := f.Fire(); err == nil {
		t.Error("type-mismatched output should fail")
	}
}

func TestFactoryNameAndPlanAccessors(t *testing.T) {
	e := newEnv(t, "SELECT * FROM [SELECT * FROM s] AS S")
	f, _ := New("myf", e.plan, e.cat,
		[]Input{{Basket: e.in, Mode: Owned}}, nil, WithClock(e.clk))
	if f.Name() != "myf" || f.Plan() == nil {
		t.Error("accessors broken")
	}
	if f.Ready() {
		t.Error("an idle unwindowed factory reports ready")
	}
	if err := f.Fire(); err != nil {
		t.Errorf("firing an idle unwindowed factory: %v", err)
	}
}
