package exec

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// testDB builds a catalog with:
//
//	orders(id INT, cust VARCHAR, amount DOUBLE, qty INT)
//	customers(name VARCHAR, region VARCHAR)
//	events basket(id INT, v INT, ts TIMESTAMP)   — ts implicit
func testDB(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()

	orders := storage.NewTable("orders", catalog.NewSchema(
		catalog.Column{Name: "id", Type: vector.Int64},
		catalog.Column{Name: "cust", Type: vector.String},
		catalog.Column{Name: "amount", Type: vector.Float64},
		catalog.Column{Name: "qty", Type: vector.Int64},
	))
	rows := []struct {
		id     int64
		cust   string
		amount float64
		qty    int64
	}{
		{1, "ann", 10.0, 1},
		{2, "bob", 20.0, 2},
		{3, "ann", 30.0, 3},
		{4, "cat", 40.0, 4},
		{5, "bob", 50.0, 5},
	}
	for _, r := range rows {
		if err := orders.AppendRow([]vector.Value{
			vector.NewInt(r.id), vector.NewString(r.cust),
			vector.NewFloat(r.amount), vector.NewInt(r.qty),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register("orders", catalog.KindTable, orders); err != nil {
		t.Fatal(err)
	}

	customers := storage.NewTable("customers", catalog.NewSchema(
		catalog.Column{Name: "name", Type: vector.String},
		catalog.Column{Name: "region", Type: vector.String},
	))
	for _, r := range [][2]string{{"ann", "west"}, {"bob", "east"}, {"dan", "west"}} {
		_ = customers.AppendRow([]vector.Value{vector.NewString(r[0]), vector.NewString(r[1])})
	}
	if err := cat.Register("customers", catalog.KindTable, customers); err != nil {
		t.Fatal(err)
	}

	events := storage.NewTable("events", catalog.NewSchema(
		catalog.Column{Name: "id", Type: vector.Int64},
		catalog.Column{Name: "v", Type: vector.Int64},
	).WithTimestamp())
	for i := int64(0); i < 10; i++ {
		_ = events.AppendRow([]vector.Value{
			vector.NewInt(i), vector.NewInt(i * 10), vector.NewTimestamp(i * 1000),
		})
	}
	if err := cat.Register("events", catalog.KindBasket, events); err != nil {
		t.Fatal(err)
	}
	return cat
}

func runSQL(t *testing.T, cat *catalog.Catalog, q string) (*storage.Relation, *Context) {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	ctx := NewContext(cat)
	rel, err := Run(p, ctx)
	if err != nil {
		t.Fatalf("run %q: %v\nplan:\n%s", q, err, plan.Explain(p))
	}
	return rel, ctx
}

func TestSelectStar(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT * FROM orders")
	if rel.NumRows() != 5 || rel.Schema.Len() != 4 {
		t.Fatalf("rows=%d cols=%d", rel.NumRows(), rel.Schema.Len())
	}
}

func TestWhereFilter(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id FROM orders WHERE amount > 25")
	if rel.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rel.NumRows())
	}
	want := map[int64]bool{3: true, 4: true, 5: true}
	for i := 0; i < rel.NumRows(); i++ {
		if !want[rel.Cols[0].Get(i).I] {
			t.Errorf("unexpected id %d", rel.Cols[0].Get(i).I)
		}
	}
}

func TestProjectionExpression(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id, amount * 2 AS double_amt, qty + 1 FROM orders WHERE id = 2")
	if rel.NumRows() != 1 {
		t.Fatalf("rows = %d", rel.NumRows())
	}
	if rel.Schema.Names()[1] != "double_amt" {
		t.Errorf("alias = %v", rel.Schema.Names())
	}
	if rel.Cols[1].Get(0).F != 40.0 || rel.Cols[2].Get(0).I != 3 {
		t.Errorf("row = %v", rel.Row(0))
	}
}

func TestBetweenAndIn(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id FROM orders WHERE amount BETWEEN 20 AND 40")
	if rel.NumRows() != 3 {
		t.Errorf("between rows = %d", rel.NumRows())
	}
	rel, _ = runSQL(t, testDB(t), "SELECT id FROM orders WHERE cust IN ('ann', 'cat')")
	if rel.NumRows() != 3 {
		t.Errorf("in rows = %d", rel.NumRows())
	}
}

func TestOrderByLimit(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 2")
	if rel.NumRows() != 2 {
		t.Fatalf("rows = %d", rel.NumRows())
	}
	if rel.Cols[0].Get(0).I != 5 || rel.Cols[0].Get(1).I != 4 {
		t.Errorf("order: %v %v", rel.Row(0), rel.Row(1))
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id FROM orders LIMIT 3")
	if rel.NumRows() != 3 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

func TestScalarAggregates(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT COUNT(*), SUM(amount), MIN(qty), MAX(qty), AVG(amount) FROM orders")
	if rel.NumRows() != 1 {
		t.Fatalf("rows = %d", rel.NumRows())
	}
	row := rel.Row(0)
	if row[0].I != 5 || row[1].F != 150 || row[2].I != 1 || row[3].I != 5 || row[4].F != 30 {
		t.Errorf("aggs = %v", row)
	}
}

func TestGroupBy(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT cust, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY cust ORDER BY cust")
	if rel.NumRows() != 3 {
		t.Fatalf("groups = %d", rel.NumRows())
	}
	wantCust := []string{"ann", "bob", "cat"}
	wantTotal := []float64{40, 70, 40}
	wantN := []int64{2, 2, 1}
	for i := 0; i < 3; i++ {
		row := rel.Row(i)
		if row[0].S != wantCust[i] || row[1].F != wantTotal[i] || row[2].I != wantN[i] {
			t.Errorf("group %d = %v", i, row)
		}
	}
}

func TestGroupByHaving(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING COUNT(*) > 1 ORDER BY cust")
	if rel.NumRows() != 2 {
		t.Fatalf("groups = %d", rel.NumRows())
	}
	if rel.Cols[0].Get(0).S != "ann" || rel.Cols[0].Get(1).S != "bob" {
		t.Errorf("having: %v", rel)
	}
}

func TestGroupByExpressionOverKeys(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT qty % 2 AS parity, COUNT(*) FROM orders GROUP BY qty % 2 ORDER BY parity")
	if rel.NumRows() != 2 {
		t.Fatalf("groups = %d", rel.NumRows())
	}
	// qty 1..5: odd {1,3,5} even {2,4}
	if rel.Cols[1].Get(0).I != 2 || rel.Cols[1].Get(1).I != 3 {
		t.Errorf("parity counts: %v %v", rel.Row(0), rel.Row(1))
	}
}

func TestAggregateArithmetic(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT SUM(amount) / COUNT(*) AS mean FROM orders")
	if rel.Cols[0].Get(0).F != 30 {
		t.Errorf("mean = %v", rel.Row(0))
	}
}

func TestJoinHash(t *testing.T) {
	rel, _ := runSQL(t, testDB(t),
		"SELECT o.id, c.region FROM orders AS o JOIN customers AS c ON o.cust = c.name ORDER BY o.id")
	// cat has no customer row; dan has no orders.
	if rel.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", rel.NumRows())
	}
	if rel.Cols[0].Get(0).I != 1 || rel.Cols[1].Get(0).S != "west" {
		t.Errorf("row0 = %v", rel.Row(0))
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	rel, _ := runSQL(t, testDB(t),
		"SELECT o.id FROM orders AS o JOIN customers AS c ON o.cust = c.name AND o.amount > 15 ORDER BY o.id")
	if rel.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rel.NumRows())
	}
}

func TestCrossJoinWithWhere(t *testing.T) {
	rel, _ := runSQL(t, testDB(t),
		"SELECT o.id FROM orders o, customers c WHERE o.cust = c.name AND c.region = 'east' ORDER BY o.id")
	if rel.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (bob's orders)", rel.NumRows())
	}
	if rel.Cols[0].Get(0).I != 2 || rel.Cols[0].Get(1).I != 5 {
		t.Errorf("ids: %v %v", rel.Row(0), rel.Row(1))
	}
}

func TestSubqueryInFrom(t *testing.T) {
	rel, _ := runSQL(t, testDB(t),
		"SELECT big.id FROM (SELECT id, amount FROM orders WHERE amount >= 30) AS big WHERE big.id < 5 ORDER BY big.id")
	if rel.NumRows() != 2 {
		t.Fatalf("rows = %d", rel.NumRows())
	}
	if rel.Cols[0].Get(0).I != 3 || rel.Cols[0].Get(1).I != 4 {
		t.Errorf("rows: %v %v", rel.Row(0), rel.Row(1))
	}
}

func TestBasketScanHidesTimestampFromStar(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT * FROM events")
	if rel.Schema.Len() != 2 {
		t.Fatalf("star over basket should hide ts: %v", rel.Schema.Names())
	}
	// But ts is selectable explicitly.
	rel, _ = runSQL(t, testDB(t), "SELECT ts FROM events WHERE id = 3")
	if rel.Cols[0].Get(0).I != 3000 {
		t.Errorf("ts = %v", rel.Row(0))
	}
}

func TestBasketExpressionConsumesAll(t *testing.T) {
	cat := testDB(t)
	rel, ctx := runSQL(t, cat, "SELECT * FROM [SELECT * FROM events] AS S WHERE S.v > 40")
	if rel.NumRows() != 5 { // v in {50..90}
		t.Fatalf("rows = %d, want 5", rel.NumRows())
	}
	// Consume-all: every snapshot tuple referenced (q1 semantics).
	if got := len(ctx.Consumed["events"]); got != 10 {
		t.Errorf("consumed = %d, want 10", got)
	}
}

func TestBasketExpressionPredicateWindow(t *testing.T) {
	cat := testDB(t)
	// q2 semantics: only tuples inside the predicate window are referenced
	// (and therefore consumed); the outer filter does not affect consumption.
	rel, ctx := runSQL(t, cat, "SELECT * FROM [SELECT * FROM events WHERE v < 50] AS S WHERE S.id > 1")
	if rel.NumRows() != 3 { // ids 2,3,4
		t.Fatalf("rows = %d, want 3", rel.NumRows())
	}
	if got := len(ctx.Consumed["events"]); got != 5 { // ids 0..4
		t.Errorf("consumed = %d, want 5", got)
	}
}

func TestBasketExpressionProjection(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT S.double_v FROM [SELECT v * 2 AS double_v FROM events WHERE id < 2] AS S")
	if rel.NumRows() != 2 || rel.Cols[0].Get(1).I != 20 {
		t.Fatalf("rel = %v", rel)
	}
}

func TestBasketExpressionErrors(t *testing.T) {
	cat := testDB(t)
	for _, q := range []string{
		"SELECT * FROM [SELECT * FROM orders] AS S",                    // not a basket
		"SELECT * FROM [SELECT * FROM events GROUP BY id] AS S",        // group by inside
		"SELECT * FROM [SELECT COUNT(*) FROM events] AS S",             // aggregate inside
		"SELECT * FROM [SELECT * FROM events ORDER BY id] AS S",        // order inside
		"SELECT * FROM [SELECT * FROM events, orders] AS S",            // two sources
		"SELECT * FROM [SELECT * FROM (SELECT id FROM events) x] AS S", // nested sub-query
	} {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := plan.Build(sel, cat); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	cat := testDB(t)
	for _, q := range []string{
		"SELECT nosuch FROM orders",
		"SELECT id FROM nosuch",
		"SELECT o.nosuch FROM orders o",
		"SELECT x.id FROM orders o",
		"SELECT id FROM orders WHERE amount + 1",             // non-boolean where
		"SELECT id FROM orders WHERE cust > 5",               // type mismatch
		"SELECT id, cust FROM orders GROUP BY id",            // cust not grouped
		"SELECT id FROM orders ORDER BY nosuch",              // unknown order key
		"SELECT id FROM orders o JOIN customers c ON c.name", // non-bool join
		"SELECT SUM(cust) FROM orders",                       // sum over string
		"SELECT -cust FROM orders",                           // neg over string
		"SELECT NOT id FROM orders",                          // not over int
		"SELECT id FROM orders, customers",                   // ambiguous? no: id unique. use:
	} {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := plan.Build(sel, cat); err == nil && q != "SELECT id FROM orders, customers" {
			t.Errorf("Build(%q) should fail", q)
		}
	}
	// Ambiguous column.
	sel, _ := sql.ParseSelect("SELECT name FROM customers c1, customers c2")
	if _, err := plan.Build(sel, cat); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestNullLiteralComparison(t *testing.T) {
	// id = NULL is never true: zero rows.
	rel, _ := runSQL(t, testDB(t), "SELECT id FROM orders WHERE id = NULL")
	if rel.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", rel.NumRows())
	}
	rel, _ = runSQL(t, testDB(t), "SELECT id FROM orders WHERE id IS NOT NULL")
	if rel.NumRows() != 5 {
		t.Errorf("rows = %d, want 5", rel.NumRows())
	}
}

func TestEmptyResultKeepsSchema(t *testing.T) {
	rel, _ := runSQL(t, testDB(t), "SELECT id, amount * 2 AS d FROM orders WHERE id > 100")
	if rel.NumRows() != 0 || rel.Schema.Len() != 2 {
		t.Errorf("rel = %v", rel)
	}
}

func TestOverrides(t *testing.T) {
	cat := testDB(t)
	sel, _ := sql.ParseSelect("SELECT v FROM events WHERE v >= 0")
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(cat)
	// Pin the scan to a tiny snapshot.
	ctx.Overrides["events"] = bat.ViewOf(
		vector.FromInts([]int64{100}),
		vector.FromInts([]int64{200}),
		vector.FromTimestamps([]int64{5}),
	)
	rel, err := Run(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).I != 200 {
		t.Errorf("override result = %v", rel)
	}
}

func TestExplainAndOptimizeShape(t *testing.T) {
	cat := testDB(t)
	sel, _ := sql.ParseSelect("SELECT id FROM orders WHERE amount > 10 AND qty < 4")
	unopt, err := plan.BuildUnoptimized(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Optimize(unopt)
	// After pushdown the filter lives in the scan: no Select node remains.
	if _, ok := opt.(*plan.Project); !ok {
		t.Fatalf("optimized root = %T\n%s", opt, plan.Explain(opt))
	}
	scan, ok := opt.(*plan.Project).Child.(*plan.Scan)
	if !ok {
		t.Fatalf("optimized child = %T\n%s", opt.(*plan.Project).Child, plan.Explain(opt))
	}
	if scan.Filter == nil {
		t.Error("filter not pushed into scan")
	}
	// Pruning: only id is emitted — amount and qty live only in the scan
	// filter, which evaluates against the full source columns.
	if len(scan.Cols) != 1 || scan.Cols[0] != 0 {
		t.Errorf("scan cols = %v (want just id)", scan.Cols)
	}
	if plan.Explain(opt) == "" {
		t.Error("Explain empty")
	}
}

func TestPruningPreservesResults(t *testing.T) {
	cat := testDB(t)
	for _, q := range []string{
		"SELECT id FROM orders WHERE amount > 25 ORDER BY id",
		"SELECT cust, SUM(amount) FROM orders GROUP BY cust ORDER BY cust",
		"SELECT o.id FROM orders o JOIN customers c ON o.cust = c.name ORDER BY o.id",
	} {
		sel, _ := sql.ParseSelect(q)
		unopt, err := plan.BuildUnoptimized(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		opt := plan.Optimize(unopt)
		want, err := Run(unopt, NewContext(cat))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(opt, NewContext(cat))
		if err != nil {
			t.Fatalf("optimized run %q: %v\n%s", q, err, plan.Explain(opt))
		}
		if got.String() != want.String() {
			t.Errorf("%q: optimized result differs\nwant:\n%s\ngot:\n%s", q, want, got)
		}
	}
}

func TestConsumingScanNotAbsorbedByPushdown(t *testing.T) {
	cat := testDB(t)
	sel, _ := sql.ParseSelect("SELECT * FROM [SELECT * FROM events] AS S WHERE S.v > 40")
	p, err := plan.Build(sel, cat)
	if err != nil {
		t.Fatal(err)
	}
	// Find the scan and confirm it has no filter (consume-all preserved).
	var findScan func(n plan.Node) *plan.Scan
	findScan = func(n plan.Node) *plan.Scan {
		switch x := n.(type) {
		case *plan.Scan:
			return x
		case *plan.Select:
			return findScan(x.Child)
		case *plan.Project:
			return findScan(x.Child)
		case *plan.Sort:
			return findScan(x.Child)
		case *plan.Aggregate:
			return findScan(x.Child)
		}
		return nil
	}
	scan := findScan(p)
	if scan == nil {
		t.Fatalf("no scan in plan:\n%s", plan.Explain(p))
	}
	if scan.Filter != nil {
		t.Errorf("outer predicate leaked into consuming scan: %s", scan.Filter)
	}
}

// TestScanRestrict: a position restriction makes a scan read only those
// rows, composes with the scan's own filter by intersection, and leaves
// the plan above it to decide what matches. A consuming scan consumes
// only what it was shown.
func TestScanRestrict(t *testing.T) {
	cat := testDB(t)
	build := func(q string) plan.Node {
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ids := func(p plan.Node, restrict bat.Candidates) ([]int64, *Context) {
		ctx := NewContext(cat)
		ctx.Restrict = map[string]bat.Candidates{"events": restrict}
		rel, err := Run(p, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return append([]int64{}, rel.Cols[0].Ints()...), ctx
	}
	equal := func(what string, got, want []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", what, got, want)
			}
		}
	}

	outer := build("SELECT e.id FROM [SELECT * FROM events] AS e WHERE e.v >= 30")
	got, ctx := ids(outer, bat.Candidates{1, 3, 4, 8})
	equal("restricted scan under a Select", got, []int64{3, 4, 8})
	if c := ctx.Consumed["events"]; len(c) != 4 {
		t.Errorf("consumed %v, want exactly the four rows shown", c)
	}
	got, _ = ids(outer, nil)
	equal("nil restriction reads everything", got, []int64{3, 4, 5, 6, 7, 8, 9})
	got, _ = ids(outer, bat.Candidates{})
	equal("empty restriction reads nothing", got, nil)

	filtered := build("SELECT e.id FROM [SELECT * FROM events WHERE v >= 30] AS e")
	got, _ = ids(filtered, bat.Candidates{1, 3, 4, 8})
	equal("restriction ∩ scan filter", got, []int64{3, 4, 8})
}
