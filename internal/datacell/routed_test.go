package datacell

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vector"
)

// rowsOf flattens the delivered relations of a query into sortable
// "a|b" strings (both projected columns are INTs in these tests; the
// implicit ts column is never projected, so routed and separate paths
// are comparable byte-for-byte).
func rowsOf(t *testing.T, rels []*storage.Relation) []string {
	t.Helper()
	var out []string
	for _, r := range rels {
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			s := ""
			for j, v := range row {
				if j > 0 {
					s += "|"
				}
				s += fmt.Sprint(v.I)
			}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// TestRoutedMatchesSeparate is the flat-vs-shared equality property: N
// queries attached to one routed scan must produce exactly the result
// sets of N independent separate-strategy replicas.
func TestRoutedMatchesSeparate(t *testing.T) {
	e, _ := newEngine(t)
	const nq = 8
	var routed, flat []*Query
	for i := 0; i < nq; i++ {
		var text string
		switch i % 3 {
		case 0: // equality, selective
			text = fmt.Sprintf("SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a = %d", i*10)
		case 1: // range
			text = fmt.Sprintf("SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > %d AND S.a <= %d", i*5, i*5+20)
		default: // residual (always-match)
			text = "SELECT S.a, S.b FROM [SELECT * FROM R] AS S"
		}
		rq, err := register(e, fmt.Sprintf("rq%d", i), "strategy = routed", text)
		if err != nil {
			t.Fatal(err)
		}
		if rq.Strategy != RoutedScan {
			t.Fatalf("rq%d: strategy = %s, want routed", i, rq.Strategy)
		}
		fq, err := register(e, fmt.Sprintf("fq%d", i), "strategy = separate", text)
		if err != nil {
			t.Fatal(err)
		}
		routed, flat = append(routed, rq), append(flat, fq)
	}
	var pairs [][2]int64
	for v := int64(0); v < 120; v++ {
		pairs = append(pairs, [2]int64{v % 60, v})
	}
	ingestPairs(t, e, "R", pairs)
	ingestPairs(t, e, "R", [][2]int64{{10, 1000}, {10, 1001}, {59, 1002}})
	e.Drain()
	for i := range routed {
		got := rowsOf(t, collect(routed[i]))
		want := rowsOf(t, collect(flat[i]))
		if len(got) != len(want) {
			t.Fatalf("q%d: routed %d rows, separate %d rows", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("q%d row %d: routed %q, separate %q", i, j, got[j], want[j])
			}
		}
	}
	// Per-query stats must stay correct under sharing: every routed query
	// saw every batch (TuplesIn) but only matching tuples came out.
	st := routed[0].Stats() // WHERE S.a = 0
	if st.TuplesIn != 123 {
		t.Errorf("rq0 TuplesIn = %d, want 123", st.TuplesIn)
	}
	if st.TuplesOut != 2 { // a=0 occurs for v=0 and v=60
		t.Errorf("rq0 TuplesOut = %d, want 2", st.TuplesOut)
	}
}

// TestRoutedSkipsNonMatching checks the predicate index actually short-
// circuits: a batch that cannot match an equality query's bucket must
// not evaluate that query's plan.
func TestRoutedSkipsNonMatching(t *testing.T) {
	e, _ := newEngine(t)
	hit, err := register(e, "hit", "strategy = routed",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 1")
	if err != nil {
		t.Fatal(err)
	}
	miss, err := register(e, "miss", "strategy = routed",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 999")
	if err != nil {
		t.Fatal(err)
	}
	if hit.routed.scan != miss.routed.scan {
		t.Fatal("queries on one stream should share one scan")
	}
	// Flush the pending overlay so the second batch routes precisely.
	ingestPairs(t, e, "R", [][2]int64{{5, 0}})
	e.Drain()
	base := miss.Stats().Firings
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {2, 2}})
	e.Drain()
	if got := miss.Stats().Firings - base; got != 0 {
		t.Errorf("miss fired %d times on a non-matching batch", got)
	}
	if got := hit.Stats().TuplesOut; got != 1 {
		t.Errorf("hit TuplesOut = %d, want 1", got)
	}
	if hit.routed.group == miss.routed.group {
		t.Error("different predicates must not share a plan group")
	}
}

// TestRoutedSharedGroupEvaluatesOnce: identical plans land in one group
// with a single evaluation per batch fanned out to both members.
func TestRoutedSharedGroupEvaluatesOnce(t *testing.T) {
	e, _ := newEngine(t)
	const text = "SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > 3"
	q1, err := register(e, "g1", "strategy = routed", text)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := register(e, "g2", "strategy = routed", text)
	if err != nil {
		t.Fatal(err)
	}
	if q1.routed.group != q2.routed.group {
		t.Fatal("identical plans should share one group")
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {5, 2}, {7, 3}})
	e.Drain()
	if got := q1.routed.group.evals.Load(); got != 1 {
		t.Errorf("group evals = %d, want 1", got)
	}
	for _, q := range []*Query{q1, q2} {
		if rows := countRows(collect(q)); rows != 2 {
			t.Errorf("%s: %d rows, want 2", q.Name, rows)
		}
	}
}

// TestRoutedFallback: shapes the shared scan cannot serve (windows here)
// must degrade to the shared-basket arrangement, not fail.
func TestRoutedFallback(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "w", "strategy = routed",
		"SELECT SUM(S.b) AS total FROM [SELECT * FROM R] AS S WINDOW ROWS 2 SLIDE 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.routed != nil || q.Strategy == RoutedScan {
		t.Fatalf("windowed query must fall back, got strategy %s", q.Strategy)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 10}, {2, 20}})
	e.Drain()
	if rows := countRows(collect(q)); rows != 1 {
		t.Errorf("fallback query produced %d rows, want 1", rows)
	}
}

// TestRoutedWithLaggingSharedReader: when another shared reader on the
// primary basket retains a prefix the routed scan has already consumed
// (here a SharedBaskets query whose firing threshold keeps it from
// draining), UnseenLocked reports a non-zero offset and the scan must
// deliver exactly the unseen suffix — not re-deliver the retained prefix
// or overshoot the arrival watermark and silently drop later arrivals.
func TestRoutedWithLaggingSharedReader(t *testing.T) {
	e, _ := newEngine(t)
	rq, err := register(e, "rq", "strategy = routed",
		"SELECT S.a, S.b FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	if rq.Strategy != RoutedScan {
		t.Fatalf("rq strategy = %s, want routed", rq.Strategy)
	}
	if _, err := register(e, "lag", "strategy = shared, min_tuples = 100",
		"SELECT S.a, S.b FROM [SELECT * FROM R] AS S"); err != nil {
		t.Fatal(err)
	}
	// One tuple per drained batch: from the second batch on, the lagging
	// reader's retained prefix makes the scan's offset grow every firing.
	const n = 5
	var want []string
	for v := int64(0); v < n; v++ {
		ingestPairs(t, e, "R", [][2]int64{{v, v * 10}})
		e.Drain()
		// Third field: the implicit arrival-ts column (manual clock, fixed).
		want = append(want, fmt.Sprintf("%d|%d|1000000", v, v*10))
	}
	got := rowsOf(t, collect(rq))
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("routed query got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if st := rq.Stats(); st.TuplesIn != n {
		t.Errorf("TuplesIn = %d, want %d", st.TuplesIn, n)
	}
}

// TestRoutedExplainAndShow: SHOW QUERIES and EXPLAIN ANALYZE must render
// per-query stats under sharing.
func TestRoutedExplainAndShow(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Exec(context.Background(),
		"CREATE CONTINUOUS QUERY cq WITH (strategy = routed) AS SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 2"); err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{2, 1}, {3, 2}})
	e.Drain()
	rel, err := e.Exec(context.Background(), "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		if row[0].S == "cq" {
			found = true
			if row[1].S != "routed" {
				t.Errorf("SHOW QUERIES strategy = %q, want routed", row[1].S)
			}
		}
	}
	if !found {
		t.Fatal("cq missing from SHOW QUERIES")
	}
	rel, err = e.Exec(context.Background(), "EXPLAIN ANALYZE cq")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		ops[row[0].S] = true
		// Rows in vs rows evaluated: both tuples entered the scan, the
		// index handed the plan only the a = 2 one.
		if row[0].S == "scan" && (row[4].I != 2 || !strings.Contains(row[3].S, "rows_evaluated=1")) {
			t.Errorf("scan row: tuples_in = %d, detail %q; want 2 rows in, rows_evaluated=1", row[4].I, row[3].S)
		}
	}
	var prom strings.Builder
	if err := e.obs.reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "dc_route_rows_evaluated_total 1\n") {
		t.Errorf("/metrics lacks dc_route_rows_evaluated_total 1:\n%s", prom.String())
	}
	for _, want := range []string{"query", "stream", "scan", "route", "plan", "output"} {
		if !ops[want] {
			t.Errorf("EXPLAIN ANALYZE missing %q row (got %v)", want, ops)
		}
	}
	if _, err := e.Exec(context.Background(), "DROP CONTINUOUS QUERY cq"); err != nil {
		t.Fatal(err)
	}
}

// TestRoutedChurnUnderIngest is the -race register/drop churn test: the
// predicate index and the scan's membership change continuously while
// ingest keeps firing the shared scan.
func TestRoutedChurnUnderIngest(t *testing.T) {
	e, _ := newEngine(t)
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(context.Background())
	// One stable member keeps the scan alive through the churn.
	stable, err := register(e, "stable", "strategy = routed",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 7")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ingestPairs(t, e, "R", [][2]int64{{i % 16, i}, {7, i}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("churn%d", i)
			text := fmt.Sprintf("SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = %d", i%16)
			if i%5 == 4 { // exercise group sharing under churn too
				text = "SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 7"
			}
			q, err := register(e, name, "strategy = routed", text)
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				collect(q)
			}
			if err := dropQuery(e, name); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	// The churn may outpace the ingest goroutine entirely; a final batch
	// proves the scan survived the churn intact. The pool may be mid-way
	// through the firing that routes it, so wait for the scan's counters
	// rather than for Drain.
	ingestPairs(t, e, "R", [][2]int64{{7, -1}})
	sc := stable.routed.scan
	waitFor(t, "the scan to route every tuple", func() bool {
		return sc.rows.Load() == e.Ingested("R") && stable.Stats().TuplesOut > 0
	})
	// Dropping the last member tears the scan down and a new registration
	// rebuilds it.
	if err := dropQuery(e, "stable"); err != nil {
		t.Fatal(err)
	}
	q2, err := register(e, "rebuilt", "strategy = routed",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 3")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{3, 1}})
	got := 0
	waitFor(t, "the rebuilt scan to deliver", func() bool { got += countRows(collect(q2)); return got > 0 })
	if got != 1 || q2.Stats().TuplesOut != 1 {
		t.Errorf("rebuilt scan delivered %d tuples (TuplesOut %d), want 1", got, q2.Stats().TuplesOut)
	}
}

// tri is a Kleene truth value of the differential test's reference
// predicates: NULL compares unknown, and only true selects.
type tri int8

const (
	triFalse tri = iota
	triUnknown
	triTrue
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// diffAtom is one generated conjunct: its SQL over alias S and the same
// condition over a tuple (seq, i, f, s, b).
type diffAtom struct {
	sql string
	ref func(t []vector.Value) tri
}

func cmpAtom(sql string, col int, ok func(v vector.Value) bool) diffAtom {
	return diffAtom{sql: sql, ref: func(t []vector.Value) tri {
		if t[col].Null {
			return triUnknown
		}
		return triOf(ok(t[col]))
	}}
}

// diffAtoms draws from every anchor kind the index distinguishes:
// equality on each of the four key types, int and float ranges, <>, and
// residual shapes (arithmetic, OR).
func diffAtoms(rng *rand.Rand) []diffAtom {
	i1, i2 := rng.Int63n(8), rng.Int63n(8)
	lo := rng.Int63n(6)
	f := []float64{0.5, 1.0, 1.5, 2.5}[rng.Intn(4)]
	s := []string{"a", "b", "c", ""}[rng.Intn(4)]
	b := rng.Intn(2) == 0
	return []diffAtom{
		cmpAtom(fmt.Sprintf("S.i = %d", i1), 1, func(v vector.Value) bool { return v.I == i1 }),
		cmpAtom(fmt.Sprintf("S.f = %g", f), 2, func(v vector.Value) bool { return v.F == f }),
		cmpAtom(fmt.Sprintf("S.s = '%s'", s), 3, func(v vector.Value) bool { return v.S == s }),
		cmpAtom(fmt.Sprintf("S.b = %t", b), 4, func(v vector.Value) bool { return v.B == b }),
		cmpAtom(fmt.Sprintf("S.i >= %d AND S.i < %d", lo, lo+3), 1, func(v vector.Value) bool { return v.I >= lo && v.I < lo+3 }),
		cmpAtom(fmt.Sprintf("S.f > %g AND S.f <= 2.5", f), 2, func(v vector.Value) bool { return v.F > f && v.F <= 2.5 }),
		cmpAtom(fmt.Sprintf("%d < S.i", lo), 1, func(v vector.Value) bool { return lo < v.I }),
		cmpAtom(fmt.Sprintf("S.i <> %d", i2), 1, func(v vector.Value) bool { return v.I != i2 }),
		cmpAtom(fmt.Sprintf("S.i + 1 = %d", i1+1), 1, func(v vector.Value) bool { return v.I == i1 }),
		cmpAtom(fmt.Sprintf("(S.i = %d OR S.i = %d)", i1, i2), 1, func(v vector.Value) bool { return v.I == i1 || v.I == i2 }),
	}
}

// diffQuery generates one member: a conjunction of one to three atoms in
// one of three plan shapes — filter over the whole stream, filter over an
// inner column projection (scan-frame indexes differ from stream
// indexes), or a predicate above a computing Project (not routable; the
// group must still see every row).
func diffQuery(rng *rand.Rand) (text string, ref func(t []vector.Value) bool) {
	if rng.Intn(8) == 0 {
		c := rng.Int63n(8)
		return fmt.Sprintf("SELECT S.seq FROM [SELECT seq, i + 1 AS j FROM D] AS S WHERE S.j = %d", c+1),
			func(t []vector.Value) bool { return !t[1].Null && t[1].I == c }
	}
	atoms := diffAtoms(rng)
	rng.Shuffle(len(atoms), func(a, b int) { atoms[a], atoms[b] = atoms[b], atoms[a] })
	atoms = atoms[:1+rng.Intn(3)]
	var conj []string
	for _, a := range atoms {
		conj = append(conj, a.sql)
	}
	from := "[SELECT * FROM D]"
	if rng.Intn(3) == 0 {
		from = "[SELECT b, s, seq, f, i FROM D]"
	}
	return fmt.Sprintf("SELECT S.seq FROM %s AS S WHERE %s", from, strings.Join(conj, " AND ")),
		func(t []vector.Value) bool {
			for _, a := range atoms {
				if a.ref(t) != triTrue { // Kleene AND selects only when every conjunct is true
					return false
				}
			}
			return true
		}
}

// diffRow draws one tuple; every non-key column is NULL one time in ten.
func diffRow(rng *rand.Rand, seq int64) []vector.Value {
	row := []vector.Value{
		vector.NewInt(seq),
		vector.NewInt(rng.Int63n(8)),
		vector.NewFloat([]float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0}[rng.Intn(6)]),
		vector.NewString([]string{"a", "b", "c", ""}[rng.Intn(4)]),
		vector.NewBool(rng.Intn(2) == 0),
	}
	for c := 1; c < len(row); c++ {
		if rng.Intn(10) == 0 {
			row[c] = vector.NullValue(row[c].Typ)
		}
	}
	return row
}

// TestRoutedRowRoutingDifferential is the row-routing oracle: seeded
// random members over NULL-bearing columns, batches from one row to more
// than two chunks, members attaching and dropping between batches, and a
// lagging shared reader retaining a prefix of the primary. Every member's
// delivered multiset must equal the same query under strategy = separate
// and under the tuple-at-a-time baseline engine.
func TestRoutedRowRoutingDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { routedDifferential(t, seed) })
	}
}

func routedDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx, "CREATE BASKET D (seq INT, i INT, f DOUBLE, s VARCHAR, b BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	// The laggard never reaches its threshold, so it pins the primary's
	// head and the scan reads at a growing offset into the snapshot.
	if _, err := register(e, "laggard", "strategy = shared, min_tuples = 1073741824", "SELECT S.seq FROM [SELECT * FROM D] AS S"); err != nil {
		t.Fatal(err)
	}
	base := baseline.New()

	type member struct {
		name, text     string
		routed, flat   *Query
		got, sep, want []int64
	}
	var live []*member
	next := 0
	attach := func() {
		text, ref := diffQuery(rng)
		m := &member{name: fmt.Sprintf("m%d", next), text: text}
		next++
		var err error
		if m.routed, err = register(e, m.name, "strategy = routed, depth = 1024", text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if m.routed.Strategy != RoutedScan {
			t.Fatalf("%s fell back to %s", text, m.routed.Strategy)
		}
		if m.flat, err = register(e, m.name+"_flat", "strategy = separate, depth = 1024", text); err != nil {
			t.Fatal(err)
		}
		err = base.Subscribe("D", &baseline.Query{
			Name: m.name,
			Ops:  []baseline.Operator{&baseline.Filter{Pred: ref}},
			Sink: func(tu baseline.Tuple) { m.want = append(m.want, tu[0].I) },
		})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, m)
	}
	seqs := func(q *Query) (out []int64) {
		for _, rel := range collect(q) {
			out = append(out, rel.Cols[0].Ints()...)
		}
		return out
	}
	gather := func() {
		e.Drain()
		for _, m := range live {
			m.got = append(m.got, seqs(m.routed)...)
			m.sep = append(m.sep, seqs(m.flat)...)
		}
	}
	check := func(m *member) {
		t.Helper()
		for _, s := range [][]int64{m.got, m.sep, m.want} {
			slices.Sort(s)
		}
		if !slices.Equal(m.got, m.want) || !slices.Equal(m.sep, m.want) {
			t.Errorf("%s %q: routed delivered %d rows, separate %d, baseline %d (first routed/baseline difference at %d)",
				m.name, m.text, len(m.got), len(m.sep), len(m.want), firstDiff(m.got, m.want))
		}
	}
	detach := func(k int) {
		m := live[k]
		check(m)
		for _, name := range []string{m.name, m.name + "_flat"} {
			if err := dropQuery(e, name); err != nil {
				t.Fatal(err)
			}
		}
		// The baseline has no unsubscribe; the member's reference simply
		// stops being read.
		live = slices.Delete(live, k, k+1)
	}

	for i := 0; i < 12; i++ {
		attach()
	}
	var seq int64
	ingest := func(n int) {
		rows := make([][]vector.Value, n)
		for r := range rows {
			rows[r] = diffRow(rng, seq)
			seq++
		}
		if err := e.Ingest(ctx, "D", rows); err != nil {
			t.Fatal(err)
		}
		base.PushBatch("D", rows)
	}
	// 4096 rows seal a chunk: 4097 spans two, 9000 more than two, and the
	// back-to-back pair lands in one firing behind a partly filled tail.
	for _, n := range []int{1, 2, 7, 128, 1000, 4096, 4097, 9000, 3, 300} {
		ingest(n)
		if n == 3 {
			ingest(5000)
		}
		gather()
		if len(live) > 6 {
			detach(rng.Intn(len(live)))
		}
		attach()
		attach()
	}
	for len(live) > 0 {
		detach(0)
	}
}

func firstDiff(a, b []int64) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestRoutedFiringCostIsLinearInRows pins the cost model of row-level
// routing without a stopwatch. With 1000 equality groups and 10 range
// groups, one 16 384-row firing hands the member plans at most
// (range groups + 1) × rows + matches rows — batch-level routing handed
// them ~1000 × rows — and a firing's allocation per tuple does not grow
// with the batch: a fuller basket is cheaper per tuple, not dearer.
func TestRoutedFiringCostIsLinearInRows(t *testing.T) {
	const eqGroups, rangeGroups, keys = 1000, 10, 2000
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	if _, err := e.Exec(ctx, "CREATE BASKET ev (seq INT, k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	var members []*Query
	register := func(where string) {
		q, err := register(e, fmt.Sprintf("q%d", len(members)), "strategy = routed, polling = true",
			"SELECT * FROM [SELECT * FROM ev] AS e WHERE "+where)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, q)
	}
	for i := 0; i < eqGroups; i++ {
		register(fmt.Sprintf("e.k = %d", i))
	}
	for i := 0; i < rangeGroups; i++ {
		register(fmt.Sprintf("e.v >= %d AND e.v < %d", i*100, i*100+50))
	}
	sc := members[0].routed.scan

	rng := rand.New(rand.NewSource(1))
	var seq int64
	// fire ingests one batch and routes it in one firing, returning the
	// rows evaluated, the rows delivered and the bytes the firing allocated.
	fire := func(rows int) (evaluated, matches int64, bytes uint64) {
		cols := []*vector.Vector{
			vector.NewWithCap(vector.Int64, rows), vector.NewWithCap(vector.Int64, rows), vector.NewWithCap(vector.Int64, rows),
		}
		for i := 0; i < rows; i++ {
			cols[0].AppendInt(seq)
			cols[1].AppendInt(rng.Int63n(keys))
			cols[2].AppendInt(rng.Int63n(1000))
			seq++
		}
		if err := e.IngestColumns(ctx, "ev", cols); err != nil {
			t.Fatal(err)
		}
		out := func() (n int64) {
			for _, m := range members {
				n += m.Stats().TuplesOut
			}
			return n
		}
		ev0, out0, batches0 := sc.evaluated.Load(), out(), sc.batches.Load()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e.Drain()
		runtime.ReadMemStats(&m1)
		if got := sc.batches.Load() - batches0; got != 1 {
			t.Fatalf("%d rows took %d firings, want 1", rows, got)
		}
		return sc.evaluated.Load() - ev0, out() - out0, m1.TotalAlloc - m0.TotalAlloc
	}
	perTuple := func(rows, firings int) float64 {
		var total uint64
		for i := 0; i < firings; i++ {
			_, _, b := fire(rows)
			total += b
		}
		return float64(total) / float64(rows*firings)
	}

	fire(128) // folds the pending overlay into the index
	const big = 16384
	evaluated, matches, _ := fire(big)
	if limit := int64(rangeGroups+1)*big + matches; evaluated > limit {
		t.Errorf("a %d-row firing evaluated %d rows, want <= %d (%d matches)", big, evaluated, limit, matches)
	}
	if evaluated < matches {
		t.Errorf("evaluated %d rows but delivered %d", evaluated, matches)
	}
	small, large := perTuple(128, 32), perTuple(big, 2)
	t.Logf("rows evaluated per %d-row firing: %d (%d matches); allocation: %.0f B/tuple at 128 rows, %.0f B/tuple at %d rows",
		big, evaluated, matches, small, large, big)
	if large >= 2*small {
		t.Errorf("allocation per tuple grew from %.0f B at 128 rows to %.0f B at %d rows", small, large, big)
	}
}
