package datacell

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vector"
)

// explainDeliver returns the deliver row of EXPLAIN ANALYZE <query>: its
// detail and its firings column.
func explainDeliver(t *testing.T, e *Engine, query string) (detail string, firings int64) {
	t.Helper()
	rel, err := e.Exec(context.Background(), "EXPLAIN ANALYZE "+query)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rel.NumRows(); i++ {
		if rel.Cols[0].Get(i).S == "deliver" {
			return rel.Cols[3].Get(i).S, rel.Cols[6].Get(i).I
		}
	}
	t.Fatalf("EXPLAIN ANALYZE %s has no deliver row", query)
	return "", 0
}

// TestRoutedHandoffOrderUnderBackpressure: three routed members, two of
// them in one plan group, on a running engine. One subscriber has a
// depth-1 blocking channel and reads slowly, so its rows alternate
// between the hand-off and the overflow path (<q>_out, then the
// emitter); every row must still arrive exactly once and in derivation
// order, for every member.
func TestRoutedHandoffOrderUnderBackpressure(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (seq INT, k INT)"); err != nil {
		t.Fatal(err)
	}
	const grouped = "SELECT * FROM [SELECT * FROM s] AS x WHERE x.k > 2"
	members := []struct {
		name, opts, sql string
		pass            func(k int64) bool
		slow            bool
	}{
		{"slow", "strategy = routed, depth = 1", grouped, func(k int64) bool { return k > 2 }, true},
		{"sibling", "strategy = routed", grouped, func(k int64) bool { return k > 2 }, false},
		{"other", "strategy = routed, depth = 1", "SELECT * FROM [SELECT * FROM s] AS x WHERE x.k < 5", func(k int64) bool { return k < 5 }, false},
	}
	qs := make([]*Query, len(members))
	for i, m := range members {
		if _, err := e.Exec(ctx, fmt.Sprintf("CREATE CONTINUOUS QUERY %s WITH (%s) AS %s", m.name, m.opts, m.sql)); err != nil {
			t.Fatal(err)
		}
		q, err := e.Query(m.name)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	if qs[0].routed.group != qs[1].routed.group || qs[0].routed.group == qs[2].routed.group {
		t.Fatal("slow and sibling must share a plan group, other must not")
	}

	rng := rand.New(rand.NewSource(3))
	var batches [][][]vector.Value
	want := make([][]int64, len(members))
	for seq := int64(0); seq < 3000; {
		var rows [][]vector.Value
		for n := 1 + rng.Intn(8); n > 0; n-- {
			k := rng.Int63n(8)
			rows = append(rows, []vector.Value{vector.NewInt(seq), vector.NewInt(k)})
			for i, m := range members {
				if m.pass(k) {
					want[i] = append(want[i], seq)
				}
			}
			seq++
		}
		batches = append(batches, rows)
	}

	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	// The slow subscriber starts reading only once the first batches were
	// routed one firing each: the first result it gets is handed off into
	// its channel, the ones after it overflow into slow_out.
	const paced = 50
	release := make(chan struct{})
	got := make([][]int64, len(members))
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			if members[i].slow {
				<-release
			}
			for len(got[i]) < len(want[i]) {
				rel, err := qs[i].Subscription().Recv(rctx)
				if err != nil {
					t.Errorf("%s: after %d of %d rows: %v", members[i].name, len(got[i]), len(want[i]), err)
					return
				}
				for r := 0; r < rel.NumRows(); r++ {
					got[i] = append(got[i], rel.Cols[0].Get(r).I)
				}
				if members[i].slow {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(i)
	}
	scan, ingested := qs[0].routed.scan, int64(0)
	for b, rows := range batches {
		if err := e.Ingest(ctx, "s", rows); err != nil {
			t.Fatal(err)
		}
		ingested += int64(len(rows))
		if b < paced {
			waitFor(t, "the scan to route the batch", func() bool { return scan.rows.Load() == ingested })
		} else if b == paced {
			close(release)
		}
	}
	wg.Wait()
	for i, m := range members {
		if !slices.Equal(got[i], want[i]) {
			at := firstDiff(got[i], want[i])
			t.Errorf("%s: %d rows, want %d; first difference at %d", m.name, len(got[i]), len(want[i]), at)
		}
	}
	handoff, overflow := qs[0].sub.em.Dispositions()
	if handoff == 0 || overflow == 0 {
		t.Errorf("slow subscriber: handoff=%d overflow=%d batches, want both paths taken", handoff, overflow)
	}
}

// TestRoutedSteadyStateHandsOff: 100 drop-oldest routed members nobody
// reads (fanout_1k's shape) and a probe drained promptly. Past warm-up no
// member's results overflow into <q>_out — the scan hands every result
// to the channel — and what each member delivered is exactly what it
// produced.
func TestRoutedSteadyStateHandsOff(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	const members = 100
	for i := 0; i < members; i++ {
		if _, err := e.Exec(ctx, fmt.Sprintf(`CREATE CONTINUOUS QUERY m%d WITH (strategy = routed, backpressure = drop_oldest, depth = 4) AS
			SELECT * FROM [SELECT * FROM s] AS x WHERE x.k = %d`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY probe WITH (strategy = routed) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.k < 50`); err != nil {
		t.Fatal(err)
	}
	probe, err := e.Query("probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	var received, sent int64
	var mu sync.Mutex
	go func() {
		for {
			rel, err := probe.Subscription().Recv(ctx)
			if err != nil {
				return
			}
			mu.Lock()
			received += int64(rel.NumRows())
			mu.Unlock()
		}
	}()
	rng := rand.New(rand.NewSource(5))
	burst := func(batches int) {
		t.Helper()
		for b := 0; b < batches; b++ {
			rows := make([][]vector.Value, 128)
			for i := range rows {
				k := rng.Int63n(2 * members)
				rows[i] = []vector.Value{vector.NewInt(k), vector.NewInt(int64(b))}
				if k < 50 {
					sent++
				}
			}
			if err := e.Ingest(ctx, "s", rows); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "the probe to receive every row", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return received == sent
		})
	}
	overflows := func(i int) int64 {
		q, err := e.Query(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		_, overflow := q.sub.em.Dispositions()
		return overflow
	}

	burst(20) // warm-up
	before := make([]int64, members)
	for i := range before {
		before[i] = overflows(i)
	}
	burst(50)
	for i := 0; i < members; i++ {
		name := fmt.Sprintf("m%d", i)
		q, _ := e.Query(name)
		if d := overflows(i) - before[i]; d != 0 {
			t.Errorf("%s: %d batches overflowed past warm-up, want 0", name, d)
		}
		if out, del := q.Stats().TuplesOut, q.sub.em.Delivered(); out != del {
			t.Errorf("%s: produced %d rows, delivered %d", name, out, del)
		}
		if q.Out().Len() != 0 {
			t.Errorf("%s: %d rows left in %s_out", name, q.Out().Len(), name)
		}
	}
	m7, _ := e.Query("m7")
	detail, fired := explainDeliver(t, e, "m7")
	if fired != m7.sub.em.Batches() || !strings.Contains(detail, "handoff=") || strings.Contains(detail, "handoff=0 ") {
		t.Errorf("EXPLAIN ANALYZE m7 deliver row: detail %q firings %d", detail, fired)
	}
}

// TestRoutedClosedSubscriptionAccumulates: after Subscription.Close a
// routed member's results go back to accumulating in <q>_out, where a
// one-time SELECT reads them.
func TestRoutedClosedSubscriptionAccumulates(t *testing.T) {
	e, _ := newEngine(t)
	q, err := register(e, "rc", "strategy = routed", "SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > 0")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 10}})
	e.Drain()
	if n := countRows(collect(q)); n != 1 || q.Out().Len() != 0 {
		t.Fatalf("subscribed: %d rows delivered, %d left in rc_out; want 1 handed off", n, q.Out().Len())
	}
	if err := q.Subscription().Close(); err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{2, 20}, {0, 0}, {3, 30}})
	e.Drain()
	rel, err := e.Exec(context.Background(), "SELECT * FROM rc_out")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < rel.NumRows(); i++ {
		got = append(got, rel.Cols[0].Get(i).I)
	}
	if !slices.Equal(got, []int64{2, 3}) {
		t.Errorf("SELECT * FROM rc_out after Close: a = %v, want [2 3]", got)
	}
}

// TestRoutedChainedReaderSeesEveryRow: while a chained query reads a
// subscribed routed member's <q>_out, the scan must not hand the member's
// rows past it. Priorities order the deterministic pass scan → chained
// factory → upstream emitter, so the chained query takes every row;
// dropping it turns the hand-off back on.
func TestRoutedChainedReaderSeesEveryRow(t *testing.T) {
	e, _ := newEngine(t)
	// The first routed member fixes the scan's priority above both others.
	if _, err := register(e, "anchor", "strategy = routed, polling = true, priority = 20", "SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = -1"); err != nil {
		t.Fatal(err)
	}
	up, err := register(e, "up", "strategy = routed", "SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > 0")
	if err != nil {
		t.Fatal(err)
	}
	down, err := register(e, "down", "priority = 10", "SELECT * FROM [SELECT * FROM up_out] AS x")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for a := int64(1); a <= 5; a++ {
		ingestPairs(t, e, "R", [][2]int64{{a, a * 10}, {0, 0}})
		e.Drain()
		want = append(want, a)
	}
	var got []int64
	for _, rel := range collect(down) {
		for i := 0; i < rel.NumRows(); i++ {
			got = append(got, rel.Cols[0].Get(i).I)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("chained query saw a = %v, want %v", got, want)
	}
	if handoff, _ := up.sub.em.Dispositions(); handoff != 0 {
		t.Errorf("%d batches handed past the chained reader", handoff)
	}
	if err := dropQuery(e, "down"); err != nil {
		t.Fatal(err)
	}
	collect(up)
	ingestPairs(t, e, "R", [][2]int64{{6, 60}})
	e.Drain()
	if n := countRows(collect(up)); n != 1 {
		t.Errorf("after the chained reader left: %d rows delivered, want 1", n)
	}
	if handoff, _ := up.sub.em.Dispositions(); handoff != 1 {
		t.Errorf("after the chained reader left: %d hand-offs, want 1", handoff)
	}
}
