package datacell

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vector"
)

// joinEngine builds an engine with two (optionally partitioned) streams
// l(k, v, et) and r(k, w, et) — et is an explicit event-time column so
// tests control the join clock deterministically.
func joinEngine(t *testing.T, partitions int) *Engine {
	t.Helper()
	e := newCore(Config{})
	ctx := context.Background()
	with := ""
	if partitions > 1 {
		with = fmt.Sprintf(" WITH (partitions = %d, partition_by = k)", partitions)
	}
	for _, ddl := range []string{
		"CREATE BASKET l (k INT, v INT, et INT)" + with,
		"CREATE BASKET r (k INT, w INT, et INT)" + with,
	} {
		if _, err := e.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func ingest3(t *testing.T, e *Engine, stream string, rows [][3]int64) {
	t.Helper()
	vr := make([][]vector.Value, len(rows))
	for i, r := range rows {
		vr[i] = []vector.Value{vector.NewInt(r[0]), vector.NewInt(r[1]), vector.NewInt(r[2])}
	}
	if err := e.Ingest(context.Background(), stream, vr); err != nil {
		t.Fatal(err)
	}
}

// sortedRows renders a relation's rows as sorted strings so result sets
// compare as multisets, independent of emission order.
func queryRows(t *testing.T, e *Engine, query string) []string {
	t.Helper()
	rel, err := e.Exec(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, rel.NumRows())
	for i := 0; i < rel.NumRows(); i++ {
		var parts []string
		for _, v := range rel.Row(i) {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

const symJoinSQL = `SELECT l.k AS k, l.v AS v, r.w AS w
	FROM [SELECT * FROM l] AS l JOIN [SELECT * FROM r] AS r ON l.k = r.k`

// A stream-stream equi-join finds matches across firings exactly once:
// tuples that arrived in earlier firings still pair with later arrivals
// of the other side, and no pair is emitted twice.
func TestStreamStreamJoinCrossFiring(t *testing.T) {
	e := joinEngine(t, 1)
	q, err := register(e, "j", "polling = true", symJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if q.Partitioned() {
		t.Fatal("flat engine unexpectedly partitioned")
	}

	// Firing 1: only the left side has data — no matches yet.
	ingest3(t, e, "l", [][3]int64{{1, 10, 0}})
	e.Drain()
	if got := queryRows(t, e, "SELECT * FROM j_out"); len(got) != 0 {
		t.Fatalf("premature results %v", got)
	}
	// Firing 2: the right arrival meets the buffered left tuple.
	ingest3(t, e, "r", [][3]int64{{1, 100, 0}})
	e.Drain()
	if got := queryRows(t, e, "SELECT * FROM j_out"); len(got) != 1 {
		t.Fatalf("rows = %v, want 1 match", got)
	}
	// Firing 3: a second left tuple with the same key matches the
	// accumulated right tuple — once, without re-emitting the first pair.
	ingest3(t, e, "l", [][3]int64{{1, 11, 0}})
	e.Drain()
	if got := queryRows(t, e, "SELECT * FROM j_out"); len(got) != 2 {
		t.Fatalf("rows = %v, want 2 matches", got)
	}
	// Both sides in one drain, plus a key that never matches.
	ingest3(t, e, "l", [][3]int64{{2, 20, 0}, {9, 90, 0}})
	ingest3(t, e, "r", [][3]int64{{2, 200, 0}})
	e.Drain()
	got := queryRows(t, e, "SELECT * FROM j_out")
	want := []string{"1|10|100", "1|11|100", "2|20|200"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if st := q.Stats(); st.JoinState != 6 {
		t.Errorf("join state = %d, want 6 buffered rows", st.JoinState)
	}
	if q.InputBacklog() != 0 {
		t.Errorf("input backlog = %d, want fully consumed", q.InputBacklog())
	}
}

// Duplicate tuples are distinct join partners: two equal left rows both
// match, yielding two result rows.
func TestStreamStreamJoinDuplicates(t *testing.T) {
	e := joinEngine(t, 1)
	if _, err := register(e, "j", "polling = true", symJoinSQL); err != nil {
		t.Fatal(err)
	}
	ingest3(t, e, "l", [][3]int64{{7, 1, 0}, {7, 1, 0}})
	e.Drain()
	ingest3(t, e, "r", [][3]int64{{7, 2, 0}})
	e.Drain()
	if got := queryRows(t, e, "SELECT * FROM j_out"); len(got) != 2 {
		t.Fatalf("rows = %v, want the duplicate to match twice", got)
	}
}

// WITHIN bounds both the match band and the retained state: only pairs
// within the event-time distance join, expired entries are evicted, and
// probes behind the watermark are counted late.
func TestStreamStreamJoinWithinBoundsState(t *testing.T) {
	e := joinEngine(t, 1)
	q, err := register(e, "j", "polling = true, timestamp = et",
		`SELECT l.k AS k, l.et AS lt, r.et AS rt
		 FROM [SELECT * FROM l] AS l JOIN [SELECT * FROM r] AS r
		 ON l.k = r.k WITHIN 100`)
	if err != nil {
		t.Fatal(err)
	}
	// In-band and out-of-band pairs for one key.
	ingest3(t, e, "l", [][3]int64{{1, 0, 1000}})
	e.Drain()
	ingest3(t, e, "r", [][3]int64{{1, 0, 1050}, {1, 0, 1500}})
	e.Drain()
	got := queryRows(t, e, "SELECT * FROM j_out")
	if fmt.Sprint(got) != fmt.Sprint([]string{"1|1000|1050"}) {
		t.Fatalf("rows = %v, want only the in-band pair", got)
	}

	// Advance event time far past the band on both sides: earlier entries
	// are expired once the batch is large enough to trigger compaction.
	var lRows, rRows [][3]int64
	for i := int64(0); i < 600; i++ {
		lRows = append(lRows, [3]int64{100 + i, 0, 100_000 + i})
		rRows = append(rRows, [3]int64{200 + i, 0, 100_000 + i})
	}
	ingest3(t, e, "l", lRows)
	ingest3(t, e, "r", rRows)
	e.Drain()
	st := q.Stats()
	if st.JoinEvictions == 0 {
		t.Errorf("evictions = 0, want expiry behind the watermark")
	}
	if st.JoinState > 2*1200 {
		t.Errorf("join state = %d, want bounded near the live rows", st.JoinState)
	}
	// A straggler far behind the watermark counts late.
	ingest3(t, e, "l", [][3]int64{{1, 0, 1060}})
	e.Drain()
	if st := q.Stats(); st.Late == 0 {
		t.Errorf("late = 0, want the straggler counted")
	}
}

// Join state stays bounded under WITHIN across a long advancing stream:
// the retained rows track the band, not the stream length.
func TestStreamStreamJoinStateBounded(t *testing.T) {
	e := joinEngine(t, 1)
	q, err := register(e, "j", "polling = true, timestamp = et",
		`SELECT l.k AS k FROM [SELECT * FROM l] AS l JOIN [SELECT * FROM r] AS r
		 ON l.k = r.k WITHIN 64`)
	if err != nil {
		t.Fatal(err)
	}
	peak := int64(0)
	for batch := int64(0); batch < 50; batch++ {
		var lRows, rRows [][3]int64
		for i := int64(0); i < 64; i++ {
			et := batch*64 + i
			lRows = append(lRows, [3]int64{et % 7, 0, et})
			rRows = append(rRows, [3]int64{et % 5, 0, et})
		}
		ingest3(t, e, "l", lRows)
		ingest3(t, e, "r", rRows)
		e.Drain()
		if st := q.Stats().JoinState; st > peak {
			peak = st
		}
	}
	// Live rows per side ≈ 2×band (the [wm−within, max] span plus the
	// amortization slack); 3200 tuples per side must not accumulate.
	if peak > 1200 {
		t.Fatalf("peak join state = %d, want bounded by the WITHIN band", peak)
	}
	if q.JoinEvictions() == 0 {
		t.Fatal("no evictions under an advancing watermark")
	}
}

// Typed error paths for JOIN registration.
func TestJoinTypedErrors(t *testing.T) {
	e := joinEngine(t, 1)
	cases := []struct {
		name string
		sql  string
		want error
	}{
		{"self-join", `SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM l] AS b ON a.k = b.k`, ErrSelfJoin},
		{"unknown-right-stream", `SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM nope] AS b ON a.k = b.k`, ErrUnknownStream},
		{"unknown-join-table", `SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN nope AS b ON a.k = b.k`, ErrUnknownStream},
		{"no-equi-key", `SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k < b.k`, ErrUnsupportedJoin},
		{"windowed-stream-stream", `SELECT a.k AS k FROM [SELECT * FROM l] AS a JOIN [SELECT * FROM r] AS b ON a.k = b.k WINDOW ROWS 4`, ErrUnsupportedJoin},
	}
	for _, c := range cases {
		_, err := register(e, "q", "", c.sql)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// One-time SELECT joining an unknown relation is typed too.
	if _, err := e.Exec(context.Background(), "SELECT * FROM l JOIN nope ON l.k = nope.k"); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("one-time unknown join relation: %v", err)
	}
}

// Stream-table enrichment: the table-side hash is cached across firings
// and re-snapshot when the table changes; stream tuples match the table
// as of their firing.
func TestStreamTableJoinEnrichment(t *testing.T) {
	e := joinEngine(t, 1)
	ctx := context.Background()
	for _, stmt := range []string{
		"CREATE TABLE ref (k INT, name VARCHAR)",
		"INSERT INTO ref VALUES (1, 'one'), (2, 'two')",
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	q, err := register(e, "enrich", "polling = true",
		`SELECT s.k AS k, s.v AS v, ref.name AS name
		 FROM [SELECT * FROM l] AS s JOIN ref ON s.k = ref.k`)
	if err != nil {
		t.Fatal(err)
	}
	ingest3(t, e, "l", [][3]int64{{1, 10, 0}, {3, 30, 0}})
	e.Drain()
	got := queryRows(t, e, "SELECT * FROM enrich_out")
	if fmt.Sprint(got) != fmt.Sprint([]string{"1|10|one"}) {
		t.Fatalf("rows = %v", got)
	}
	if st := q.Stats(); st.JoinState != 2 {
		t.Errorf("join state = %d, want the 2 materialized table rows", st.JoinState)
	}
	// The table changes; later stream tuples see the new row. The earlier
	// non-matching tuple was consumed, not retained — no retro-match.
	if _, err := e.Exec(ctx, "INSERT INTO ref VALUES (3, 'three')"); err != nil {
		t.Fatal(err)
	}
	ingest3(t, e, "l", [][3]int64{{3, 31, 0}})
	e.Drain()
	got = queryRows(t, e, "SELECT * FROM enrich_out")
	want := []string{"1|10|one", "3|31|three"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if st := q.Stats(); st.JoinState != 3 {
		t.Errorf("join state = %d, want 3 after re-snapshot", st.JoinState)
	}
}

// Property: a co-partitioned stream-stream join produces exactly the flat
// pipeline's result set for any lateness-bounded shuffle of both inputs.
func TestPropCoPartitionedJoinMatchesFlat(t *testing.T) {
	const (
		n        = 400
		keys     = 13
		within   = 50
		lateness = 16
	)
	joinSQL := fmt.Sprintf(`SELECT l.k AS k, l.v AS v, r.w AS w
		FROM [SELECT * FROM l] AS l JOIN [SELECT * FROM r] AS r
		ON l.k = r.k WITHIN %d`, within)

	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(valBase int64) [][3]int64 {
			rows := make([][3]int64, n)
			for i := range rows {
				rows[i] = [3]int64{rng.Int63n(keys), valBase + int64(i), int64(i)}
			}
			// Lateness-bounded shuffle of event-time order: shuffling within
			// lateness-sized blocks keeps every tuple less than `lateness`
			// behind the running maximum, so nothing is dropped as late.
			for base := 0; base < len(rows); base += lateness {
				end := base + lateness
				if end > len(rows) {
					end = len(rows)
				}
				rng.Shuffle(end-base, func(a, b int) {
					rows[base+a], rows[base+b] = rows[base+b], rows[base+a]
				})
			}
			return rows
		}
		lRows, rRows := mk(1_000), mk(2_000)

		run := func(partitions int) ([]string, *Query) {
			e := joinEngine(t, partitions)
			q, err := register(e, "j", fmt.Sprintf("polling = true, timestamp = et, lateness = %d", lateness), joinSQL)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave both sides in random chunk sizes, draining between
			// chunks so matches span many firings.
			li, ri := 0, 0
			for li < len(lRows) || ri < len(rRows) {
				if li < len(lRows) {
					hi := li + 1 + rng.Intn(40)
					if hi > len(lRows) {
						hi = len(lRows)
					}
					ingest3(t, e, "l", lRows[li:hi])
					li = hi
				}
				if ri < len(rRows) {
					hi := ri + 1 + rng.Intn(40)
					if hi > len(rRows) {
						hi = len(rRows)
					}
					ingest3(t, e, "r", rRows[ri:hi])
					ri = hi
				}
				e.Drain()
			}
			e.Drain()
			return queryRows(t, e, "SELECT * FROM j_out"), q
		}

		flat, fq := run(1)
		sharded, sq := run(4)
		if fq.Partitioned() || fq.Shards() != 1 {
			t.Fatalf("flat query: partitioned=%v shards=%d", fq.Partitioned(), fq.Shards())
		}
		if !sq.Partitioned() || sq.Shards() != 4 {
			t.Fatalf("sharded query fell back: partitioned=%v shards=%d", sq.Partitioned(), sq.Shards())
		}

		// Brute-force expectation over the full inputs: the sorted batch
		// join with the WITHIN band.
		var want []string
		for _, lr := range lRows {
			for _, rr := range rRows {
				d := lr[2] - rr[2]
				if d < 0 {
					d = -d
				}
				if lr[0] == rr[0] && d <= within {
					want = append(want, fmt.Sprintf("%d|%d|%d", lr[0], lr[1], rr[1]))
				}
			}
		}
		sort.Strings(want)

		if fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Fatalf("seed %d: flat join diverges from batch join (%d vs %d rows)", seed, len(flat), len(want))
		}
		if fmt.Sprint(sharded) != fmt.Sprint(flat) {
			t.Fatalf("seed %d: co-partitioned join diverges from flat (%d vs %d rows)", seed, len(sharded), len(flat))
		}
	}
}

// A broadcast stream-table join over a partitioned stream produces the
// flat pipeline's result set.
func TestBroadcastJoinMatchesFlat(t *testing.T) {
	joinSQL := `SELECT s.k AS k, s.v AS v, ref.name AS name
		FROM [SELECT * FROM l] AS s JOIN ref ON s.k = ref.k`
	run := func(partitions int) ([]string, *Query) {
		e := joinEngine(t, partitions)
		ctx := context.Background()
		for _, stmt := range []string{
			"CREATE TABLE ref (k INT, name VARCHAR)",
			"INSERT INTO ref VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, 'three')",
		} {
			if _, err := e.Exec(ctx, stmt); err != nil {
				t.Fatal(err)
			}
		}
		q, err := register(e, "j", "polling = true", joinSQL)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for b := 0; b < 10; b++ {
			var rows [][3]int64
			for i := 0; i < 50; i++ {
				rows = append(rows, [3]int64{rng.Int63n(6), int64(b*50 + i), 0})
			}
			ingest3(t, e, "l", rows)
			e.Drain()
		}
		return queryRows(t, e, "SELECT * FROM j_out"), q
	}
	flat, _ := run(1)
	sharded, sq := run(4)
	if !sq.Partitioned() || sq.Shards() != 4 {
		t.Fatalf("broadcast join fell back: partitioned=%v shards=%d", sq.Partitioned(), sq.Shards())
	}
	if len(flat) == 0 || fmt.Sprint(flat) != fmt.Sprint(sharded) {
		t.Fatalf("broadcast result diverges: flat %d rows, sharded %d rows", len(flat), len(sharded))
	}
}

// Stream-table join under concurrent table growth and subscription drain
// (exercised with -race): every emitted row carries a name consistent
// with its key, and the engine drains cleanly.
func TestStreamTableJoinConcurrent(t *testing.T) {
	e := joinEngine(t, 4)
	ctx := context.Background()
	if _, err := e.Exec(ctx, "CREATE TABLE ref (k INT, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if _, err := e.Exec(ctx, fmt.Sprintf("INSERT INTO ref VALUES (%d, 'n%d')", k, k)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := register(e, "j", "backpressure = drop_oldest, depth = 16",
		`SELECT s.k AS k, ref.name AS name
		 FROM [SELECT * FROM l] AS s JOIN ref ON s.k = ref.k`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // subscription drain: every row's name must match its key
		defer wg.Done()
		rctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-stop
			cancel()
		}()
		for {
			rel, err := q.Subscription().Recv(rctx)
			if err != nil {
				return
			}
			for i := 0; i < rel.NumRows(); i++ {
				row := rel.Row(i)
				if want := fmt.Sprintf("n%d", row[0].I); row[1].S != want {
					t.Errorf("row %v: name mismatch", row)
					return
				}
			}
		}
	}()
	var inserts sync.WaitGroup
	inserts.Add(1)
	go func() { // concurrent table growth
		defer inserts.Done()
		for k := 8; k < 64; k++ {
			if _, err := e.Exec(ctx, fmt.Sprintf("INSERT INTO ref VALUES (%d, 'n%d')", k, k)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	for b := 0; b < 40; b++ {
		var rows [][3]int64
		for i := 0; i < 32; i++ {
			rows = append(rows, [3]int64{int64((b*32 + i) % 64), int64(i), 0})
		}
		ingest3(t, e, "l", rows)
	}
	inserts.Wait()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// DROP CONTINUOUS QUERY tears a co-partitioned join down completely:
// scheduler transitions, shard output baskets, shard readers on BOTH
// streams (so the streams can be dropped afterwards).
func TestJoinTeardown(t *testing.T) {
	e := joinEngine(t, 4)
	ctx := context.Background()
	q, err := register(e, "j", "polling = true", symJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Partitioned() {
		t.Fatal("expected co-partitioned execution")
	}
	ingest3(t, e, "l", [][3]int64{{1, 1, 0}})
	ingest3(t, e, "r", [][3]int64{{1, 2, 0}})
	e.Drain()
	before := len(e.Scheduler().Transitions())
	if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY j"); err != nil {
		t.Fatal(err)
	}
	// 4 shard factories + merge + (no emitter: polling) gone.
	if after := len(e.Scheduler().Transitions()); before-after != 5 {
		t.Errorf("transitions %d -> %d, want 5 removed", before, after)
	}
	if _, err := e.Exec(ctx, "SELECT * FROM j_out"); err == nil {
		t.Error("j_out still queryable after drop")
	}
	for _, stream := range []string{"l", "r"} {
		if _, err := e.Exec(ctx, "DROP BASKET "+stream); err != nil {
			t.Errorf("drop %s after query teardown: %v", stream, err)
		}
	}
	// Ingest into dropped streams fails; nothing leaked keeps routing.
	if err := e.Ingest(ctx, "l", nil); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("ingest into dropped stream: %v", err)
	}
}

// A one-time SELECT honors the WITHIN band too (batch join path): only
// pairs whose arrival timestamps are close enough match.
func TestOneTimeJoinWithin(t *testing.T) {
	clk := metrics.NewManualClock(0)
	e := newCore(Config{Clock: clk})
	ctx := context.Background()
	for _, ddl := range []string{
		"CREATE BASKET a (x INT)",
		"CREATE BASKET b (y INT)",
	} {
		if _, err := e.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	ingest := func(stream string, v int64) {
		if err := e.Ingest(ctx, stream, [][]vector.Value{{vector.NewInt(v)}}); err != nil {
			t.Fatal(err)
		}
	}
	ingest("a", 1) // t = 0
	ingest("a", 3) // t = 0
	clk.Advance(10)
	ingest("b", 1) // t = 10: within 50 of a's tuples
	clk.Advance(100)
	ingest("b", 3) // t = 110: key matches, but outside the band
	got := queryRows(t, e, "SELECT a.x AS x, b.y AS y FROM a JOIN b ON a.x = b.y WITHIN 50")
	if fmt.Sprint(got) != fmt.Sprint([]string{"1|1"}) {
		t.Fatalf("rows = %v, want only the in-band pair", got)
	}
}

// SHOW QUERIES surfaces join_state and join_evictions.
func TestShowQueriesJoinColumns(t *testing.T) {
	e := joinEngine(t, 1)
	if _, err := register(e, "j", "polling = true", symJoinSQL); err != nil {
		t.Fatal(err)
	}
	ingest3(t, e, "l", [][3]int64{{1, 1, 0}})
	e.Drain()
	rel, err := e.Exec(context.Background(), "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	jsIdx := rel.Schema.Index("join_state")
	jeIdx := rel.Schema.Index("join_evictions")
	if jsIdx < 0 || jeIdx < 0 {
		t.Fatalf("SHOW QUERIES missing join columns: %v", rel.Schema)
	}
	if rel.NumRows() != 1 || rel.Row(0)[jsIdx].I != 1 {
		t.Errorf("join_state = %v, want 1 buffered row", rel.Row(0)[jsIdx])
	}
}

// TestJoinKeyTypesAgree: an equi-join compares its keys by SQL equality
// whatever their column types, so INT = DOUBLE and TIMESTAMP = INT keys
// match on equal values, and every join path agrees: one-time, unwindowed
// stream×table, windowed stream×table (count- and time-based windows,
// which re-evaluate the batch join over the window content), and
// stream×stream over two partitioned streams (co-partitioned only when
// the router hashes both key types alike).
func TestJoinKeyTypesAgree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		lt, rt string
		shards int // the stream×stream join's lanes
	}{
		{"INT", "DOUBLE", 1},
		{"TIMESTAMP", "INT", 4},
	} {
		t.Run(tc.lt+"="+tc.rt, func(t *testing.T) {
			clk := metrics.NewManualClock(1_000_000)
			e := newCore(Config{Clock: clk})
			keys := make([]string, 16)
			for i := range keys {
				keys[i] = fmt.Sprintf("(%d)", i%4)
			}
			const windowed = "SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x JOIN ref ON x.k = ref.id WINDOW "
			for _, stmt := range []string{
				"CREATE TABLE t2 (k " + tc.lt + ")",
				"CREATE TABLE ref (id " + tc.rt + ")",
				"INSERT INTO t2 VALUES (1)",
				"INSERT INTO ref VALUES (1)",
				"CREATE BASKET s (k " + tc.lt + ", v INT)",
				"CREATE BASKET a (k " + tc.lt + ") WITH (partitions = 4, partition_by = k)",
				"CREATE BASKET b (k " + tc.rt + ") WITH (partitions = 4, partition_by = k)",
				"CREATE CONTINUOUS QUERY flat WITH (polling = true) AS SELECT * FROM [SELECT * FROM s] AS x JOIN ref ON x.k = ref.id",
				"CREATE CONTINUOUS QUERY byrows WITH (polling = true) AS " + windowed + "ROWS 2 SLIDE 2",
				"CREATE CONTINUOUS QUERY bytime WITH (polling = true) AS " + windowed + "RANGE 1000 SLIDE 1000",
				"CREATE CONTINUOUS QUERY ab WITH (polling = true) AS SELECT x.k AS k FROM [SELECT * FROM a] AS x JOIN [SELECT * FROM b] AS y ON x.k = y.k",
				"INSERT INTO s VALUES (1, 0), (1, 1)",
				"INSERT INTO a VALUES " + strings.Join(keys, ", "),
				"INSERT INTO b VALUES " + strings.Join(keys, ", "),
			} {
				if _, err := e.Exec(ctx, stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			clk.Set(1_001_000)
			e.Drain()
			if got := queryRows(t, e, "SELECT * FROM t2 JOIN ref ON t2.k = ref.id"); len(got) != 1 {
				t.Errorf("one-time join: %d rows, want 1", len(got))
			}
			if got := queryRows(t, e, "SELECT * FROM flat_out"); len(got) != 2 {
				t.Errorf("stream×table join: %d rows, want 2", len(got))
			}
			for _, q := range []string{"byrows", "bytime"} {
				if got := queryRows(t, e, "SELECT n FROM "+q+"_out"); fmt.Sprint(got) != "[2]" {
					t.Errorf("windowed join (%s): n = %v, want [2]", q, got)
				}
			}
			q, err := e.Query("ab")
			if err != nil {
				t.Fatal(err)
			}
			if q.Shards() != tc.shards {
				t.Errorf("stream×stream join runs on %d lanes, want %d", q.Shards(), tc.shards)
			}
			if got := queryRows(t, e, "SELECT * FROM ab_out"); len(got) != 64 {
				t.Errorf("stream×stream join: %d rows, want 64", len(got))
			}
		})
	}
}
