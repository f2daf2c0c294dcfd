package datacell

// Engine-level coverage of the execution core: dropping a query while
// producers hammer its stream must fence cleanly (no fire after
// teardown, no race), and SHOW SCHEDULER must expose the targeted
// wake-up counters.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vector"
)

// TestDropQueryUnderConcurrentIngest is the Remove-fence regression:
// several producers ingest a partitioned stream while one of two
// continuous queries is dropped mid-flight. The drop must not race with
// in-flight firings (the scheduler fences Remove until the transition's
// current firing finishes) and the surviving query must keep producing.
func TestDropQueryUnderConcurrentIngest(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 4})
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT, v INT) WITH (partitions = 4, partition_by = k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY doomed WITH (depth = 4096) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY survivor WITH (depth = 4096) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}

	const producers, batches, batchSize = 4, 40, 10
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := make([][]vector.Value, batchSize)
				for i := range rows {
					rows[i] = []vector.Value{
						vector.NewInt(int64(p*131 + b*17 + i)),
						vector.NewInt(int64(b*batchSize + i)),
					}
				}
				if err := e.Ingest(ctx, "s", rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Drop the first query roughly mid-stream, from its own goroutine so
	// the teardown overlaps live ingest and firing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY doomed"); err != nil {
			t.Error(err)
		}
		stop.Store(true)
	}()
	wg.Wait()
	if !stop.Load() {
		t.Fatal("drop goroutine did not run")
	}
	if _, err := e.Query("doomed"); err == nil {
		t.Fatal("doomed still registered after drop")
	}

	// The survivor must still deliver fresh tuples end to end.
	q, err := e.Query("survivor")
	if err != nil {
		t.Fatal(err)
	}
	before := q.Stats().TuplesOut
	if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(1), vector.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for q.Stats().TuplesOut <= before {
		if time.Now().After(deadline) {
			t.Fatalf("survivor stalled at %d tuples out", q.Stats().TuplesOut)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Scheduler().Err(); err != nil {
		t.Fatalf("scheduler error after drop under ingest: %v", err)
	}
}

// TestShowScheduler drives a query, then checks SHOW SCHEDULER exposes
// per-transition fired counters and per-worker clocks.
func TestShowScheduler(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v > 0`); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(1)}, {vector.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	rel, err := e.Exec(ctx, "SHOW SCHEDULER")
	if err != nil {
		t.Fatal(err)
	}
	wantCols := []string{"kind", "name", "priority", "fired", "claim_misses", "coalesced_wakes", "busy_ns", "idle_ns"}
	for i, w := range wantCols {
		if rel.Schema.Columns[i].Name != w {
			t.Fatalf("SHOW SCHEDULER column %d = %s, want %s", i, rel.Schema.Columns[i].Name, w)
		}
	}
	fired := map[string]int64{}
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		if row[0].S == "transition" {
			fired[row[1].S] = row[3].I
		}
	}
	if n, ok := fired["q"]; !ok || n < 1 {
		t.Fatalf("transition q fired = %d, %v (rows: %v)", n, ok, fired)
	}
}

// waitFor polls cond until it holds; the conditions here are all state
// another goroutine is driving towards.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockedEmitterResumesWhenConsumerDrains: a blocking subscription
// whose channel is full leaves the next results in q_out. Nothing polls
// for room — the rows wait there through several ticks — and with no
// further ingest they still arrive once the consumer receives: the Recv
// that makes room delivers them before it returns.
func TestBlockedEmitterResumesWhenConsumerDrains(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	q := blockingDepth1(t, e)
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	sub := q.Subscription()

	if err := e.Ingest(ctx, "s", intRows(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first batch to fill the channel", func() bool { return len(sub.em.C()) == 1 })
	if err := e.Ingest(ctx, "s", intRows(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second result to wait in q_out", func() bool { return q.Out().Len() == 1 })
	time.Sleep(30 * time.Millisecond) // six ticks
	if q.Out().Len() != 1 || len(sub.em.C()) != 1 {
		t.Fatalf("with nobody receiving, q_out holds %d rows and the channel %d batches; want 1 and 1", q.Out().Len(), len(sub.em.C()))
	}
	recvInOrder(t, sub, 1, 2)
}

// TestBlockedDeliveryResumesWithoutStart is the same hand-over on an
// engine that is never started: no tick, no pool, Drain fires the
// factory, and the receive alone moves the waiting row into the channel.
func TestBlockedDeliveryResumesWithoutStart(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{})
	q := blockingDepth1(t, e)
	sub := q.Subscription()
	for v := int64(1); v <= 2; v++ {
		if err := e.Ingest(ctx, "s", intRows(v)); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	if len(sub.em.C()) != 1 || q.Out().Len() != 1 {
		t.Fatalf("channel holds %d batches, q_out %d rows; want 1 and 1", len(sub.em.C()), q.Out().Len())
	}
	rel, err := sub.TryRecv()
	if err != nil || rel == nil || rel.Cols[0].Get(0).I != 1 {
		t.Fatalf("first receive: %v, %v", rel, err)
	}
	if len(sub.em.C()) != 1 || q.Out().Len() != 0 {
		t.Fatalf("after the receive the channel holds %d batches, q_out %d rows; want 1 and 0", len(sub.em.C()), q.Out().Len())
	}
	recvInOrder(t, sub, 2)
}

// TestBlockingDeliveryStress: four ingesters, one depth-1 blocking
// consumer pausing at random. Every row arrives exactly once, and each
// ingester's rows in the order it sent them.
func TestBlockingDeliveryStress(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (w INT, seq INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (depth = 1) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.seq >= 0`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	const ingesters, batches, rows = 4, 150, 4
	var wg sync.WaitGroup
	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([][]vector.Value, rows)
				for i := range batch {
					batch[i] = []vector.Value{vector.NewInt(int64(w)), vector.NewInt(int64(b*rows + i))}
				}
				if err := e.Ingest(ctx, "s", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(3))
	next := make([]int64, ingesters)
	for got := 0; got < ingesters*batches*rows; {
		rel, err := q.Subscription().Recv(rctx)
		if err != nil {
			t.Fatalf("received %d of %d rows: %v", got, ingesters*batches*rows, err)
		}
		for i := 0; i < rel.NumRows(); i++ {
			w, seq := rel.Cols[0].Get(i).I, rel.Cols[1].Get(i).I
			if seq != next[w] {
				t.Fatalf("ingester %d: row %d arrived where %d was due", w, seq, next[w])
			}
			next[w]++
		}
		got += rel.NumRows()
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		}
	}
	wg.Wait()
	if rel, _ := q.Subscription().TryRecv(); rel != nil || q.Out().Len() != 0 {
		t.Fatalf("rows beyond the ingested ones: %v, %d in q_out", rel, q.Out().Len())
	}
}

// blockingDepth1 registers q, a flat pass-through query over s(v) with a
// blocking depth-1 subscription.
func blockingDepth1(t *testing.T, e *Engine) *Query {
	t.Helper()
	ctx := context.Background()
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (depth = 1) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// recvInOrder receives one batch per value and checks each carries it.
func recvInOrder(t *testing.T, sub *Subscription, want ...int64) {
	t.Helper()
	for _, v := range want {
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rel, err := sub.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("batch %d never arrived: %v", v, err)
		}
		if got := rel.Cols[0].Get(0).I; got != v {
			t.Fatalf("batch %d carried v = %d", v, got)
		}
	}
}

// TestTimeWindowClosesWithoutArrivals: on a running engine an
// arrival-time window must emit once the clock passes its end even if
// the stream has gone quiet — flat, and sharded behind a windowed merge,
// whose buffered partials become mergeable only when the empty shards'
// frontiers pass the window (no shard appends anything at that moment).
func TestTimeWindowClosesWithoutArrivals(t *testing.T) {
	for _, basketOpts := range []string{"", " WITH (partitions = 4, partition_by = k)"} {
		t.Run("basket"+basketOpts, func(t *testing.T) {
			ctx := context.Background()
			e := newCore(Config{Workers: 2})
			if _, err := e.Exec(ctx, "CREATE BASKET s (k INT, g INT, v INT)"+basketOpts); err != nil {
				t.Fatal(err)
			}
			// 20 ms tumbling windows on the wall clock. Grouping by a column
			// other than the partition key makes the shards emit partials a
			// windowed merge re-aggregates — and an empty window emit nothing.
			if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY w AS
				SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 20000000 SLIDE 20000000`); err != nil {
				t.Fatal(err)
			}
			q, err := e.Query("w")
			if err != nil {
				t.Fatal(err)
			}
			if sharded := basketOpts != ""; sharded != (q.topo.merge == mergeWindowed) {
				t.Fatalf("merge kind = %d on basket%q", q.topo.merge, basketOpts)
			}
			if err := e.Start(ctx); err != nil {
				t.Fatal(err)
			}
			defer e.Stop(ctx)
			rctx, cancel := context.WithTimeout(ctx, 20*time.Second)
			defer cancel()
			// round ingests one batch and then only waits: the windows holding
			// it must close, and their sums arrive, with no further arrival.
			round := func(want int64, rows ...[]vector.Value) {
				t.Helper()
				if err := e.Ingest(ctx, "s", rows); err != nil {
					t.Fatal(err)
				}
				var sum int64
				for sum < want { // the rows may straddle a window boundary
					rel, err := q.Subscription().Recv(rctx)
					if err != nil {
						t.Fatalf("window never closed (sum so far %d of %d): %v", sum, want, err)
					}
					for i := 0; i < rel.NumRows(); i++ {
						sum += rel.Cols[1].Get(i).I
					}
				}
				if sum != want {
					t.Fatalf("windows summed to %d, want %d", sum, want)
				}
			}
			// Every shard sees a tuple first, so every shard's frontier is its
			// own; then one key at a time: the other shards close an empty
			// window, which moves their frontier but appends nothing.
			var all [][]vector.Value
			for k := int64(0); k < 8; k++ {
				all = append(all, []vector.Value{vector.NewInt(k), vector.NewInt(0), vector.NewInt(1)})
			}
			round(8, all...)
			for k := int64(0); k < 4; k++ {
				round(100+k, []vector.Value{vector.NewInt(k), vector.NewInt(0), vector.NewInt(100 + k)})
			}
		})
	}
}

// TestIdleWindowsCostNothing: time reaches the net only as wake-ups. A
// started engine with 2 000 arrival-time windowed queries that have seen
// no tuple fires nothing and arms no timer; one tuple then opens a
// window in every query, which each emits exactly once, within the
// window plus 100 ms, after which nothing is armed again.
func TestIdleWindowsCostNothing(t *testing.T) {
	const queries = 2000
	const window = 50 * time.Millisecond
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscription, queries)
	for i := range subs {
		q, err := register(e, fmt.Sprintf("w%d", i), "",
			fmt.Sprintf("SELECT x.v, COUNT(*) AS n FROM [SELECT * FROM s] AS x GROUP BY x.v WINDOW RANGE %d SLIDE %d", window, window))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = q.Subscription()
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	time.Sleep(50 * time.Millisecond) // Start's seeding wakes settle
	fired := e.Scheduler().Fired()
	time.Sleep(time.Second)
	if now := e.Scheduler().Fired(); now != fired {
		t.Errorf("an idle engine fired %d times in 1 s", now-fired)
	}
	if n := armedTimers(e.Queries()...); n != 0 {
		t.Errorf("an idle engine has %d timers armed", n)
	}

	start := time.Now()
	if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, sub := range subs {
		rel, err := sub.Recv(rctx)
		if err != nil {
			t.Fatalf("w%d: the window never closed: %v", i, err)
		}
		if rel.NumRows() != 1 || rel.Cols[1].Get(0).I != 1 {
			t.Fatalf("w%d emitted %d rows, first %v; want one row of count 1", i, rel.NumRows(), rel.Row(0))
		}
	}
	took := time.Since(start)
	t.Logf("the last of %d windows arrived %v after the tuple", queries, took)
	slack := 100 * time.Millisecond
	if raceEnabled {
		slack *= 8 // 2 000 instrumented firings
	}
	if took > window+slack {
		t.Errorf("the last window arrived %v after the tuple; a window is %v", took, window)
	}
	time.Sleep(2 * window) // time for a stray timer to fire
	for i, sub := range subs {
		if rel, _ := sub.TryRecv(); rel != nil {
			t.Fatalf("w%d emitted again: %d rows", i, rel.NumRows())
		}
	}
	if n := armedTimers(e.Queries()...); n != 0 {
		t.Errorf("%d timers armed with every window closed", n)
	}
}

// TestScalarWindowsCloseOnTimeWhenIdle: an empty window of a scalar
// aggregate yields a row (a count of 0), so after its one tuple the
// query's timer keeps running and every later window arrives on time,
// with no arrival to carry it.
func TestScalarWindowsCloseOnTimeWhenIdle(t *testing.T) {
	const window = 50 * time.Millisecond
	ctx := context.Background()
	e := newCore(Config{Workers: 1})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "w", "", fmt.Sprintf("SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x WINDOW RANGE %d", window))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var counts []int64
	for len(counts) < 4 {
		rel, err := q.Subscription().Recv(rctx)
		if err != nil {
			t.Fatalf("after %v windows: %v", counts, err)
		}
		for i := 0; i < rel.NumRows(); i++ {
			counts = append(counts, rel.Cols[0].Get(i).I)
		}
	}
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 0 || counts[3] != 0 {
		t.Errorf("window counts %v, want 1 then 0s", counts)
	}
	if took := time.Since(start); took > 4*window+time.Second {
		t.Errorf("four windows took %v; a window is %v", took, window)
	}
}

// TestWindowTimerSurvivesClockStepBack: the runtime timer counts
// monotonic time, the engine clock need not. A clock stepped back after
// the timer was armed makes it fire before the window's close on the
// engine clock; it re-arms for what is left rather than waking lanes
// that close nothing and never arming again, so the window still closes
// once the clock has caught up, with no arrival and no Drain.
func TestWindowTimerSurvivesClockStepBack(t *testing.T) {
	const window = 100 * time.Millisecond
	ctx := context.Background()
	clk := metrics.NewManualClock(0)
	e := newCore(Config{Clock: clk, Workers: 1})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "w", "", fmt.Sprintf("SELECT x.v, COUNT(*) AS n FROM [SELECT * FROM s] AS x GROUP BY x.v WINDOW RANGE %d", window))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	e.Drain() // the window [0, 100 ms) is open; the timer is armed for 100 ms
	clk.Set(int64(-5 * window))
	time.Sleep(window + window/2) // the timer fires while the clock reads before the close
	clk.Set(int64(2 * window))
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	rel, err := q.Subscription().Recv(rctx)
	if err != nil {
		t.Fatalf("the window never closed after the clock caught up: %v", err)
	}
	if rel.NumRows() != 1 || rel.Cols[1].Get(0).I != 1 {
		t.Fatalf("the window emitted %d rows; want one row of count 1", rel.NumRows())
	}
}

// TestEventTimeLanesWakeEachOther: on a started engine, a 4-shard
// event-time query whose tuples all hash to one shard still merges its
// windows. The three empty lanes see no input; the watermark group wakes
// them when the stream crosses a window end, and their frontiers move.
func TestEventTimeLanesWakeEachOther(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	for _, stmt := range []string{
		"CREATE BASKET s (k INT, g INT, v INT, et INT) WITH (partitions = 4, partition_by = k)",
		`CREATE CONTINUOUS QUERY w WITH (timestamp = et) AS
			SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM s] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100`,
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	q, err := e.Query("w")
	if err != nil {
		t.Fatal(err)
	}
	if q.topo.merge != mergeWindowed || q.Shards() != 4 {
		t.Fatalf("merge kind %d on %d lanes, want a windowed merge on 4", q.topo.merge, q.Shards())
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	// et 0..349, 50 tuples a batch, all k = 7: windows [0,100), [100,200)
	// and [200,300) close; [300,400) stays open.
	for lo := int64(0); lo < 350; lo += 50 {
		var rows [][]vector.Value
		for et := lo; et < lo+50; et++ {
			rows = append(rows, []vector.Value{vector.NewInt(7), vector.NewInt(et % 2), vector.NewInt(1), vector.NewInt(et)})
		}
		if err := e.Ingest(ctx, "s", rows); err != nil {
			t.Fatal(err)
		}
	}
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var sum int64
	for sum < 300 {
		rel, err := q.Subscription().Recv(rctx)
		if err != nil {
			t.Fatalf("merged windows stalled at sum %d of 300: %v", sum, err)
		}
		for i := 0; i < rel.NumRows(); i++ {
			sum += rel.Cols[1].Get(i).I
		}
	}
	if sum != 300 {
		t.Fatalf("merged windows summed to %d, want 300", sum)
	}
	busy := 0
	for _, b := range e.streams["s"].shards {
		if h, n := b.Bounds(); int(h)+n > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Errorf("%d shards received tuples, want 1", busy)
	}
}
