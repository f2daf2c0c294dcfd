package datacell

// Engine-level coverage of the execution core: dropping a query while
// producers hammer its stream must fence cleanly (no fire after
// teardown, no race), and SHOW SCHEDULER must expose the targeted
// wake-up counters.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// whose channel is full parks its emitter, and the consumer's receive
// appends nothing, so no listener wakes it. With no further ingest the
// retained results must still arrive once the consumer makes room — the
// tick's re-wake set is the only thing that can deliver them.
func TestBlockedEmitterResumesWhenConsumerDrains(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Workers: 2})
	if _, err := e.Exec(ctx, "CREATE BASKET s (v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (depth = 1) AS
		SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 0`); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	sub := q.Subscription()
	emitterMisses := func() int64 {
		for _, tr := range e.Stats().Scheduler.Transitions {
			if tr.Name == "q_emit" {
				return tr.ClaimMisses
			}
		}
		return 0
	}

	if err := e.Ingest(ctx, "s", intRows(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first batch to fill the channel", func() bool { return len(sub.C()) == 1 })
	missed := emitterMisses()
	if err := e.Ingest(ctx, "s", intRows(2)); err != nil {
		t.Fatal(err)
	}
	// The second result's append woke the emitter, which found the channel
	// full: it is parked with a row waiting in q_out.
	waitFor(t, "the emitter to park on the full channel", func() bool {
		return emitterMisses() > missed && q.Out().Len() == 1
	})

	for want := int64(1); want <= 2; want++ {
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		rel, err := sub.Recv(rctx)
		cancel()
		if err != nil {
			t.Fatalf("batch %d never arrived: %v", want, err)
		}
		if got := rel.Cols[0].Get(0).I; got != want {
			t.Fatalf("batch %d carried v = %d", want, got)
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

// TestTickVisitsOnlyTimeDrivenTransitions: the 5 ms tick walks two sets
// that install and drop maintain, never the query table. Queries that
// only appends can make fireable are in neither; a window-bearing
// factory, a windowed merge and a blocking subscription each enrol, and
// leave again when their query drops.
func TestTickVisitsOnlyTimeDrivenTransitions(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{})
	for _, ddl := range []string{
		"CREATE BASKET s (k INT, g INT, v INT)",
		"CREATE BASKET p (k INT, g INT, v INT) WITH (partitions = 4, partition_by = k)",
	} {
		if _, err := e.Exec(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	sets := func() [2]int { return [2]int{len(e.windowed.list()), len(e.rewakes.list())} }
	steps := []struct {
		ddl  string
		want [2]int // window-bearing factories, re-wake handles
	}{
		{"CREATE CONTINUOUS QUERY r1 WITH (strategy = routed, backpressure = drop_oldest) AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.k = 1", [2]int{0, 0}},
		{"CREATE CONTINUOUS QUERY r2 WITH (strategy = routed, polling = true) AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.k = 2", [2]int{0, 0}},
		{"CREATE CONTINUOUS QUERY blk AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.k = 3", [2]int{0, 1}},
		{"CREATE CONTINUOUS QUERY win WITH (polling = true) AS SELECT SUM(x.v) AS sv FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 100", [2]int{1, 1}},
		{"CREATE CONTINUOUS QUERY wm WITH (polling = true) AS SELECT x.g, SUM(x.v) AS sv FROM [SELECT * FROM p] AS x GROUP BY x.g WINDOW RANGE 100 SLIDE 100", [2]int{5, 2}},
		{"DROP CONTINUOUS QUERY wm", [2]int{1, 1}},
		{"DROP CONTINUOUS QUERY win", [2]int{0, 1}},
		{"DROP CONTINUOUS QUERY blk", [2]int{0, 0}},
	}
	for _, st := range steps {
		if _, err := e.Exec(ctx, st.ddl); err != nil {
			t.Fatal(err)
		}
		if got := sets(); got != st.want {
			t.Fatalf("after %q the tick sets hold %v (window factories, re-wakes), want %v", st.ddl, got, st.want)
		}
	}
}
