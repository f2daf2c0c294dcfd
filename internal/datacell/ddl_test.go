package datacell

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/vector"
	"repro/internal/window"
)

// TestDDLRoundTrip drives the full SQL-first lifecycle through Exec:
// CREATE CONTINUOUS QUERY registers, SHOW QUERIES reflects it, results
// flow, and DROP CONTINUOUS QUERY frees the output basket and closes the
// subscription.
func TestDDLRoundTrip(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY big
		WITH (strategy = shared, depth = 8) AS
		SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("big")
	if err != nil {
		t.Fatal(err)
	}
	if q.Strategy != SharedBaskets {
		t.Errorf("strategy = %v", q.Strategy)
	}

	// SHOW QUERIES lists it with its SQL.
	rel, err := e.Exec(ctx, "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).S != "big" || rel.Cols[1].Get(0).S != "shared" {
		t.Fatalf("SHOW QUERIES = %v", rel)
	}

	// Results flow through the subscription.
	ingestPairs(t, e, "R", [][2]int64{{5, 1}, {15, 2}})
	e.Drain()
	batch, err := q.Subscription().Recv(ctx)
	if err != nil || batch.NumRows() != 1 {
		t.Fatalf("recv = %v, %v", batch, err)
	}

	// SHOW BASKETS includes the stream and the output basket.
	rel, err = e.Exec(ctx, "SHOW BASKETS")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i := 0; i < rel.NumRows(); i++ {
		names[rel.Cols[0].Get(i).S] = true
	}
	if !names["R"] || !names["big_out"] {
		t.Errorf("SHOW BASKETS = %v", names)
	}

	// DROP frees the basket and closes the subscription.
	sub := q.Subscription()
	if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY big"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("big"); !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("query still registered: %v", err)
	}
	if _, err := e.Exec(ctx, "SELECT * FROM big_out"); err == nil {
		t.Error("output basket should be dropped")
	}
	if _, err := sub.Recv(ctx); !errors.Is(err, ErrSubscriptionClosed) {
		t.Errorf("subscription still open: %v", err)
	}
	// The dropped reader released its watermark: a remaining shared query
	// alone decides when the basket compacts.
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY other WITH (strategy = shared) AS
		SELECT * FROM [SELECT * FROM R] AS S`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY other"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY survivor WITH (strategy = shared) AS
		SELECT * FROM [SELECT * FROM R] AS S`); err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 1}})
	e.Drain()
	primary, _ := e.Stream("R")
	if primary.Len() != 0 {
		t.Errorf("shared basket retains %d tuples behind a dropped reader", primary.Len())
	}
	// The name is free again.
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY big AS
		SELECT * FROM [SELECT * FROM R] AS S`); err != nil {
		t.Errorf("re-create after drop: %v", err)
	}
}

func TestDDLSeparateReplicaFreedOnDrop(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY sep AS
		SELECT * FROM [SELECT * FROM R] AS S`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY sep"); err != nil {
		t.Fatal(err)
	}
	// The private replica is detached: ingest no longer fans out to it.
	e.mu.Lock()
	replicas := len(e.streams["r"].replicas)
	e.mu.Unlock()
	if replicas != 0 {
		t.Errorf("replicas = %d after drop", replicas)
	}
}

// TestFailedRegisterLeavesNoReplica: when registration fails after the
// private replica was published (here: the <name>_out name is taken),
// the replica must be withdrawn from the fan-out — an orphaned replica
// would absorb every future ingest batch with nothing consuming it.
func TestFailedRegisterLeavesNoReplica(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Exec(ctx, "CREATE BASKET q_out (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q AS
		SELECT * FROM [SELECT * FROM R] AS S`); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
	e.mu.Lock()
	replicas := len(e.streams["r"].replicas)
	e.mu.Unlock()
	if replicas != 0 {
		t.Errorf("failed registration leaked %d replica(s)", replicas)
	}
}

func TestDDLShowStreamsAndTables(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Exec(ctx, "CREATE TABLE ref (k INT)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "R", [][]vector.Value{{vector.NewInt(1), vector.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Exec(ctx, "SHOW STREAMS")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).S != "R" || rel.Cols[1].Get(0).I != 1 {
		t.Errorf("SHOW STREAMS = %v", rel)
	}
	rel, err = e.Exec(ctx, "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).S != "ref" {
		t.Errorf("SHOW TABLES = %v", rel)
	}
}

func TestDropStreamReadByCascade(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.RegisterCascade("c", "R", []CascadePredicate{
		{Attr: "a", Lo: vector.NewInt(0), Hi: vector.NewInt(10)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, "DROP BASKET R"); !errors.Is(err, ErrStreamInUse) {
		t.Errorf("drop under cascade: %v", err)
	}
}

func TestSubscriptionsReleasedOnDrop(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	for i := 0; i < 10; i++ {
		if _, err := e.Exec(ctx, "CREATE CONTINUOUS QUERY churn AS SELECT * FROM [SELECT * FROM R] AS S"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec(ctx, "DROP CONTINUOUS QUERY churn"); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	n := len(e.subs)
	e.mu.Unlock()
	if n != 0 {
		t.Errorf("dead subscriptions retained: %d", n)
	}
}

func TestDDLDropUnknownQuery(t *testing.T) {
	e, _ := newEngine(t)
	_, err := e.Exec(context.Background(), "DROP CONTINUOUS QUERY nosuch")
	if !errors.Is(err, ErrUnknownQuery) {
		t.Errorf("err = %v", err)
	}
}

// TestGracefulStopDrainsBacklog verifies Stop's graceful drain: work
// ingested right before Stop is still processed into the output basket.
func TestGracefulStopDrainsBacklog(t *testing.T) {
	ctx := context.Background()
	e, _ := newEngine(t)
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (polling = true) AS
		SELECT * FROM [SELECT * FROM R] AS S`); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var rows [][2]int64
	for i := int64(0); i < 1000; i++ {
		rows = append(rows, [2]int64{i, i})
	}
	ingestPairs(t, e, "R", rows)
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Stats().TuplesIn; got != 1000 {
		t.Errorf("drained %d of 1000 tuples", got)
	}
}

// TestOptionsJournalRoundTrip is the property the DDL journal rests on:
// any configuration the option API can produce is spelled by
// continuousDDL such that parsing the statement and reading its WITH list
// back through the options table yields the same configuration — so a
// replayed journal rebuilds the topology its checkpoint images expect.
func TestOptionsJournalRoundTrip(t *testing.T) {
	const text = "SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		opts := []QueryOption{
			WithStrategy(Strategy(rng.Intn(3))),
			WithMinTuples(rng.Intn(5) - 1),
			WithPriority(rng.Intn(7) - 3),
			WithLoadShedding(rng.Intn(3) * 50),
			WithBackpressure(Backpressure(rng.Intn(2))),
			WithLateness(time.Duration(rng.Intn(3)) * 125 * time.Millisecond),
			WithEventTimeColumn([]string{"", "et", "ts"}[rng.Intn(3)]),
			WithDurable(rng.Intn(2) == 0),
			WithCheckpointInterval(time.Duration(rng.Intn(3)) * time.Second),
		}
		switch rng.Intn(3) {
		case 0:
			opts = append(opts, WithSQLPolling())
		case 1:
			opts = append(opts, WithSubscriptionDepth(1+rng.Intn(200)))
		}
		switch rng.Intn(3) {
		case 0:
			opts = append(opts, WithWindowMode(window.Incremental))
		case 1:
			opts = append(opts, WithWindowMode(window.ReEvaluate))
		}
		// A random subset, so defaults and explicit settings mix.
		rng.Shuffle(len(opts), func(a, b int) { opts[a], opts[b] = opts[b], opts[a] })
		want := newQueryConfig(opts[:rng.Intn(len(opts)+1)])

		ddl := continuousDDL("q", text, want)
		st, err := sql.Parse(ddl)
		if err != nil {
			t.Fatalf("journal spelling does not parse: %s: %v", ddl, err)
		}
		cc, ok := st.(*sql.CreateContinuousStmt)
		if !ok || cc.Name != "q" || cc.SelectText != text {
			t.Fatalf("journal spelling parsed to %#v: %s", st, ddl)
		}
		parsed, err := optionsFromSpecs(cc.Options)
		if err != nil {
			t.Fatalf("journal spelling rejected: %s: %v", ddl, err)
		}
		if got := newQueryConfig(parsed); got != want {
			t.Fatalf("round trip changed the config\n ddl %s\n got %+v\nwant %+v", ddl, got, want)
		}
	}
}
