package datacell

import (
	"context"
	"errors"
	"testing"

	"repro/internal/vector"
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

// TestDropInUse: DROP of anything a query or cascade reads is refused
// with ErrStreamInUse — a stream, a table a query joins, a query whose
// output another query reads — and the reader keeps working. Once the
// reader is gone the same DROP succeeds.
func TestDropInUse(t *testing.T) {
	for _, c := range []struct {
		name   string
		setup  []string // the reader (besides the stream R every engine has)
		drop   string
		reader string // the query that must keep firing; "" = the cascade
		unread string // removes the reader; "" = a cascade cannot be removed
	}{
		{
			name:   "stream read by a query",
			setup:  []string{"CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM R] AS S"},
			drop:   "DROP BASKET R",
			reader: "q",
			unread: "DROP CONTINUOUS QUERY q",
		},
		{
			name: "stream read by a cascade",
			drop: "DROP BASKET R",
		},
		{
			name: "table joined by a query",
			setup: []string{
				"CREATE TABLE ref (k INT)",
				"INSERT INTO ref VALUES (1)",
				"CREATE CONTINUOUS QUERY q AS SELECT S.a AS a FROM [SELECT * FROM R] AS S JOIN ref ON S.a = ref.k",
			},
			drop:   "DROP TABLE ref",
			reader: "q",
			unread: "DROP CONTINUOUS QUERY q",
		},
		{
			name: "query output read by a chained query",
			setup: []string{
				"CREATE CONTINUOUS QUERY up WITH (polling = true) AS SELECT * FROM [SELECT * FROM R] AS S",
				"CREATE CONTINUOUS QUERY down AS SELECT * FROM [SELECT * FROM up_out] AS x",
			},
			drop:   "DROP CONTINUOUS QUERY up",
			reader: "down",
			unread: "DROP CONTINUOUS QUERY down",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			e, _ := newEngine(t)
			for _, stmt := range c.setup {
				if _, err := e.Exec(ctx, stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			var casc *Cascade
			if c.reader == "" {
				var err error
				if casc, err = e.RegisterCascade("c", "R", []CascadePredicate{
					{Attr: "a", Lo: vector.NewInt(0), Hi: vector.NewInt(10)},
				}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Exec(ctx, c.drop); !errors.Is(err, ErrStreamInUse) {
				t.Fatalf("%s under a reader: err = %v, want ErrStreamInUse", c.drop, err)
			}
			ingestPairs(t, e, "R", [][2]int64{{1, 1}})
			if passes := e.Drain(); passes >= 1000 {
				t.Fatalf("Drain took %d passes: the reader is stuck", passes)
			}
			if casc != nil {
				if got := casc.Processed(0); got != 1 {
					t.Errorf("cascade processed %d tuples, want 1", got)
				}
				return
			}
			q, err := e.Query(c.reader)
			if err != nil {
				t.Fatal(err)
			}
			if q.Stats().TuplesOut != 1 {
				t.Errorf("%s emitted %d rows, want 1", c.reader, q.Stats().TuplesOut)
			}
			if _, err := e.Exec(ctx, c.unread); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Exec(ctx, c.drop); err != nil {
				t.Errorf("%s without a reader: %v", c.drop, err)
			}
		})
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
