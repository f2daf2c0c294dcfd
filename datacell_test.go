package datacell_test

import (
	"context"
	"errors"
	"testing"
	"time"

	datacell "repro"
)

// open returns a volatile engine whose lifetime the caller owns.
func open(t *testing.T, cfg datacell.Config) *datacell.Engine {
	t.Helper()
	eng, err := datacell.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	clk := datacell.NewManualClock(0)
	eng, err := datacell.Open(ctx, datacell.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	datacell.MustExec(eng, "CREATE BASKET trades (sym VARCHAR, price DOUBLE)")

	// The SQL-first lifecycle: the continuous query is a DDL statement.
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY spikes AS
		SELECT * FROM [SELECT * FROM trades] AS t WHERE t.price > 100`)
	q, err := eng.Query("spikes")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(ctx, "trades", [][]datacell.Value{
		{datacell.Str("ACME"), datacell.Float(99.5)},
		{datacell.Str("ACME"), datacell.Float(101.5)},
		{datacell.Str("WID"), datacell.Float(250)},
	}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	rel, err := q.Subscription().Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

func TestPublicAPIValueHelpers(t *testing.T) {
	if datacell.Int(5).I != 5 || datacell.Float(2.5).F != 2.5 ||
		datacell.Str("x").S != "x" || !datacell.BoolVal(true).B ||
		datacell.TS(9).I != 9 || !datacell.Null(datacell.Int64).Null {
		t.Error("value helpers broken")
	}
}

func TestPublicAPIWindowModes(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{Clock: datacell.NewManualClock(0)})
	datacell.MustExec(eng, "CREATE BASKET m (v INT)")
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY re WITH (window_mode = reeval) AS
		SELECT SUM(S.v) AS total FROM [SELECT * FROM m] AS S WINDOW ROWS 2 SLIDE 2`)
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY inc WITH (window_mode = incremental) AS
		SELECT SUM(S.v) AS total FROM [SELECT * FROM m] AS S WINDOW ROWS 2 SLIDE 2`)
	_ = eng.Ingest(ctx, "m", [][]datacell.Value{{datacell.Int(3)}, {datacell.Int(4)}})
	eng.Drain()
	for _, name := range []string{"re", "inc"} {
		q, _ := eng.Query(name)
		rel, _ := q.Subscription().TryRecv()
		if rel == nil {
			t.Errorf("%s: no window result", name)
		} else if rel.Cols[0].Get(0).I != 7 {
			t.Errorf("%s: sum = %v", name, rel.Row(0))
		}
	}
}

func TestPublicAPICascade(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{Clock: datacell.NewManualClock(0)})
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	c, err := eng.RegisterCascade("c", "s", []datacell.CascadePredicate{
		{Attr: "v", Lo: datacell.Int(0), Hi: datacell.Int(10)},
		{Attr: "v", Lo: datacell.Int(10), Hi: datacell.Int(20)},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Ingest(ctx, "s", [][]datacell.Value{
		{datacell.Int(5)}, {datacell.Int(15)}, {datacell.Int(25)},
	})
	eng.Drain()
	if c.Processed(0) != 3 || c.Processed(1) != 2 {
		t.Errorf("processed = %d, %d", c.Processed(0), c.Processed(1))
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on bad SQL")
		}
	}()
	eng := open(t, datacell.Config{})
	datacell.MustExec(eng, "NOT SQL AT ALL")
}

// --- typed errors and lifecycle ------------------------------------------

func TestTypedErrorsUnknownAndDuplicate(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{})
	if err := eng.Ingest(ctx, "nosuch", nil); !errors.Is(err, datacell.ErrUnknownStream) {
		t.Errorf("Ingest unknown stream: %v", err)
	}
	if _, err := eng.Query("nosuch"); !errors.Is(err, datacell.ErrUnknownQuery) {
		t.Errorf("Query unknown: %v", err)
	}
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	if _, err := eng.Exec(ctx, "CREATE BASKET s (v INT)"); !errors.Is(err, datacell.ErrDuplicateName) {
		t.Errorf("duplicate basket: %v", err)
	}
	datacell.MustExec(eng, "CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x")
	_, err := eng.Exec(ctx, "CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x")
	if !errors.Is(err, datacell.ErrDuplicateQuery) {
		t.Errorf("duplicate query: %v", err)
	}
	if _, err := eng.Exec(ctx, "SELECT * FROM [SELECT * FROM s] AS x"); !errors.Is(err, datacell.ErrContinuousViaExec) {
		t.Errorf("continuous via Exec: %v", err)
	}
	if _, err := eng.Exec(ctx, "DROP BASKET s"); !errors.Is(err, datacell.ErrStreamInUse) {
		t.Errorf("drop in-use stream: %v", err)
	}
	if _, err := eng.Exec(ctx,
		"CREATE CONTINUOUS QUERY bad WITH (strategy = sideways) AS SELECT * FROM [SELECT * FROM s] AS x",
	); !errors.Is(err, datacell.ErrInvalidOption) {
		t.Errorf("invalid option: %v", err)
	}
}

func TestTypedErrorEngineStoppedAndIdempotentStop(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{})
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	// Stop before Start is safe, and Stop is idempotent.
	if err := eng.Stop(ctx); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
	if err := eng.Stop(ctx); err != nil {
		t.Fatalf("double stop: %v", err)
	}
	if err := eng.Start(ctx); !errors.Is(err, datacell.ErrEngineStopped) {
		t.Errorf("start after stop: %v", err)
	}
	if _, err := eng.Exec(ctx, "SELECT COUNT(*) FROM s"); !errors.Is(err, datacell.ErrEngineStopped) {
		t.Errorf("exec after stop: %v", err)
	}
	if err := eng.Ingest(ctx, "s", [][]datacell.Value{{datacell.Int(1)}}); !errors.Is(err, datacell.ErrEngineStopped) {
		t.Errorf("ingest after stop: %v", err)
	}
}

func TestTypedErrorParsePosition(t *testing.T) {
	eng := open(t, datacell.Config{})
	_, err := eng.Exec(context.Background(), "SELECT *\nFROM WHERE")
	if err == nil {
		t.Fatal("expected parse error")
	}
	var pe *datacell.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("not a ParseError: %v", err)
	}
	if pe.Line != 2 || pe.Col < 1 {
		t.Errorf("position = line %d col %d", pe.Line, pe.Col)
	}
}

func TestContextCancellation(t *testing.T) {
	eng := open(t, datacell.Config{})
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Exec(ctx, "SELECT COUNT(*) FROM s"); !errors.Is(err, context.Canceled) {
		t.Errorf("exec: %v", err)
	}
	if err := eng.Ingest(ctx, "s", [][]datacell.Value{{datacell.Int(1)}}); !errors.Is(err, context.Canceled) {
		t.Errorf("ingest: %v", err)
	}
	// The engine itself is still usable under a live context.
	if _, err := eng.Exec(context.Background(), "SELECT COUNT(*) FROM s"); err != nil {
		t.Errorf("exec after cancelled call: %v", err)
	}
}

func TestOpenBoundsEngineLifetime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := datacell.Open(ctx, datacell.Config{})
	if err != nil {
		t.Fatal(err)
	}
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := eng.Exec(context.Background(), "SELECT COUNT(*) FROM s"); errors.Is(err, datacell.ErrEngineStopped) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine did not stop after context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscriptionRecvAndClose(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{Clock: datacell.NewManualClock(0)})
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	datacell.MustExec(eng, "CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM s] AS x")
	q, _ := eng.Query("q")
	sub := q.Subscription()

	// Recv honors ctx cancellation while waiting.
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := sub.Recv(waitCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("recv on empty: %v", err)
	}

	if err := eng.Ingest(ctx, "s", [][]datacell.Value{{datacell.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if rel, err := sub.Recv(ctx); err != nil || rel.NumRows() != 1 {
		t.Fatalf("recv = %v, %v", rel, err)
	}

	// Close detaches the emitter but leaves the query (and engine) running.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Recv(ctx); !errors.Is(err, datacell.ErrSubscriptionClosed) {
		t.Errorf("recv after close: %v", err)
	}
	if !errors.Is(sub.Err(), datacell.ErrSubscriptionClosed) {
		t.Errorf("err after close: %v", sub.Err())
	}
	if err := eng.Ingest(ctx, "s", [][]datacell.Value{{datacell.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if got := q.Stats().TuplesIn; got != 2 {
		t.Errorf("query stopped processing after subscription close: in = %d", got)
	}
	// Results keep accumulating in the output basket for SQL polling.
	rel := datacell.MustExec(eng, "SELECT COUNT(*) FROM q_out")
	if rel.Cols[0].Get(0).I != 1 {
		t.Errorf("q_out rows = %v", rel.Row(0))
	}
}

func TestBackpressureDropOldest(t *testing.T) {
	ctx := context.Background()
	eng := open(t, datacell.Config{Clock: datacell.NewManualClock(0)})
	datacell.MustExec(eng, "CREATE BASKET s (v INT)")
	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY q
		WITH (depth = 1, backpressure = drop_oldest) AS
		SELECT * FROM [SELECT * FROM s] AS x`)
	q, _ := eng.Query("q")
	for i := 0; i < 5; i++ {
		if err := eng.Ingest(ctx, "s", [][]datacell.Value{{datacell.Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
	sub := q.Subscription()
	if sub.Dropped() == 0 {
		t.Error("expected dropped batches under depth=1 drop_oldest")
	}
	// The surviving batch is the freshest one.
	rel, err := sub.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cols[0].Get(0).I != 4 {
		t.Errorf("freshest = %v", rel.Row(0))
	}
}
