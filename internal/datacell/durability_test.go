package datacell

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sql"
	"repro/internal/vector"
)

// copyTree clones a durability data directory, simulating the on-disk
// state a crash would leave behind: the source engine is still "running"
// (never stopped), so only fsynced bytes are guaranteed present — but a
// same-process copy sees the page cache, which is exactly the acked
// prefix plus whatever unflushed tail the OS would also have kept.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copyTree: %v", err)
	}
}

func openDurable(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(context.Background(), Config{
		DataDir:            dir,
		CheckpointInterval: -1, // checkpoints driven explicitly by the test
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

// A clean Stop writes a final checkpoint covering the whole log, so the
// next Open skips replay entirely and resumes with identical state.
func TestDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	e := openDurable(t, dir)
	if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, "CREATE TABLE dim (k INT, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, "INSERT INTO dim VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "q1", "",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{5, 1}, {15, 2}, {25, 3}})
	e.Drain()
	if got := countRows(collect(q)); got != 2 {
		t.Fatalf("pre-stop emissions = %d rows, want 2", got)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	e2 := openDurable(t, dir)
	defer e2.Stop(ctx)
	st := e2.Stats()
	if !st.Durable || !st.CleanStart || st.RecoveredRecords != 0 {
		t.Fatalf("clean restart stats = %+v, want CleanStart with 0 replayed", st)
	}
	if st.CheckpointSeq == 0 {
		t.Errorf("CheckpointSeq = 0, want the final checkpoint's sequence")
	}
	if got := e2.Ingested("R"); got != 3 {
		t.Errorf("Ingested(R) = %d, want 3", got)
	}
	// Static table contents came back through the checkpoint image.
	rel, err := e2.Exec(ctx, "SELECT v FROM dim WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Cols[0].Get(0).S != "two" {
		t.Errorf("dim after restart = %v", rel)
	}
	q2, err := e2.Query("q1")
	if err != nil {
		t.Fatalf("query not recovered: %v", err)
	}
	// No re-emission of pre-restart results; new tuples flow normally.
	e2.Drain()
	if got := countRows(collect(q2)); got != 0 {
		t.Fatalf("clean restart re-emitted %d rows", got)
	}
	ingestPairs(t, e2, "R", [][2]int64{{50, 4}, {3, 5}})
	e2.Drain()
	if got := countRows(collect(q2)); got != 1 {
		t.Errorf("post-restart emissions = %d rows, want 1", got)
	}
	ci := q2.Checkpoint()
	if !ci.Durable || ci.Delivered != 3 {
		t.Errorf("Checkpoint() = %+v, want durable with 3 delivered", ci)
	}
}

// A dirty restart (no Stop) replays the WAL tail past the newest
// checkpoint: every acknowledged batch survives and already-delivered
// rows are suppressed rather than re-emitted.
func TestDurableDirtyRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	e := openDurable(t, dir)
	if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "q1", "",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{15, 1}, {5, 2}})
	e.Drain()
	if got := countRows(collect(q)); got != 1 {
		t.Fatalf("batch 1 emissions = %d", got)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ingestPairs(t, e, "R", [][2]int64{{25, 3}, {7, 4}})
	e.Drain()
	if got := countRows(collect(q)); got != 1 {
		t.Fatalf("batch 2 emissions = %d", got)
	}
	// Frontier records are appended asynchronously; this committed batch
	// group-commits them to disk along with itself.
	ingestPairs(t, e, "R", [][2]int64{{1, 5}})

	crash := t.TempDir()
	copyTree(t, dir, crash)

	e2 := openDurable(t, crash)
	defer e2.Stop(ctx)
	st := e2.Stats()
	if st.CleanStart {
		t.Fatal("dirty restart reported CleanStart")
	}
	if st.RecoveredRecords == 0 {
		t.Fatal("dirty restart replayed nothing")
	}
	if got := e2.Ingested("R"); got != 5 {
		t.Errorf("Ingested(R) = %d, want 5", got)
	}
	q2, err := e2.Query("q1")
	if err != nil {
		t.Fatalf("query not recovered: %v", err)
	}
	e2.Drain()
	if got := countRows(collect(q2)); got != 0 {
		t.Fatalf("dirty restart re-emitted %d rows", got)
	}
	ingestPairs(t, e2, "R", [][2]int64{{99, 6}})
	e2.Drain()
	if got := countRows(collect(q2)); got != 1 {
		t.Errorf("post-recovery emissions = %d, want 1", got)
	}
	// The original engine keeps running on its own directory; shut it
	// down last so the copied tree was taken while "live".
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
}

// WITH (durable = false) excludes a query's operator state from
// checkpoints: DDL replay re-creates it, but it restarts from empty and
// may re-emit (documented at-least-once for opted-out queries).
func TestDurableOptOutQuery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	e := openDurable(t, dir)
	if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY eph WITH (durable = false) AS
		SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("eph")
	if err != nil {
		t.Fatal(err)
	}
	if q.Checkpoint().Durable {
		t.Error("durable=false query reports Durable")
	}
	ingestPairs(t, e, "R", [][2]int64{{15, 1}})
	e.Drain()
	if got := countRows(collect(q)); got != 1 {
		t.Fatalf("emissions = %d", got)
	}
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	e2 := openDurable(t, dir)
	defer e2.Stop(ctx)
	if _, err := e2.Query("eph"); err != nil {
		t.Fatalf("DDL replay lost the query: %v", err)
	}
}

// TestDurableConcurrentStop: datacelld's context watchers and its main
// all call Stop on SIGTERM, and the process exits when main's returns. So
// whichever call returns first, the shutdown must be complete by then: the
// clean-shutdown image installed, nothing half-written beside it.
func TestDurableConcurrentStop(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := openDurable(t, dir)
	if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := register(e, "q", "", "SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10"); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		ingestPairs(t, e, "R", [][2]int64{{i, i}})
	}
	ckptDir := filepath.Join(dir, ckptSubdir)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Stop(ctx); err != nil {
				t.Errorf("Stop %d: %v", i, err)
			}
			_, payload, err := checkpoint.Latest(ckptDir, math.MaxInt64)
			if err != nil || payload == nil {
				t.Errorf("Stop %d returned with no checkpoint installed: %v", i, err)
				return
			}
			if img, err := decodeImage(payload); err != nil || !img.Clean {
				t.Errorf("Stop %d returned before the clean-shutdown image: clean=%v err=%v", i, img != nil && img.Clean, err)
			}
			if tmp, _ := filepath.Glob(filepath.Join(ckptDir, "*.tmp")); len(tmp) != 0 {
				t.Errorf("Stop %d returned with a checkpoint half-written: %v", i, tmp)
			}
		}()
	}
	wg.Wait()

	// Once the shutdown is complete Stop is a no-op, whatever its context.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := e.Stop(cancelled); err != nil {
		t.Errorf("Stop after shutdown completed = %v, want nil", err)
	}
}

// Engines without a DataDir reject durability operations with typed
// errors and report a zero posture.
func TestNotDurable(t *testing.T) {
	e, _ := newEngine(t)
	if err := e.Checkpoint(context.Background()); !errors.Is(err, ErrNotDurable) {
		t.Errorf("Checkpoint on volatile engine = %v, want ErrNotDurable", err)
	}
	if st := e.Stats(); st.Durable || st.WALSegments != 0 {
		t.Errorf("volatile Stats = %+v", st)
	}
	q, err := register(e, "q", "", "SELECT * FROM [SELECT * FROM R] AS S")
	if err != nil {
		t.Fatal(err)
	}
	if ci := q.Checkpoint(); ci.Durable {
		t.Errorf("volatile query Checkpoint = %+v", ci)
	}
}

// Explicit checkpoints advance the durability posture visible through
// Stats and Query.Checkpoint.
func TestCheckpointAdvancesPosture(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	e := openDurable(t, dir)
	defer e.Stop(ctx)
	if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := register(e, "q1", "",
		"SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10")
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{15, 1}, {25, 2}})
	e.Drain()
	before := e.Stats()
	if before.CheckpointSeq != 0 || !before.LastCheckpoint.IsZero() {
		t.Fatalf("pre-checkpoint stats = %+v", before)
	}
	if q.Checkpoint().ReplayLag == 0 {
		t.Error("ReplayLag = 0 before the first checkpoint with records logged")
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CheckpointSeq == 0 || after.LastCheckpoint.IsZero() {
		t.Fatalf("post-checkpoint stats = %+v", after)
	}
	ci := q.Checkpoint()
	if ci.ReplayLag != 0 {
		t.Errorf("ReplayLag = %d after checkpoint, want 0", ci.ReplayLag)
	}
	if time.Since(ci.LastCheckpoint) > time.Minute {
		t.Errorf("LastCheckpoint = %v", ci.LastCheckpoint)
	}
}

// A query's checkpoint_interval tightens the background cadence from the
// moment it registers: the checkpointer, already waiting out the engine
// default, re-arms, so the first checkpoint lands about one *new*
// interval after the registration — not one default interval after Start.
// Both starting points are covered: the 10 s default and a disabled
// checkpointer, which the option turns on.
func TestCheckpointIntervalAppliesToTheRoundInProgress(t *testing.T) {
	for _, engineEvery := range []time.Duration{0, -1} {
		t.Run(engineEvery.String(), func(t *testing.T) {
			ctx := context.Background()
			e, err := Open(ctx, Config{DataDir: t.TempDir(), CheckpointInterval: engineEvery})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop(ctx)
			if _, err := e.Exec(ctx, "CREATE BASKET R (a INT, b INT)"); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(ctx); err != nil {
				t.Fatal(err)
			}
			const every = 100 * time.Millisecond
			registered := time.Now()
			if _, err := e.Exec(ctx, `CREATE CONTINUOUS QUERY q WITH (checkpoint_interval = '100ms') AS
				SELECT * FROM [SELECT * FROM R] AS S WHERE S.a > 10`); err != nil {
				t.Fatal(err)
			}
			// Far below the 10 s default, far above one interval on a busy host.
			for deadline := registered.Add(3 * time.Second); e.Stats().LastCheckpoint.IsZero(); {
				if time.Now().After(deadline) {
					t.Fatalf("no checkpoint within %v of registering checkpoint_interval = %v", time.Since(registered), every)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if got := e.Stats().LastCheckpoint.Sub(registered); got < every/2 {
				t.Errorf("first checkpoint %v after registration, before the %v interval could have elapsed", got, every)
			}
		})
	}
}

// TestDurableRejectsMalformedBatch: a batch that does not fit its stream's
// schema is refused before it reaches the WAL, the counters or the shard
// router — and a WAL that already holds such a record (an older engine
// logged before checking) still opens.
func TestDurableRejectsMalformedBatch(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := openDurable(t, dir)
	defer stopQuiet(e)
	for _, stmt := range []string{
		"CREATE BASKET s (a INT, b INT)",
		"CREATE BASKET p (k INT, v INT) WITH (partitions = 2, partition_by = k)",
		"CREATE CONTINUOUS QUERY q WITH (polling = true) AS SELECT * FROM [SELECT * FROM p] AS x",
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	ints := func(vs ...int64) *vector.Vector { return vector.FromInts(vs) }
	floats := vector.New(vector.Float64)
	floats.AppendFloat(1.5)

	before := e.Stats().WALLastSeq
	for _, c := range []struct {
		name, stream string
		cols         []*vector.Vector
	}{
		{"one column of two", "s", []*vector.Vector{ints(1)}},
		{"ragged", "s", []*vector.Vector{ints(1, 2), ints(1)}},
		{"wrong type, sharded stream", "p", []*vector.Vector{ints(1), floats}},
	} {
		if err := e.IngestColumns(ctx, c.stream, c.cols); err == nil {
			t.Errorf("%s: IngestColumns accepted the batch", c.name)
		}
		if got := e.Ingested(c.stream); got != 0 {
			t.Errorf("%s: Ingested(%s) = %d, want 0", c.name, c.stream, got)
		}
	}
	if after := e.Stats().WALLastSeq; after != before {
		t.Errorf("rejected batches wrote %d WAL records", after-before)
	}

	// The record an older engine wrote before failing the same batch.
	if err := e.dur.logIngest(ctx, "s", []*vector.Vector{ints(1)}); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestColumns(ctx, "s", []*vector.Vector{ints(1, 2), ints(3, 4)}); err != nil {
		t.Fatal(err)
	}
	crash := t.TempDir()
	copyTree(t, dir, crash)
	e2, err := Open(ctx, Config{DataDir: crash, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("Open over a malformed ingest record: %v", err)
	}
	defer stopQuiet(e2)
	if got := e2.Ingested("s"); got != 2 {
		t.Errorf("recovered Ingested(s) = %d, want 2", got)
	}
}

// TestDurableReplaysEveryWithKey: queries that together use every WITH
// key, spelled as the options table names it first, come back from a
// crash with the configuration they were created with — half from the
// checkpoint's DDL journal, half from the WAL tail.
func TestDurableReplaysEveryWithKey(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	queries := []string{
		`CREATE CONTINUOUS QUERY k1 WITH (strategy = routed, depth = 16, backpressure = drop_oldest) AS
			SELECT S.a AS a FROM [SELECT * FROM R] AS S WHERE S.a > 1`,
		`CREATE CONTINUOUS QUERY k2 WITH (strategy = shared, min_tuples = 4, priority = 3, polling = true, checkpoint_interval = '2s') AS
			SELECT COUNT(*) AS n FROM [SELECT * FROM R] AS S`,
		`CREATE CONTINUOUS QUERY k3 WITH (strategy = separate, shed_limit = 100, durable = false) AS
			SELECT * FROM [SELECT * FROM R] AS S`,
		`CREATE CONTINUOUS QUERY k4 WITH (window_mode = reeval, timestamp = et, lateness = '5ms', polling = true) AS
			SELECT SUM(x.v) AS sv FROM [SELECT * FROM ev] AS x WINDOW RANGE 100 SLIDE 100`,
		`CREATE CONTINUOUS QUERY k5 WITH (window_mode = incremental, priority = -2) AS
			SELECT x.k, SUM(x.v) AS sv FROM [SELECT * FROM ev] AS x GROUP BY x.k WINDOW ROWS 4 SLIDE 4`,
	}
	used := map[string]bool{}
	for _, stmt := range queries {
		st, err := sql.Parse(stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range st.(*sql.CreateContinuousStmt).Options {
			used[o.Key] = true
		}
	}
	for _, w := range withOptions {
		if !used[w.keys[0]] {
			t.Fatalf("no query uses WITH key %q", w.keys[0])
		}
	}

	e := openDurable(t, dir)
	defer stopQuiet(e)
	for i, stmt := range append([]string{
		"CREATE BASKET R (a INT, b INT)",
		"CREATE BASKET ev (k INT, v INT, et INT) WITH (partitions = 2, partition_by = k)",
	}, queries...) {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if i == 3 {
			if err := e.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := t.TempDir()
	copyTree(t, dir, crash)
	e2 := openDurable(t, crash)
	defer stopQuiet(e2)

	// show renders a SHOW relation minus the columns a restart changes and
	// the shared scans, whose names carry a process-wide generation.
	show := func(e *Engine, what string, skip ...string) string {
		rel, err := e.Exec(ctx, "SHOW "+what)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for i := 0; i < rel.NumRows(); i++ {
			var b strings.Builder
			for c, col := range rel.Schema.Columns {
				if !slices.Contains(skip, col.Name) {
					fmt.Fprintf(&b, "%s=%v ", col.Name, rel.Cols[c].Get(i))
				}
			}
			if !strings.Contains(b.String(), "name=~scan:") {
				rows = append(rows, b.String())
			}
		}
		return strings.Join(rows, "\n")
	}
	for _, c := range []struct {
		what string
		skip []string
	}{
		{"QUERIES", []string{"last_checkpoint", "replay_lag"}},
		{"SCHEDULER", []string{"fired", "claim_misses", "coalesced_wakes", "busy_ns", "idle_ns"}},
	} {
		if got, want := show(e2, c.what, c.skip...), show(e, c.what, c.skip...); got != want {
			t.Errorf("SHOW %s after the crash:\n%s\nbefore:\n%s", c.what, got, want)
		}
	}
	describe := func(q *Query) string {
		depth := -1
		if q.Subscription() != nil {
			depth = q.topo.cfg.subDepth
		}
		return fmt.Sprintf("strategy=%s shards=%d depth=%d durable=%t",
			q.Strategy, q.Shards(), depth, q.Checkpoint().Durable)
	}
	for _, q := range e.Queries() {
		q2, err := e2.Query(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := describe(q2), describe(q); got != want {
			t.Errorf("%s after the crash: %s, before: %s", q.Name, got, want)
		}
	}
	if got, want := e2.dur.ckptEvery, e.dur.ckptEvery; got != want || want != 2*time.Second {
		t.Errorf("checkpoint cadence after the crash %v, before %v, want 2s", got, want)
	}
}
