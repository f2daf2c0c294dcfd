package datacell

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Crash-injection property test: run a durable engine, "kill" it by
// copying its data directory without Stop, truncate the copied WAL at a
// randomized byte offset, reopen, and check the recovery contract
// against a reference run over the surviving input prefix:
//
//   - Open always succeeds (a torn tail is truncated, never fatal);
//   - every group-committed ingest at or below the cut survives
//     (Ingested equals the surviving prefix length);
//   - post-recovery emissions are a contiguous suffix of the reference
//     emission sequence for that prefix (no reordering, no fabricated
//     rows, no duplicates past the logged delivery frontier);
//   - rows acked but never delivered before the crash re-emit (no loss).
//
// The pre-crash run drains after each of the first deliveredRows
// ingests (so the delivery frontier advances row by row) and then acks
// the remaining rows without draining (so the tail is durable but
// undelivered — the no-loss half of the contract).

const (
	crashTotalRows     = 120
	crashDeliveredRows = 80
	crashCheckpointRow = 60
)

func crashRow(i int) [2]int64 {
	return [2]int64{(int64(i) * 37) % 100, int64(i) * 10}
}

// crashArrangements are the execution arrangements the property is
// checked under. The filter query qf keeps its text and changes only its
// input arrangement; extra DDL adds bystanders on the same stream. unread
// is how many rows just before the checkpoint are drained but whose
// deliveries nobody receives until after it. slowReader receives qf's
// results on a goroutine of its own while the rows are delivered.
var crashArrangements = []struct {
	name       string
	filterWith string
	extra      []string
	unread     int
	slowReader bool
}{
	{name: "separate"},
	// A routed member: the scan frontier and the member's admission point
	// are OIDs of the crashed process and must come back from the image.
	{name: "routed", filterWith: " WITH (strategy = routed)"},
	// A shared reader that never fires retains the whole stream in the
	// primary basket, so the restored scan must resume past a non-empty
	// prefix it had already routed instead of re-delivering it.
	{name: "routed with a lagging shared reader", filterWith: " WITH (strategy = routed)", extra: []string{
		`CREATE CONTINUOUS QUERY lag WITH (strategy = shared, min_tuples = 100000) AS
			SELECT * FROM [SELECT * FROM S] AS x`,
	}},
	// A routed member whose blocking subscriber holds one batch and stops
	// reading for the last rows before the checkpoint: the first result is
	// handed off into the channel, the next ones overflow into qf_out, so
	// the image is cut with delivered rows in the channel and undelivered
	// ones in the place.
	{name: "routed with a full depth-1 subscription", filterWith: " WITH (strategy = routed, depth = 1)", unread: 4},
	// A flat query whose blocking depth-1 subscriber pauses between
	// receives: results wait in qf_out, and the receive that makes room
	// delivers them, concurrently with the drains and the checkpoint.
	{name: "flat with a slow depth-1 subscriber", filterWith: " WITH (depth = 1)", slowReader: true},
}

const crashFilterSQL = ` AS SELECT * FROM [SELECT * FROM S] AS x WHERE x.a > 40`

const crashWindowDDL = `CREATE CONTINUOUS QUERY qw WITH (timestamp = et) AS
	SELECT COUNT(*) AS c FROM [SELECT * FROM S] AS x WINDOW RANGE 100 SLIDE 100`

// refFilter is the filter query's emission sequence for an input
// prefix, computed directly from the predicate.
func refFilter(p int) []string {
	var out []string
	for i := 0; i < p; i++ {
		r := crashRow(i)
		if r[0] > 40 {
			out = append(out, fmt.Sprintf("%d|%d", r[0], r[1]))
		}
	}
	return out
}

// flattenRows renders emitted rows for comparison, skipping the
// implicit arrival-timestamp column (re-stamped on replay, so it is
// deliberately outside the recovery contract).
func flattenRows(rels []*storage.Relation) []string {
	var out []string
	for _, rel := range rels {
		skip := -1
		if rel.Schema != nil {
			skip = rel.Schema.Index(catalog.TimestampColumn)
		}
		for r := 0; r < rel.NumRows(); r++ {
			s := ""
			for c, col := range rel.Cols {
				if c == skip {
					continue
				}
				if s != "" {
					s += "|"
				}
				s += fmt.Sprint(col.Get(r))
			}
			out = append(out, s)
		}
	}
	return out
}

// isSuffix reports whether got equals the trailing len(got) entries of ref.
func isSuffix(ref, got []string) bool {
	if len(got) > len(ref) {
		return false
	}
	off := len(ref) - len(got)
	for i, v := range got {
		if ref[off+i] != v {
			return false
		}
	}
	return true
}

// refWindow runs the windowed query on a volatile engine over the first
// p input rows and returns its emission sequence. Memoized per prefix.
func refWindow(t *testing.T, memo map[int][]string, p int) []string {
	if got, ok := memo[p]; ok {
		return got
	}
	t.Helper()
	e, _ := newCrashEngine(t, "", 0)
	for i := 0; i < p; i++ {
		ingestPairs(t, e, "S", [][2]int64{crashRow(i)})
	}
	e.Drain()
	q, err := e.Query("qw")
	if err != nil {
		t.Fatal(err)
	}
	got := flattenRows(collect(q))
	memo[p] = got
	return got
}

// newCrashEngine builds an engine with the crash-test schema and the
// queries of one arrangement; durable when dir is non-empty, volatile
// otherwise.
func newCrashEngine(t *testing.T, dir string, arrangement int) (*Engine, error) {
	t.Helper()
	ctx := context.Background()
	var e *Engine
	if dir == "" {
		e = newCore(Config{})
	} else {
		var err error
		e, err = Open(ctx, Config{DataDir: dir, CheckpointInterval: -1})
		if err != nil {
			return nil, err
		}
	}
	arr := crashArrangements[arrangement]
	ddl := append([]string{
		"CREATE BASKET S (a INT, et INT)",
		"CREATE CONTINUOUS QUERY qf" + arr.filterWith + crashFilterSQL,
		crashWindowDDL,
	}, arr.extra...)
	for _, stmt := range ddl {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	return e, nil
}

func TestCrashRecoveryProperty(t *testing.T) {
	for i, arr := range crashArrangements {
		t.Run(arr.name, func(t *testing.T) { crashRecoveryProperty(t, i) })
	}
	for _, arr := range shardedCrashArrangements {
		t.Run("sharded "+arr.name, func(t *testing.T) { shardedCrashProperty(t, arr.query) })
	}
}

func crashRecoveryProperty(t *testing.T, arrangement int) {
	ctx := context.Background()
	base := t.TempDir()

	// Pre-crash run: deliver the first crashDeliveredRows row by row,
	// checkpoint mid-stream, then ack the tail without delivering.
	e, err := newCrashEngine(t, base, arrangement)
	if err != nil {
		t.Fatal(err)
	}
	live, err := e.Query("qf")
	if err != nil {
		t.Fatal(err)
	}
	// deliveredAt[i] is qf's delivery frontier once ingest i has drained:
	// the WAL logs it after ingest i's record.
	deliveredAt := make([]int, crashTotalRows)
	unread := crashArrangements[arrangement].unread
	stopReader := func() {}
	if crashArrangements[arrangement].slowReader {
		stopReader = slowReader(live.sub)
	}
	for i := 0; i < crashTotalRows; i++ {
		ingestPairs(t, e, "S", [][2]int64{crashRow(i)})
		if i < crashDeliveredRows {
			e.Drain()
			if i < crashCheckpointRow-unread || i >= crashCheckpointRow {
				collectAll(e, t)
			}
			if i == crashDeliveredRows-1 {
				// Everything derived so far leaves qf_out before the
				// undelivered tail is acked.
				stopReader()
				collectAll(e, t)
			}
		}
		deliveredAt[i] = int(live.sub.em.Delivered())
		if i == crashCheckpointRow-1 {
			if unread > 0 {
				handoff, overflow := live.sub.em.Dispositions()
				if len(live.sub.em.C()) != 1 || live.Out().Len() == 0 || handoff == 0 || overflow == 0 {
					t.Fatalf("cut with %d batches in the channel, %d rows in qf_out, handoff=%d overflow=%d: want all non-zero",
						len(live.sub.em.C()), live.Out().Len(), handoff, overflow)
				}
			}
			if err := e.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Copy the live directory — the crash image. The source engine is
	// deliberately never stopped (stopping would write a clean
	// checkpoint and defeat the test); it is torn down with the process.
	image := t.TempDir()
	copyTree(t, base, image)

	last, size := lastWALSegment(t, image)

	rng := rand.New(rand.NewSource(7))
	cuts := []int64{size, 16} // full log, then nearly everything gone
	for i := 0; i < 10; i++ {
		cuts = append(cuts, rng.Int63n(size+1))
	}

	wmemo := map[int][]string{}
	for ti, cut := range cuts {
		trial := t.TempDir()
		copyTree(t, image, trial)
		tl := filepath.Join(trial, "wal", filepath.Base(last))
		if err := os.Truncate(tl, cut); err != nil {
			t.Fatal(err)
		}

		e2, err := Open(ctx, Config{DataDir: trial, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("trial %d (cut %d): recovery Open failed: %v", ti, cut, err)
		}
		p := int(e2.Ingested("S"))
		if p > crashTotalRows {
			t.Fatalf("trial %d: recovered %d rows, more than ever ingested", ti, p)
		}
		if cut == size && p != crashTotalRows {
			t.Fatalf("full-log trial lost acked rows: recovered %d of %d", ti, crashTotalRows)
		}
		// A cut past ingest crashCheckpointRow+1 necessarily preserved
		// every record the mid-run checkpoint covers (at p == 60 the
		// checkpoint may also cover trailing frontier records the cut
		// dropped, making it legitimately ineligible).
		st := e2.Stats()
		if p > crashCheckpointRow && st.CheckpointSeq == 0 {
			t.Errorf("trial %d: cut %d kept %d rows but dropped the checkpoint", ti, cut, p)
		}
		e2.Drain()

		qf, errF := e2.Query("qf")
		if errF != nil {
			// The cut fell before the query's DDL record; nothing more
			// to check beyond a successful Open.
			if p > 0 {
				t.Errorf("trial %d: %d rows recovered but query missing: %v", ti, p, errF)
			}
			stopQuiet(e2)
			continue
		}
		qw, err := e2.Query("qw")
		if err != nil {
			t.Fatalf("trial %d: windowed query missing: %v", ti, err)
		}
		// A depth-1 subscription takes what recovery re-emits one batch
		// per receive.
		var relsF, relsW []*storage.Relation
		for {
			f, w := collect(qf), collect(qw)
			if len(f)+len(w) == 0 {
				break
			}
			relsF, relsW = append(relsF, f...), append(relsW, w...)
			e2.Drain()
		}
		gotF := flattenRows(relsF)
		refF := refFilter(p)
		if !isSuffix(refF, gotF) {
			t.Fatalf("trial %d (p=%d): filter emissions %v not a suffix of reference %v", ti, p, gotF, refF)
		}
		delivered := len(refFilter(min(p, crashDeliveredRows)))
		if missing := len(refF) - len(gotF); missing > delivered {
			t.Errorf("trial %d (p=%d): %d filter rows missing but only %d were ever delivered (lost acked tuples)",
				ti, p, missing, delivered)
		}
		if p > crashDeliveredRows {
			// Every frontier record predates the undelivered tail, so
			// suppression is exact: emissions resume precisely past the
			// pre-crash frontier.
			if want := len(refF) - len(refFilter(crashDeliveredRows)); len(gotF) != want {
				t.Errorf("trial %d (p=%d): filter emitted %d rows, want exactly %d", ti, p, len(gotF), want)
			}
		} else if p > 0 {
			// Only the final drain's frontier record can be lost to the
			// cut: what was delivered by ingest p-2 must not repeat.
			covered := 0
			if p >= 2 {
				covered = deliveredAt[p-2]
			}
			if dup := len(gotF) - (len(refF) - covered); dup > 0 {
				t.Errorf("trial %d (p=%d): %d duplicate filter emissions past the surviving frontier", ti, p, dup)
			}
		}

		gotW := flattenRows(relsW)
		refW := refWindow(t, wmemo, p)
		if !isSuffix(refW, gotW) {
			t.Fatalf("trial %d (p=%d): windowed emissions %v not a suffix of reference %v", ti, p, gotW, refW)
		}
		if p > crashDeliveredRows {
			if want := len(refW) - len(refWindow(t, wmemo, crashDeliveredRows)); len(gotW) != want {
				t.Errorf("trial %d (p=%d): windowed emitted %d rows, want exactly %d", ti, p, len(gotW), want)
			}
		}
		stopQuiet(e2)
	}
	stopQuiet(e)
}

// shardedCrashArrangements run query q on a 2-shard stream: two lane
// factories, their sink baskets q_out#0 and q_out#1, and a merge. Lanes
// interleave differently on every run, so the property is stated on
// multisets against a flat (unpartitioned) reference run.
var shardedCrashArrangements = []struct{ name, query string }{
	{"filter", `CREATE CONTINUOUS QUERY q AS SELECT * FROM [SELECT * FROM S] AS x WHERE x.a > 4`},
	// Groups on the partition key live in one shard each: lanes emit
	// final window results, the merge concatenates.
	{"aligned window", `CREATE CONTINUOUS QUERY q WITH (timestamp = et) AS
		SELECT x.a, COUNT(*) AS c, SUM(x.et) AS s FROM [SELECT * FROM S] AS x GROUP BY x.a WINDOW RANGE 100 SLIDE 100`},
	// No grouping key: lanes emit per-window partials tagged with the
	// window end, the merge buffers them per window until every lane's
	// frontier has passed and re-aggregates.
	{"re-aggregated window", `CREATE CONTINUOUS QUERY q WITH (timestamp = et) AS
		SELECT COUNT(*) AS c, SUM(x.a) AS sa FROM [SELECT * FROM S] AS x WINDOW RANGE 100 SLIDE 100`},
}

const (
	shardedDeliveredRows  = 60 // ingested and delivered batch by batch
	shardedCheckpointRows = 90 // then one batch left part-way through the pipeline, and the cut
	shardedTotalRows      = 120
	shardedBatch          = 5
)

func shardedCrashRow(i int) [2]int64 { return [2]int64{(int64(i) * 37) % 10, int64(i) * 10} }

func shardedRows(lo, hi int) [][2]int64 {
	var rows [][2]int64
	for i := lo; i < hi; i++ {
		rows = append(rows, shardedCrashRow(i))
	}
	return rows
}

// settle runs the net to quiescence: Drain consults every transition's
// Ready, so lanes whose frontier the stream-wide watermark moved fire
// too, and the merges that unblocks.
func settle(t *testing.T, e *Engine) {
	t.Helper()
	e.Drain()
}

// shardedCrashProperty: crash a durable engine whose newest checkpoint was
// cut with tuples resting in every kind of place a sharded query owns —
// lane sinks, the merge's window buckets, q_out — and whose WAL tail holds
// acked, unprocessed rows. Recovered from any torn tail that keeps the
// checkpoint, what was delivered before the crash plus what is delivered
// after it is exactly the flat reference's output for the surviving input:
// nothing lost, nothing twice. (A cut that loses the checkpoint falls back
// to replaying the log from the start; suppression by delivered count then
// meets a different lane interleaving, so only no-fabrication and
// no-loss-beyond-delivered are checked there.)
func shardedCrashProperty(t *testing.T, query string) {
	ctx := context.Background()
	exec := func(e *Engine, stmt string) *storage.Relation {
		t.Helper()
		rel, err := e.Exec(ctx, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return rel
	}
	base := t.TempDir()
	e, err := Open(ctx, Config{DataDir: base, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer stopQuiet(e)
	exec(e, "CREATE BASKET S (a INT, et INT) WITH (partitions = 2, partition_by = a)")
	exec(e, query)
	q, err := e.Query("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.sinks) != 2 {
		t.Fatalf("query runs %d lanes with sinks, want 2", len(q.sinks))
	}

	var pre []string
	for lo := 0; lo < shardedDeliveredRows; lo += shardedBatch {
		ingestPairs(t, e, "S", shardedRows(lo, lo+shardedBatch))
		settle(t, e)
		pre = append(pre, flattenRows(collect(q))...)
	}
	if len(pre) == 0 {
		t.Fatal("nothing delivered before the checkpoint; the frontier is not exercised")
	}

	// One batch taken part-way by hand: lane 0 fires and the merge takes
	// its emission (delivering it, or into window buckets that wait for
	// lane 1's frontier), then lane 1 fires and its emission rests in its
	// sink. What the merge delivered is in the channel: delivered before
	// the crash.
	ingestPairs(t, e, "S", shardedRows(shardedDeliveredRows, shardedCheckpointRows))
	for _, fire := range []func() error{q.facts[0].Fire, q.merge.Fire, q.facts[1].Fire} {
		if err := fire(); err != nil {
			t.Fatal(err)
		}
	}
	pre = append(pre, flattenRows(collect(q))...)
	inSinks := 0
	show := exec(e, "SHOW BASKETS")
	for r := 0; r < show.NumRows(); r++ {
		if name := show.Cols[0].Get(r).S; name == "q_out#0" || name == "q_out#1" {
			inSinks += int(show.Cols[2].Get(r).I)
		}
	}
	if inSinks == 0 {
		t.Fatalf("lane sinks are empty at the cut; their image is not exercised:\n%s", show)
	}
	if q.topo.merge == mergeWindowed && q.MergeLag() <= inSinks {
		t.Fatalf("merge lag %d with %d tuples in lane sinks: no window is buffered at the cut", q.MergeLag(), inSinks)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	_, covered := lastWALSegment(t, base) // the log the checkpoint covers ends here
	for lo := shardedCheckpointRows; lo < shardedTotalRows; lo += shardedBatch {
		ingestPairs(t, e, "S", shardedRows(lo, lo+shardedBatch)) // acked, never processed
	}

	image := t.TempDir()
	copyTree(t, base, image)
	last, size := lastWALSegment(t, image)
	if size <= covered {
		t.Fatalf("WAL did not grow past the checkpoint (%d <= %d bytes): segment rolled?", size, covered)
	}
	rng := rand.New(rand.NewSource(11))
	cuts := []int64{size, 16} // full log, then nearly everything gone
	for i := 0; i < 6; i++ {
		cuts = append(cuts, rng.Int63n(covered), covered+rng.Int63n(size-covered+1))
	}

	refMemo := map[int][]string{}
	ref := func(p int) []string {
		if got, ok := refMemo[p]; ok {
			return got
		}
		flat := newCore(Config{})
		defer stopQuiet(flat)
		exec(flat, "CREATE BASKET S (a INT, et INT)")
		exec(flat, query)
		if p > 0 {
			ingestPairs(t, flat, "S", shardedRows(0, p))
		}
		settle(t, flat)
		fq, err := flat.Query("q")
		if err != nil {
			t.Fatal(err)
		}
		got := flattenRows(collect(fq))
		sort.Strings(got)
		refMemo[p] = got
		return got
	}

	keptCheckpoint := 0
	for ti, cut := range cuts {
		trial := t.TempDir()
		copyTree(t, image, trial)
		if err := os.Truncate(filepath.Join(trial, "wal", filepath.Base(last)), cut); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(ctx, Config{DataDir: trial, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("trial %d (cut %d): recovery Open failed: %v", ti, cut, err)
		}
		p := int(e2.Ingested("S"))
		if cut == size && p != shardedTotalRows {
			t.Fatalf("full-log trial lost acked rows: recovered %d of %d", p, shardedTotalRows)
		}
		settle(t, e2)
		q2, err := e2.Query("q")
		if err != nil {
			if p > 0 {
				t.Errorf("trial %d: %d rows recovered but query missing: %v", ti, p, err)
			}
			stopQuiet(e2)
			continue
		}
		post := flattenRows(collect(q2))
		if lag := q2.MergeLag(); lag != 0 && q2.topo.merge != mergeWindowed {
			t.Errorf("trial %d (p=%d): merge lag %d after settling", ti, p, lag)
		}
		want := ref(p)
		if p >= shardedCheckpointRows {
			keptCheckpoint++
			if e2.Stats().CheckpointSeq == 0 {
				t.Errorf("trial %d: cut %d kept %d rows but dropped the checkpoint", ti, cut, p)
			}
			got := append(slices.Clone(pre), post...)
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("trial %d (p=%d): delivered before the crash + after recovery != flat reference\n got %v\nwant %v", ti, p, got, want)
			}
		} else {
			sort.Strings(post)
			left := slices.Clone(want)
			for _, row := range post {
				i, found := slices.BinarySearch(left, row)
				if !found {
					t.Errorf("trial %d (p=%d): emitted %q, which the reference run does not have (left) among %v", ti, p, row, want)
					break
				}
				left = slices.Delete(left, i, i+1)
			}
			if len(left) > len(pre) {
				t.Errorf("trial %d (p=%d): %d reference rows never emitted but only %d were delivered before the crash", ti, p, len(left), len(pre))
			}
		}
		stopQuiet(e2)
	}
	if keptCheckpoint < 2 {
		t.Fatalf("only %d trials recovered from the checkpoint; the cuts do not exercise it", keptCheckpoint)
	}
}

// lastWALSegment returns the newest WAL segment of a data directory and
// its size: the file a crash tears.
func lastWALSegment(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v %v", dir, segs, err)
	}
	sort.Strings(segs)
	info, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	return segs[len(segs)-1], info.Size()
}

// collectAll drains every registered query's subscription so the
// delivery frontier advances (the rows themselves are discarded).
func collectAll(e *Engine, t *testing.T) {
	t.Helper()
	for _, q := range e.Queries() {
		collect(q)
	}
}

func stopQuiet(e *Engine) { _ = e.Stop(context.Background()) }

// slowReader receives from sub until stopped, pausing up to 300 µs after
// each batch, so receives — and the deliveries they make room for —
// overlap whatever the caller runs meanwhile.
func slowReader(sub *Subscription) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(11))
		for {
			if _, err := sub.Recv(ctx); err != nil {
				return
			}
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}()
	return func() { cancel(); <-done }
}
