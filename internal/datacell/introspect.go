package datacell

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Introspection: one row walk per object kind — streams, baskets, queries,
// the scheduler — read by both SHOW and the /metrics collectors
// (newEngineObs), and one column list per SHOW relation.

// col is one column of a SHOW relation: its name, its type, and its value
// in the row built from an R.
type col[R any] struct {
	name string
	typ  vector.Type
	val  func(R) vector.Value
}

func strCol[R any](name string, f func(R) string) col[R] {
	return col[R]{name, vector.String, func(r R) vector.Value { return vector.NewString(f(r)) }}
}

func intCol[R any](name string, f func(R) int64) col[R] {
	return col[R]{name, vector.Int64, func(r R) vector.Value { return vector.NewInt(f(r)) }}
}

// optCol is a BIGINT or TIMESTAMP column, NULL in the rows where f
// reports !ok.
func optCol[R any](name string, typ vector.Type, f func(R) (int64, bool)) col[R] {
	return col[R]{name, typ, func(r R) vector.Value {
		v, ok := f(r)
		if !ok {
			return vector.NullValue(typ)
		}
		return vector.Value{Typ: typ, I: v}
	}}
}

// relation builds a SHOW relation: one row per element of rows.
func relation[R any](cols []col[R], rows []R) *storage.Relation {
	schema := &catalog.Schema{}
	for _, c := range cols {
		schema.Columns = append(schema.Columns, catalog.Column{Name: c.name, Type: c.typ})
	}
	rel := storage.NewRelation(schema)
	for _, r := range rows {
		for i, c := range cols {
			rel.Cols[i].AppendValue(c.val(r))
		}
	}
	return rel
}

// show builds the introspection relation a SHOW statement asks for.
func (e *Engine) show(x *sql.ShowStmt) (*storage.Relation, error) {
	switch x.What {
	case sql.ShowQueries:
		snap := e.dur.snapshot()
		qs := e.Queries()
		slices.SortFunc(qs, func(a, b *Query) int { return strings.Compare(a.Name, b.Name) })
		rows := make([]queryRow, len(qs))
		for i, q := range qs {
			rows[i] = queryRow{q, q.Stats(), snap}
		}
		return relation(queryCols, rows), nil
	case sql.ShowStreams:
		return relation(streamCols, e.streamRows()), nil
	case sql.ShowBaskets:
		return relation(basketCols, e.basketRows()), nil
	case sql.ShowScheduler:
		return relation(schedulerCols, schedulerRows(e.sched.Stats())), nil
	case sql.ShowTables:
		var rows []tableRow
		for _, name := range e.cat.Names() {
			if entry, err := e.cat.Lookup(name); err == nil && entry.Kind == catalog.KindTable {
				rows = append(rows, tableRow{entry.Name, int64(entry.Source.Snapshot().NumRows())})
			}
		}
		return relation(tableCols, rows), nil
	case sql.ShowTrace:
		q, err := e.Query(x.Name)
		if err != nil {
			return nil, err
		}
		return relation(traceCols, q.trace.Snapshot()), nil
	}
	return nil, fmt.Errorf("datacell: unsupported SHOW")
}

// queryRow is one live query as SHOW QUERIES reports it: its summed
// factory counters and the engine's durability cut, each read once.
type queryRow struct {
	q   *Query
	st  factory.Stats
	dur durSnapshot
}

// queryCols: shards is the pipeline fan-out (1 = unpartitioned);
// merge_lag counts shard emissions not yet merged into the output basket;
// late_tuples counts arrivals dropped behind an emitted window boundary or
// a streaming join's watermark; watermark is the event-time frontier
// window content is final up to (NULL unwindowed); join_state and
// join_evictions are the rows a streaming join retains and has expired;
// last_checkpoint is the newest checkpoint (NULL when none) and
// replay_lag the WAL records a crash right now would replay.
var queryCols = []col[queryRow]{
	strCol("name", func(r queryRow) string { return r.q.Name }),
	strCol("strategy", func(r queryRow) string { return r.q.arrangement() }),
	intCol("shards", func(r queryRow) int64 { return int64(r.q.Shards()) }),
	intCol("merge_lag", func(r queryRow) int64 { return int64(r.q.MergeLag()) }),
	intCol("late_tuples", func(r queryRow) int64 { return r.st.Late }),
	optCol("watermark", vector.Timestamp, func(r queryRow) (int64, bool) { return r.q.Watermark() }),
	intCol("join_state", func(r queryRow) int64 { return r.st.JoinState }),
	intCol("join_evictions", func(r queryRow) int64 { return r.st.JoinEvictions }),
	optCol("last_checkpoint", vector.Timestamp, func(r queryRow) (int64, bool) { return r.dur.ckptTime.UnixNano(), !r.dur.ckptTime.IsZero() }),
	intCol("replay_lag", func(r queryRow) int64 { return r.dur.replayLag() }),
	strCol("sql", func(r queryRow) string { return r.q.SQL }),
}

// streamRow is one stream as SHOW STREAMS and the dc_stream_* families
// report it.
type streamRow struct {
	name     string
	ingested int64
	primary  *basket.Basket
}

// streamRows snapshots every stream under e.mu (Ingest writes
// s.ingested there), in name order.
func (e *Engine) streamRows() []streamRow {
	e.mu.Lock()
	rows := make([]streamRow, 0, len(e.streams))
	for _, s := range e.streams {
		rows = append(rows, streamRow{s.name, s.ingested, s.primary})
	}
	e.mu.Unlock()
	slices.SortFunc(rows, func(a, b streamRow) int { return strings.Compare(a.name, b.name) })
	return rows
}

var streamCols = []col[streamRow]{
	strCol("name", func(r streamRow) string { return r.name }),
	intCol("ingested", func(r streamRow) int64 { return r.ingested }),
	intCol("backlog", func(r streamRow) int64 { return int64(r.primary.Len()) }),
}

// basketRow is one basket's physical layout from the chunked storage
// layer, as SHOW BASKETS and the dc_basket_* families report it.
type basketRow struct {
	name             string
	shard            int // -1 for an unsharded basket
	chunks, resident int
	dropped, shed    int64 // cumulative; dropped includes shed
}

// basketRows walks every basket the catalog lists, in name order: stream
// primaries, shard baskets of partitioned streams, query outputs and lane
// sinks, each with one Stats reading.
func (e *Engine) basketRows() []basketRow {
	var rows []basketRow
	for _, name := range e.cat.Names() {
		entry, err := e.cat.Lookup(name)
		if err != nil || entry.Kind != catalog.KindBasket {
			continue
		}
		if b, ok := entry.Source.(*basket.Basket); ok {
			r := basketRow{name: entry.Name, shard: entry.Shard}
			r.chunks, r.resident, r.dropped, r.shed = b.Stats()
			rows = append(rows, r)
		}
	}
	return rows
}

// basketCols: every shard basket and lane sink is its own row, so
// per-shard skew is visible; shard is NULL for an unsharded basket.
var basketCols = []col[basketRow]{
	strCol("name", func(r basketRow) string { return r.name }),
	optCol("shard", vector.Int64, func(r basketRow) (int64, bool) { return int64(r.shard), r.shard >= 0 }),
	intCol("tuples", func(r basketRow) int64 { return int64(r.resident) }),
	intCol("chunks", func(r basketRow) int64 { return int64(r.chunks) }),
	intCol("dropped", func(r basketRow) int64 { return r.dropped }),
	intCol("shed", func(r basketRow) int64 { return r.shed }),
}

// schedRow is one SHOW SCHEDULER row: a transition with its scheduling
// counters, or a worker with its busy/idle accounting. The columns of the
// other kind are NULL.
type schedRow struct {
	kind string // "transition" or "worker"
	name string
	t    scheduler.TransitionStats
	w    scheduler.WorkerStats
}

// schedulerRows lists the transitions of one scheduler snapshot, then its
// workers.
func schedulerRows(st scheduler.Stats) []schedRow {
	rows := make([]schedRow, 0, len(st.Transitions)+len(st.Workers))
	for _, t := range st.Transitions {
		rows = append(rows, schedRow{kind: "transition", name: t.Name, t: t})
	}
	for i, w := range st.Workers {
		rows = append(rows, schedRow{kind: "worker", name: fmt.Sprintf("worker#%d", i), w: w})
	}
	return rows
}

var schedulerCols = []col[schedRow]{
	strCol("kind", func(r schedRow) string { return r.kind }),
	strCol("name", func(r schedRow) string { return r.name }),
	optCol("priority", vector.Int64, func(r schedRow) (int64, bool) { return int64(r.t.Priority), r.kind == "transition" }),
	optCol("fired", vector.Int64, func(r schedRow) (int64, bool) { return r.t.Fired, r.kind == "transition" }),
	optCol("claim_misses", vector.Int64, func(r schedRow) (int64, bool) { return r.t.ClaimMisses, r.kind == "transition" }),
	optCol("coalesced_wakes", vector.Int64, func(r schedRow) (int64, bool) { return r.t.CoalescedWakes, r.kind == "transition" }),
	optCol("busy_ns", vector.Int64, func(r schedRow) (int64, bool) { return r.w.BusyNS, r.kind == "worker" }),
	optCol("idle_ns", vector.Int64, func(r schedRow) (int64, bool) { return r.w.IdleNS, r.kind == "worker" }),
}

type tableRow struct {
	name   string
	tuples int64
}

var tableCols = []col[tableRow]{
	strCol("name", func(r tableRow) string { return r.name }),
	intCol("tuples", func(r tableRow) int64 { return r.tuples }),
}

// traceCols render a query's bounded firing-trace ring (SHOW TRACE): the
// last-K pipeline firings with their stage timings, oldest first.
var traceCols = []col[obs.TraceEvent]{
	intCol("seq", func(ev obs.TraceEvent) int64 { return ev.Seq }),
	strCol("stage", func(ev obs.TraceEvent) string { return ev.Stage }),
	strCol("transition", func(ev obs.TraceEvent) string { return ev.Transition }),
	{"start", vector.Timestamp, func(ev obs.TraceEvent) vector.Value { return vector.NewTimestamp(ev.Start) }},
	intCol("queue_ns", func(ev obs.TraceEvent) int64 { return ev.QueueNS }),
	intCol("fire_ns", func(ev obs.TraceEvent) int64 { return ev.FireNS }),
	intCol("tuples_in", func(ev obs.TraceEvent) int64 { return ev.TuplesIn }),
	intCol("tuples_out", func(ev obs.TraceEvent) int64 { return ev.TuplesOut }),
	strCol("error", func(ev obs.TraceEvent) string { return ev.Err }),
}
