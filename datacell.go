// Package datacell is a stream engine built on top of a relational
// column-store kernel, reproducing "DataCell: Building a Data Stream
// Engine on top of a Relational Database Kernel" (Liarou & Kersten,
// VLDB 2009).
//
// Instead of a from-scratch dataflow system, the DataCell stores arriving
// tuples in baskets (timestamped, main-memory column tables) and
// repeatedly throws standing SQL queries at them with the full machinery
// of a relational kernel: vectorized selections, hash joins, grouped
// aggregation, a rule-based optimizer. Continuous queries are ordinary
// SQL: a SELECT whose FROM clause contains a basket expression — a
// bracketed sub-query whose referenced tuples are consumed from the
// underlying basket — installed with the CREATE CONTINUOUS QUERY DDL.
// A Petri-net scheduler fires factories (compiled continuous queries)
// whenever their input baskets hold tuples, and emitters deliver results
// to subscribers.
//
// # Quick start
//
//	eng, err := datacell.Open(ctx, datacell.Config{})
//	datacell.MustExec(eng, "CREATE BASKET trades (sym VARCHAR, price DOUBLE)")
//	datacell.MustExec(eng, `CREATE CONTINUOUS QUERY spikes AS
//	    SELECT * FROM [SELECT * FROM trades] AS t WHERE t.price > 100`)
//	eng.Start(ctx)
//	defer eng.Stop(ctx)
//	eng.Ingest(ctx, "trades", [][]datacell.Value{{datacell.Str("ACME"), datacell.Float(101.5)}})
//	q, _ := eng.Query("spikes")
//	batch, err := q.Subscription().Recv(ctx)
//
// The whole lifecycle is SQL: CREATE BASKET/TABLE, CREATE/DROP
// CONTINUOUS QUERY, DROP BASKET/TABLE, and SHOW QUERIES/BASKETS/TABLES/
// STREAMS execute through Engine.Exec, the same entry point used by script
// execution and the TCP control listener. Query behavior is tuned per
// query with WITH options in the DDL: strategy, min_tuples, window_mode,
// priority, shed_limit, depth (or subscription_depth), polling,
// backpressure, lateness, timestamp, durable, and checkpoint_interval.
//
// Failures are typed: sentinel errors (ErrUnknownStream,
// ErrDuplicateQuery, ErrEngineStopped, ...) are asserted with errors.Is,
// and SQL syntax errors carry line/column positions via *ParseError
// (errors.As). Exec and Ingest honor context cancellation; Stop drains
// gracefully and is idempotent.
//
// Three processing strategies from the paper are available per query:
// separate baskets (private input replica), shared baskets (watermarked
// single copy), and the cascade of disjoint range predicates. Sliding
// windows (count- or time-based) are expressed with the WINDOW clause and
// evaluated either by re-evaluation or incrementally via per-pane
// summaries.
//
// Joins are streaming operators: a query joining two streams holds
// symmetric hash state (every cross-firing match found exactly once,
// bounded by JOIN ... WITHIN and expired behind the watermark), a query
// joining its stream with a table keeps a cached table-side hash
// re-snapshot on change, and on partitioned streams equi-joins run
// co-partitioned (or with the table broadcast) across shard pipelines.
//
// Opening with Config.DataDir makes the engine durable: acknowledged
// ingest batches and DDL are group-committed to a segmented write-ahead
// log, operator state (baskets, window panes, join state, delivery
// frontiers) is checkpointed periodically, and the next Open replays the
// log tail past the newest checkpoint — continuous queries resume
// without losing acknowledged tuples or re-emitting delivered results.
// A clean Stop writes a final checkpoint so clean restarts skip replay.
// See Engine.Checkpoint, Engine.Stats, and Query.Checkpoint.
package datacell

import (
	"context"
	"fmt"

	idc "repro/internal/datacell"
	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Engine is a DataCell instance: a catalog of streams and tables, the
// scheduler, and the registered continuous queries.
type Engine = idc.Engine

// Config parameterizes Open.
type Config = idc.Config

// Query is a registered continuous query.
type Query = idc.Query

// Subscription is a handle on a continuous query's result delivery:
// Recv(ctx) or TryRecv() to consume, Close() to detach without stopping
// the query, Err() for the close reason.
type Subscription = idc.Subscription

// Strategy selects a continuous query's input arrangement (§2.5 of the
// paper).
type Strategy = idc.Strategy

// Processing strategies.
const (
	// SeparateBaskets gives each query a private input basket (maximum
	// independence, replicated input).
	SeparateBaskets = idc.SeparateBaskets
	// SharedBaskets shares one basket among all queries; tuples are
	// retained until every query has seen them.
	SharedBaskets = idc.SharedBaskets
	// RoutedScan runs one shared scan per stream and routes each batch
	// through a predicate index to only the possibly-matching queries;
	// identical plans are evaluated once and fanned out. Opt-in; shapes
	// the shared scan cannot serve fall back to SharedBaskets.
	RoutedScan = idc.RoutedScan
)

// Typed errors, asserted with errors.Is.
var (
	// ErrUnknownStream reports a reference to a stream that was never created.
	ErrUnknownStream = idc.ErrUnknownStream
	// ErrUnknownQuery reports a name that is not a registered continuous query.
	ErrUnknownQuery = idc.ErrUnknownQuery
	// ErrDuplicateQuery reports a continuous-query name collision.
	ErrDuplicateQuery = idc.ErrDuplicateQuery
	// ErrDuplicateName reports a CREATE collision with an existing object.
	ErrDuplicateName = idc.ErrDuplicateName
	// ErrEngineStopped reports use of an engine after Stop.
	ErrEngineStopped = idc.ErrEngineStopped
	// ErrNotContinuous reports continuous registration of a plain query.
	ErrNotContinuous = idc.ErrNotContinuous
	// ErrContinuousViaExec reports a continuous SELECT passed to Exec bare.
	ErrContinuousViaExec = idc.ErrContinuousViaExec
	// ErrStreamInUse reports DROP of a stream, a table, or a query's
	// output that a query or cascade still reads.
	ErrStreamInUse = idc.ErrStreamInUse
	// ErrSubscriptionClosed reports delivery after a subscription closed.
	ErrSubscriptionClosed = idc.ErrSubscriptionClosed
	// ErrInvalidOption reports an unknown or malformed query option.
	ErrInvalidOption = idc.ErrInvalidOption
	// ErrSelfJoin reports a continuous query joining a stream with itself.
	ErrSelfJoin = idc.ErrSelfJoin
	// ErrUnsupportedJoin reports a stream-stream join shape the streaming
	// executor cannot run incrementally (non-equi, multi-way, windowed).
	ErrUnsupportedJoin = idc.ErrUnsupportedJoin
	// ErrCorruptWAL reports unrecoverable write-ahead-log damage: an
	// interior torn frame, checksum mismatch, or sequence gap (a torn
	// tail on the final segment is truncated silently instead).
	ErrCorruptWAL = idc.ErrCorruptWAL
	// ErrCheckpointMismatch reports a checkpoint image that does not fit
	// the catalog rebuilt from the DDL journal.
	ErrCheckpointMismatch = idc.ErrCheckpointMismatch
	// ErrNotDurable reports a durability operation on an engine opened
	// without Config.DataDir.
	ErrNotDurable = idc.ErrNotDurable
)

// ParseError is a SQL syntax error with line/column position, asserted
// with errors.As.
type ParseError = sql.ParseError

// CascadePredicate is one disjoint-range stage of a cascade.
type CascadePredicate = idc.CascadePredicate

// Cascade is a registered chain of disjoint-range stages.
type Cascade = idc.Cascade

// Value is one scalar in the engine's type system.
type Value = vector.Value

// Relation is a materialized result set.
type Relation = storage.Relation

// Clock abstracts time for deterministic runs.
type Clock = metrics.Clock

// ManualClock is an explicitly advanced clock.
type ManualClock = metrics.ManualClock

// Type enumerates column types.
type Type = vector.Type

// Column types.
const (
	Int64     = vector.Int64
	Float64   = vector.Float64
	Bool      = vector.Bool
	String    = vector.String
	Timestamp = vector.Timestamp
)

// Open creates an engine whose lifetime is bounded by ctx: when ctx ends,
// the engine stops as if Stop had been called.
func Open(ctx context.Context, cfg Config) (*Engine, error) { return idc.Open(ctx, cfg) }

// NewManualClock returns a manually advanced clock starting at ns.
func NewManualClock(ns int64) *ManualClock { return metrics.NewManualClock(ns) }

// Int wraps an int64.
func Int(v int64) Value { return vector.NewInt(v) }

// Float wraps a float64.
func Float(v float64) Value { return vector.NewFloat(v) }

// Str wraps a string.
func Str(v string) Value { return vector.NewString(v) }

// BoolVal wraps a bool.
func BoolVal(v bool) Value { return vector.NewBool(v) }

// TS wraps a timestamp (nanoseconds since the epoch).
func TS(ns int64) Value { return vector.NewTimestamp(ns) }

// Null returns the NULL of type t.
func Null(t Type) Value { return vector.NullValue(t) }

// EngineStats is the durability posture reported by Engine.Stats: WAL
// size, checkpoint coverage, and what the last Open had to replay.
type EngineStats = idc.EngineStats

// CheckpointInfo is a query's durability posture, from Query.Checkpoint.
type CheckpointInfo = idc.CheckpointInfo

// MustExec runs a statement and panics on error — for examples and setup
// code where failure is a programming bug.
func MustExec(e *Engine, stmt string) *Relation {
	rel, err := e.Exec(context.Background(), stmt)
	if err != nil {
		panic(fmt.Sprintf("datacell: MustExec(%q): %v", stmt, err))
	}
	return rel
}
