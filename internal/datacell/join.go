// Streaming-join planning: the engine-side recognition that turns a
// continuous query with a JOIN into stateful incremental execution.
//
//   - A query with two basket expressions is a stream-stream join: one
//     factory (or one per shard, when both streams are co-partitioned on
//     the join key) holds symmetric hash state, so matches across
//     firings are found exactly once. JOIN ... ON ... WITHIN 'd' bounds
//     the state by event time.
//   - A query joining its stream with a table gets enrichment state: the
//     table side is materialized as a hash index rebuilt only when the
//     table's version moves. On a partitioned stream the table is
//     broadcast — each shard pipeline joins its stream subset against
//     the whole table and the emissions concatenate.
//
// Join shapes the streaming executor cannot run incrementally (non-equi,
// multi-way, windowed plans) keep the per-firing batch join.
package datacell

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/sql"
)

// planError surfaces catalog misses from planning as the engine's typed
// ErrUnknownStream, so callers can branch with errors.Is instead of
// parsing plan-layer messages.
func (e *Engine) planError(err error) error {
	if errors.Is(err, catalog.ErrNotFound) {
		return fmt.Errorf("%w: %v", ErrUnknownStream, err)
	}
	return err
}

// partitionLookup resolves a stream name to its partitioning spec — the
// lookup AnalyzeJoin uses to decide co-partitioned/broadcast execution.
func (e *Engine) partitionLookup(streamName string) (partition.Spec, bool) {
	s, err := e.lookupStream(streamName)
	if err != nil || s.router == nil {
		return partition.Spec{}, false
	}
	return s.router.Spec(), true
}

// streamTableJoinBuilder recognizes a single two-way equi-join of the
// query's stream with a registered table and returns a constructor for
// per-pipeline enrichment state; nil means the query keeps per-firing
// join evaluation (no join, unsupported shape, windowed plan, or a
// chained-basket input).
func (e *Engine) streamTableJoinBuilder(p plan.Node, sel *sql.SelectStmt, streamName string, chained bool) func() (*exec.StreamJoin, error) {
	if sel.Window != nil || chained {
		return nil
	}
	shape := partition.InspectJoin(p)
	if shape.Joins != 1 {
		return nil
	}
	var side byte
	var tableChild plan.Node
	switch {
	case shape.LeftStream != nil && strings.EqualFold(shape.LeftStream.Source, streamName) && shape.RightTablesOnly:
		side, tableChild = 'L', shape.Join.R
	case shape.RightStream != nil && strings.EqualFold(shape.RightStream.Source, streamName) && shape.LeftTablesOnly:
		side, tableChild = 'R', shape.Join.L
	default:
		return nil
	}
	scans := collectScans(tableChild)
	if len(scans) != 1 {
		return nil
	}
	e.mu.Lock()
	tbl := e.tables[strings.ToLower(scans[0].Source)]
	e.mu.Unlock()
	if tbl == nil {
		return nil
	}
	node := shape.Join
	if _, err := exec.NewStreamTableJoin(node, side, tbl.Version); err != nil {
		// Non-equi (or otherwise unsupported) shape: per-firing evaluation
		// stays correct, just without cached state.
		return nil
	}
	return func() (*exec.StreamJoin, error) {
		return exec.NewStreamTableJoin(node, side, tbl.Version)
	}
}

func collectScans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	plan.Walk(n, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			out = append(out, sc)
		}
	})
	return out
}
