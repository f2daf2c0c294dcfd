// Windowed partitioned execution: AnalyzeWindowed decides whether a
// time-windowed continuous query can run as N shard pipelines and how
// Merge recombines their window emissions.
//
// Shard runners evaluate over their shard's subsequence of the stream;
// because window boundaries are aligned to slide multiples, every shard
// slices the same grid. Two recombinations exist:
//
//   - Aligned (group keys include the partition column): per-shard window
//     results are already final and concatenate.
//   - Re-aggregation: shards emit per-window partial aggregates tagged
//     with the window end; a window-aligned Merge buffers them until
//     every shard's delivered frontier passes the boundary, then
//     re-aggregates the union and replays HAVING/projection — one merged
//     result per window, same as a single pipeline would emit.
package partition

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/window"
)

// WindowEndColumn is the tag column shard pipelines append to their
// per-window partials so the merge can align pane grids across shards.
const WindowEndColumn = "wend"

// WindowedAnalysis is AnalyzeWindowed's verdict on one windowed
// continuous query.
type WindowedAnalysis struct {
	// OK reports whether the query can run sharded; when false, Reason
	// says why and the engine falls back to a single pipeline.
	OK     bool
	Reason string
	// Aligned means per-shard window results are final (concat merge).
	Aligned bool
	// ShardPlan is what each shard's window runner evaluates: the full
	// plan when aligned, the bare Aggregate subtree (per-window partials)
	// otherwise.
	ShardPlan plan.Node
	// Agg is the query's aggregate node (re-aggregation only) — the
	// engine builds the shard runners' partial evaluators from it.
	Agg *plan.Aggregate
	// MergePlan re-aggregates one window's union of shard partials and
	// replays HAVING and the projection (nil when aligned).
	MergePlan plan.Node
	// MergeSource is the scan-override key the merge plan reads.
	MergeSource string
}

func windowedFallback(reason string) WindowedAnalysis { return WindowedAnalysis{Reason: reason} }

// AnalyzeWindowed inspects a compiled windowed continuous-query plan and
// decides the shard/merge decomposition. Only time-based windows shard:
// a count window is defined over the whole stream's arrival order, which
// no shard observes. The plan must have the mergeable-pane shape (the
// StatStream basic-window model RecognizeIncremental accepts) — plans
// that only re-evaluation can run stay on one pipeline.
func AnalyzeWindowed(p plan.Node, stream, partitionBy, mergeSource string, w *sql.WindowClause) WindowedAnalysis {
	if w.Kind != sql.WindowRange {
		return windowedFallback("count windows are defined over the whole stream's arrival order")
	}
	if w.Size%w.Slide != 0 {
		return windowedFallback("pane alignment needs size divisible by slide")
	}
	if _, ok := window.RecognizeIncremental(p); !ok {
		return windowedFallback("plan shape has no mergeable pane summaries (re-evaluation only)")
	}
	// RecognizeIncremental pins the shape to Project(Select?(Aggregate(Scan))).
	proj := p.(*plan.Project)
	inner := proj.Child
	if sel, ok := inner.(*plan.Select); ok {
		inner = sel.Child
	}
	agg := inner.(*plan.Aggregate)
	sc := agg.Child.(*plan.Scan)
	if !sc.Consuming || !strings.EqualFold(sc.Source, stream) {
		return windowedFallback(fmt.Sprintf("the scan must consume stream %q", stream))
	}

	if aligned(agg, sc, partitionBy) {
		// Every group lives wholly in one shard: per-shard window results
		// (including HAVING) are already final.
		return WindowedAnalysis{OK: true, Aligned: true, ShardPlan: p}
	}
	for _, a := range agg.Aggs {
		if _, ok := a.Kind.Merge(); !ok {
			return windowedFallback(fmt.Sprintf("%s partials cannot be merged across shards", a.Kind))
		}
	}
	mp, err := reaggMergePlan(p, agg, mergeSource)
	if err != nil {
		return windowedFallback(err.Error())
	}
	return WindowedAnalysis{OK: true, ShardPlan: agg, Agg: agg, MergePlan: mp, MergeSource: mergeSource}
}
