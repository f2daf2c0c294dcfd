// Windowed partitioned execution: AnalyzeWindowed decides whether a
// time-windowed continuous query can run as N shard pipelines, and
// WindowedMerge is the transition that aligns per-shard window emissions
// on the shared slide grid and merges them window by window.
//
// Shard runners evaluate over their shard's subsequence of the stream;
// because window boundaries are aligned to slide multiples, every shard
// slices the same grid. Two recombinations exist:
//
//   - Aligned (group keys include the partition column): per-shard window
//     results are already final and concatenate (the plain Merge).
//   - Re-aggregation: shards emit per-window partial aggregates tagged
//     with the window end; WindowedMerge buffers them until every shard's
//     delivered frontier passes the boundary, then re-aggregates the
//     union and replays HAVING/projection — one merged result per
//     window, same as a single pipeline would emit.
package partition

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
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
		switch a.Kind {
		case algebra.AggCount, algebra.AggCountAll, algebra.AggSum, algebra.AggMin, algebra.AggMax:
		default:
			return windowedFallback(fmt.Sprintf("%s partials cannot be merged across shards", a.Kind))
		}
	}
	mp, err := reaggMergePlan(p, agg, mergeSource)
	if err != nil {
		return windowedFallback(err.Error())
	}
	return WindowedAnalysis{OK: true, ShardPlan: agg, Agg: agg, MergePlan: mp, MergeSource: mergeSource}
}

// WindowedMerge recombines per-window partial aggregates from N shard
// pipelines. Shard emissions carry a trailing wend column (the window
// end); the merge buckets them by wend and merges a window only once
// every shard's delivered frontier has passed it — so no shard can still
// be sitting on partials for that window. It implements
// scheduler.Transition; the scheduler's claim flag keeps firings serial.
type WindowedMerge struct {
	name      string
	source    string // merge-plan scan override key
	shardOuts []*basket.Basket
	out       *basket.Basket
	plan      plan.Node
	cat       *catalog.Catalog
	// frontiers report each shard factory's delivered window frontier.
	frontiers []func() int64
	// wendIdx is the position of the wend tag in the shard-out schema
	// (its user columns; the implicit ts follows it).
	wendIdx int

	mu      sync.Mutex
	pending map[int64]*storage.Relation // window end → buffered partials
	rows    int                         // buffered partial rows
	merged  int64                       // windows merged so far
	through int64                       // highest window end merged

	drained int64 // atomic: partial tuples drained from shard outs
	late    int64 // atomic: partials that arrived after their window merged
}

// NewWindowedMerge builds the transition. partialWidth is the number of
// partial columns preceding the wend tag in the shard-out schema.
func NewWindowedMerge(name, source string, shardOuts []*basket.Basket, out *basket.Basket,
	mergePlan plan.Node, cat *catalog.Catalog, partialWidth int, frontiers []func() int64) *WindowedMerge {
	return &WindowedMerge{
		name:      name,
		source:    source,
		shardOuts: shardOuts,
		out:       out,
		plan:      mergePlan,
		cat:       cat,
		frontiers: frontiers,
		wendIdx:   partialWidth,
		pending:   map[int64]*storage.Relation{},
		through:   math.MinInt64,
	}
}

// Name implements scheduler.Transition.
func (m *WindowedMerge) Name() string { return m.name }

// minFrontier is the window boundary every shard has delivered up to.
func (m *WindowedMerge) minFrontier() int64 {
	min := int64(math.MaxInt64)
	for _, f := range m.frontiers {
		if v := f(); v < min {
			min = v
		}
	}
	return min
}

// Ready implements scheduler.Transition: fire when a shard emitted, or a
// buffered window fell behind every shard's frontier.
func (m *WindowedMerge) Ready() bool {
	for _, b := range m.shardOuts {
		if b.Len() > 0 {
			return true
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return false
	}
	minF := m.minFrontier()
	for end := range m.pending {
		if end <= minF {
			return true
		}
	}
	return false
}

// Lag returns shard-emitted partial tuples not yet merged into the
// output basket (in the shard outs plus buffered per window).
func (m *WindowedMerge) Lag() int {
	n := 0
	for _, b := range m.shardOuts {
		n += b.Len()
	}
	m.mu.Lock()
	n += m.rows
	m.mu.Unlock()
	return n
}

// Merged returns the cumulative number of partial tuples drained.
func (m *WindowedMerge) Merged() int64 { return atomic.LoadInt64(&m.drained) }

// Late returns the number of partial rows dropped because their window
// had already been merged when they surfaced — only possible outside the
// stream's declared lateness bound.
func (m *WindowedMerge) Late() int64 { return atomic.LoadInt64(&m.late) }

// WindowedMergeState is the serializable image of a WindowedMerge for
// checkpoints: the per-window buffered partials plus the progress
// counters. Pending windows hold tuples already drained from the shard
// outs, so losing them would silently drop shard contributions.
type WindowedMergeState struct {
	Pending map[int64][]*vector.Vector
	Rows    int
	Merged  int64
	Through int64
	Drained int64
	Late    int64
}

// Snapshot captures the merge state. The engine holds its consistency
// gate while calling, so no Fire is in flight.
func (m *WindowedMerge) Snapshot() *WindowedMergeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &WindowedMergeState{
		Pending: make(map[int64][]*vector.Vector, len(m.pending)),
		Rows:    m.rows,
		Merged:  m.merged,
		Through: m.through,
		Drained: atomic.LoadInt64(&m.drained),
		Late:    atomic.LoadInt64(&m.late),
	}
	for end, rel := range m.pending {
		st.Pending[end] = vector.CloneColumns(rel.Cols)
	}
	return st
}

// Restore loads a snapshot into a freshly built merge (pending buckets
// carry the shard-out schema).
func (m *WindowedMerge) Restore(st *WindowedMergeState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) != 0 {
		return fmt.Errorf("windowed merge %s: restore into non-empty merge", m.name)
	}
	schema := m.shardOuts[0].Schema()
	for end, cols := range st.Pending {
		m.pending[end] = &storage.Relation{Schema: schema, Cols: cols}
	}
	m.rows = st.Rows
	m.merged = st.Merged
	m.through = st.Through
	atomic.StoreInt64(&m.drained, st.Drained)
	atomic.StoreInt64(&m.late, st.Late)
	return nil
}

// Fire implements scheduler.Transition: drain the shard outs, bucket the
// partials by window end, and merge every window the frontiers have
// closed, in boundary order.
func (m *WindowedMerge) Fire() error {
	// The frontier snapshot MUST precede the drain: a frontier is
	// published only after the shard's partials are appended, so every
	// window at or below this reading is fully contained in what the
	// drain below picks up. A reading taken after the drain could cover
	// partials delivered in between — merging on it would drop a shard's
	// contribution and mislabel it late on the next firing.
	minF := m.minFrontier()

	counts := make([]int, len(m.shardOuts))
	var drained []*storage.Relation
	total := 0
	for i, b := range m.shardOuts {
		b.Lock()
		view, n := b.LockedSnapshot()
		b.Unlock()
		counts[i] = n
		total += n
		if n > 0 {
			// Copy out: the prefix is dropped below, and buffered partials
			// must survive later basket compaction.
			drained = append(drained, &storage.Relation{Schema: b.Schema(), Cols: view.CloneColumns()})
		}
	}

	m.mu.Lock()
	for _, rel := range drained {
		wend := rel.Cols[m.wendIdx]
		byEnd := map[int64][]int{}
		var ends []int64
		for i := 0; i < rel.NumRows(); i++ {
			e := wend.Get(i).I
			if _, seen := byEnd[e]; !seen {
				ends = append(ends, e)
			}
			byEnd[e] = append(byEnd[e], i)
		}
		for _, e := range ends {
			if e <= m.through {
				// The window is already merged and delivered; a straggler
				// shard emission for it can only be counted, not applied.
				atomic.AddInt64(&m.late, int64(len(byEnd[e])))
				continue
			}
			part := rel.Take(byEnd[e])
			if acc, ok := m.pending[e]; ok {
				acc.AppendRelation(part)
			} else {
				m.pending[e] = part
			}
			m.rows += len(byEnd[e])
		}
	}
	m.mu.Unlock()

	// The drained prefixes are safely buffered; release them.
	for i, b := range m.shardOuts {
		if counts[i] == 0 {
			continue
		}
		b.Lock()
		b.LockedDropPrefix(counts[i])
		b.Unlock()
	}
	atomic.AddInt64(&m.drained, int64(total))

	m.mu.Lock()
	defer m.mu.Unlock()
	var due []int64
	for end := range m.pending {
		if end <= minF {
			due = append(due, end)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, end := range due {
		rel := m.pending[end]
		// The merge plan scans the bare partial columns; the wend tag and
		// the baskets' implicit ts are dropped from the override.
		cols := rel.Cols[:m.wendIdx]
		ctx := exec.NewContext(m.cat)
		ctx.Overrides[strings.ToLower(m.source)] = bat.ViewOf(cols...)
		res, err := exec.Run(m.plan, ctx)
		if err != nil {
			return fmt.Errorf("windowed merge %s: %w", m.name, err)
		}
		if err := m.out.AppendRelation(res); err != nil {
			return fmt.Errorf("windowed merge %s: %w", m.name, err)
		}
		m.rows -= rel.NumRows()
		delete(m.pending, end)
		if end > m.through {
			m.through = end
		}
		m.merged++
	}
	return nil
}
