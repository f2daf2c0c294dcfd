// Plan analysis and the merge transition: Analyze decides whether a
// continuous query can run as N shard pipelines and what recombination
// its emissions need; Merge is the Petri-net transition that drains the
// lane sink baskets into the query's final output basket.
package partition

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// MergeMode selects how shard emissions recombine.
type MergeMode uint8

// Merge modes.
const (
	// MergeConcat appends shard emissions as-is (row-preserving queries,
	// and grouped queries whose keys are aligned with the partition key so
	// every group lives wholly in one shard).
	MergeConcat MergeMode = iota
	// MergeDistinct re-deduplicates across shards (SELECT DISTINCT whose
	// rows may collide across shards).
	MergeDistinct
	// MergeReagg runs a global aggregation stage over the shards' partial
	// aggregates (grouping keys not aligned with the partition key).
	MergeReagg
)

// String names the mode.
func (m MergeMode) String() string {
	switch m {
	case MergeDistinct:
		return "distinct"
	case MergeReagg:
		return "reaggregate"
	default:
		return "concat"
	}
}

// Analysis is Analyze's verdict on one continuous query.
type Analysis struct {
	// OK reports whether the query can be partitioned; when false, Reason
	// says why and the engine falls back to a single pipeline.
	OK     bool
	Reason string
	Mode   MergeMode
	// ShardPlan is what each shard factory executes. For MergeReagg it is
	// the query's Aggregate subtree (shards emit partial aggregates); for
	// the other modes it is the full plan.
	ShardPlan plan.Node
	// MergePlan, when non-nil, is run by the merge transition over the
	// union of drained shard emissions (bound to MergeSource); nil means
	// plain concatenation.
	MergePlan plan.Node
	// MergeSource is the scan-override key the merge plan reads.
	MergeSource string
}

func notPartitionable(reason string) Analysis { return Analysis{Reason: reason} }

// Analyze inspects a compiled continuous-query plan and decides the
// shard/merge decomposition. p must be the optimized plan of a query
// whose single basket expression reads stream; partitionBy is the
// stream's partition column ("" for round-robin). mergeSource names the
// override the merge plan scans (any stable, collision-free key).
func Analyze(p plan.Node, stream, partitionBy, mergeSource string) Analysis {
	var scans []*plan.Scan
	var aggs []*plan.Aggregate
	hasJoin, hasSort := false, false
	plan.Walk(p, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			scans = append(scans, x)
		case *plan.Aggregate:
			aggs = append(aggs, x)
		case *plan.Join:
			hasJoin = true
		case *plan.Sort:
			hasSort = true
		}
	})

	switch {
	case hasJoin:
		return notPartitionable("join plans decompose via AnalyzeJoin (co-partitioned / broadcast), not the single-stream analyzer")
	case hasSort:
		return notPartitionable("ORDER BY / LIMIT is a global order over all shards")
	case len(scans) != 1:
		return notPartitionable(fmt.Sprintf("plan has %d scans, want exactly the stream scan", len(scans)))
	case len(aggs) > 1:
		return notPartitionable("nested aggregation")
	}
	sc := scans[0]
	if !sc.Consuming || !strings.EqualFold(sc.Source, stream) {
		return notPartitionable(fmt.Sprintf("the single scan must consume stream %q", stream))
	}

	if len(aggs) == 0 {
		if hasDistinct(p) {
			return Analysis{OK: true, Mode: MergeDistinct, ShardPlan: p,
				MergePlan: distinctMergePlan(p, mergeSource), MergeSource: mergeSource}
		}
		return Analysis{OK: true, Mode: MergeConcat, ShardPlan: p}
	}

	agg := aggs[0]
	if aligned(agg, sc, partitionBy) {
		// Every group lives wholly in one shard: per-shard results
		// (including HAVING) are already final.
		return Analysis{OK: true, Mode: MergeConcat, ShardPlan: p}
	}
	for _, a := range agg.Aggs {
		if _, ok := a.Kind.Merge(); !ok {
			return notPartitionable(fmt.Sprintf("%s partials cannot be merged across shards", a.Kind))
		}
	}
	mp, err := reaggMergePlan(p, agg, mergeSource)
	if err != nil {
		return notPartitionable(err.Error())
	}
	return Analysis{OK: true, Mode: MergeReagg, ShardPlan: agg, MergePlan: mp, MergeSource: mergeSource}
}

func hasDistinct(p plan.Node) bool {
	for {
		switch x := p.(type) {
		case *plan.Distinct:
			return true
		case *plan.Project:
			p = x.Child
		case *plan.Select:
			p = x.Child
		default:
			return false
		}
	}
}

// aligned reports whether one of the grouping keys is exactly the
// partition column, so each group's rows all hash to the same shard. The
// key indexes refer to the aggregate's child schema — the (possibly
// column-pruned) scan output — so they are mapped back through Scan.Cols
// to source-schema positions.
func aligned(agg *plan.Aggregate, sc *plan.Scan, partitionBy string) bool {
	if partitionBy == "" {
		return false
	}
	srcIdx := sc.Src.Index(partitionBy)
	if srcIdx < 0 {
		return false
	}
	for _, k := range agg.Keys {
		cr, ok := k.(*expr.ColRef)
		if !ok {
			continue
		}
		if cr.Index < len(sc.Cols) && sc.Cols[cr.Index] == srcIdx {
			return true
		}
	}
	return false
}

// partialScan builds the merge plan's scan over the union of drained
// lane emissions. The merge hands its plan the bare partial columns (it
// cuts the lane baskets' window-end tag and implicit ts off the view), so
// the scan reads the partial schema directly.
func partialScan(partial *catalog.Schema, source string) *plan.Scan {
	cols := make([]int, partial.Len())
	for i := range cols {
		cols[i] = i
	}
	return &plan.Scan{Source: source, Kind: catalog.KindBasket, Cols: cols, Src: partial, Out: partial}
}

// distinctMergePlan re-deduplicates the union of shard emissions.
func distinctMergePlan(p plan.Node, source string) plan.Node {
	return &plan.Distinct{Child: partialScan(p.Schema(), source)}
}

// reaggMergePlan rebuilds the query's post-aggregation pipeline over a
// global re-aggregation of the shards' partial aggregates (AggKind.Merge:
// COUNT partials are summed, SUM/MIN/MAX merge with themselves), then the
// original HAVING filter and projection apply unchanged (the merged
// aggregate's output schema is positionally identical to the per-shard
// one).
func reaggMergePlan(p plan.Node, agg *plan.Aggregate, source string) (plan.Node, error) {
	partial := agg.Out
	mergeAgg := &plan.Aggregate{Child: partialScan(partial, source), Out: partial}
	for i := range agg.Keys {
		c := partial.Columns[i]
		mergeAgg.Keys = append(mergeAgg.Keys, &expr.ColRef{Index: i, Name: c.Name, Typ: c.Type})
	}
	for j, a := range agg.Aggs {
		idx := len(agg.Keys) + j
		c := partial.Columns[idx]
		kind, _ := a.Kind.Merge() // the caller has checked it folds
		mergeAgg.Aggs = append(mergeAgg.Aggs, plan.AggSpec{
			Kind: kind,
			Arg:  &expr.ColRef{Index: idx, Name: c.Name, Typ: c.Type},
			Name: a.Name,
		})
	}

	// Rebuild the chain above the aggregate: [Distinct] Project [Select].
	var distinct bool
	top := p
	if d, ok := top.(*plan.Distinct); ok {
		distinct = true
		top = d.Child
	}
	proj, ok := top.(*plan.Project)
	if !ok {
		return nil, fmt.Errorf("unexpected plan shape above aggregation (%T)", top)
	}
	inner := proj.Child
	var root plan.Node = mergeAgg
	switch x := inner.(type) {
	case *plan.Aggregate:
		// nothing between projection and aggregate
	case *plan.Select:
		if _, ok := x.Child.(*plan.Aggregate); !ok {
			return nil, fmt.Errorf("unexpected plan shape under HAVING (%T)", x.Child)
		}
		root = &plan.Select{Child: root, Pred: x.Pred}
	default:
		return nil, fmt.Errorf("unexpected plan shape above aggregation (%T)", inner)
	}
	root = &plan.Project{Child: root, Exprs: proj.Exprs, Out: proj.Out}
	if distinct {
		root = &plan.Distinct{Child: root}
	}
	return root, nil
}

// Merge is the transition that recombines lane emissions into the query's
// output basket. Every lane sink is a basket. A firing snapshots each lane
// under its lock, in lane order — each lane's emission order is kept —
// applies the recombination (the merge plan over the union, or plain
// concatenation), appends the result to out, and only then drops the
// consumed prefixes: a failed firing leaves its inputs in place for the
// retry, losing and duplicating nothing. Tuples a lane appends during the
// firing stay for the next one (the append wakes the merge again).
//
// Lanes of a sharded time window whose groups span shards tag every
// partial with its window end. The merge then buckets the drained
// partials by that tag and applies the recombination window by window,
// each only once every lane's delivered frontier has passed it — so no
// lane can still be sitting on partials for that window.
//
// It implements scheduler.Transition; the scheduler's claim machine keeps
// firings serial, so merged batches never interleave.
type Merge struct {
	name   string
	source string // merge-plan scan override key
	lanes  []*basket.Basket
	out    *basket.Basket
	plan   plan.Node // nil = concat
	cat    *catalog.Catalog
	// frontiers report each lane factory's delivered window frontier; nil
	// when the lanes do not tag a window end.
	frontiers []func() int64
	// width is the number of payload columns in a lane's schema: what
	// precedes the window-end tag (when tagged) and the implicit ts.
	width int

	mu      sync.Mutex
	pending map[int64][]*vector.Vector // window end → buffered payload columns
	through int64                      // highest window end merged

	merged atomic.Int64 // lane tuples drained so far
	late   atomic.Int64 // partials that arrived after their window merged
}

// NewMerge builds the merge transition over the lane sinks. mergePlan may
// be nil for plain concatenation; source must match the Analysis'
// MergeSource. A non-nil frontiers (one per lane) says the lanes' last
// user column is the WindowEndColumn tag and makes the merge
// window-aligned.
func NewMerge(name, source string, lanes []*basket.Basket, out *basket.Basket,
	mergePlan plan.Node, cat *catalog.Catalog, frontiers []func() int64) *Merge {
	width := lanes[0].UserWidth()
	if frontiers != nil {
		width--
	}
	return &Merge{
		name: name, source: strings.ToLower(source), lanes: lanes, out: out, plan: mergePlan, cat: cat,
		frontiers: frontiers, width: width,
		pending: map[int64][]*vector.Vector{}, through: math.MinInt64,
	}
}

// Name implements scheduler.Transition.
func (m *Merge) Name() string { return m.name }

// minFrontier is the window boundary every lane has delivered up to.
func (m *Merge) minFrontier() int64 {
	min := int64(math.MaxInt64)
	for _, f := range m.frontiers {
		if v := f(); v < min {
			min = v
		}
	}
	return min
}

// Ready implements scheduler.Transition: fire when a lane emitted, or a
// buffered window fell behind every lane's frontier.
func (m *Merge) Ready() bool {
	for _, b := range m.lanes {
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

// Lag returns the number of lane-emitted tuples not yet merged into the
// output basket (in the lane sinks plus buffered per window) — the merge
// backlog surfaced by SHOW QUERIES.
func (m *Merge) Lag() int {
	n := 0
	for _, b := range m.lanes {
		n += b.Len()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, cols := range m.pending {
		n += cols[0].Len()
	}
	return n
}

// Merged returns the cumulative number of lane tuples drained.
func (m *Merge) Merged() int64 { return m.merged.Load() }

// Late returns the number of partial rows dropped because their window
// had already been merged when they surfaced — only possible outside the
// stream's declared lateness bound, and only for a window-aligned merge.
func (m *Merge) Late() int64 { return m.late.Load() }

// MergeState is the serializable image of a Merge for checkpoints: the
// per-window buffered partials plus the progress counters. Pending
// windows hold tuples already dropped from the lane sinks, so losing them
// would silently drop lane contributions. An untagged merge buffers
// nothing between firings; its image is the counters.
type MergeState struct {
	Pending map[int64][]*vector.Vector
	Through int64
	Merged  int64
	Late    int64
}

// Snapshot captures the merge state. The engine holds its consistency
// gate while calling, so no Fire is in flight.
func (m *Merge) Snapshot() *MergeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MergeState{
		Pending: make(map[int64][]*vector.Vector, len(m.pending)),
		Through: m.through,
		Merged:  m.merged.Load(),
		Late:    m.late.Load(),
	}
	for end, cols := range m.pending {
		st.Pending[end] = vector.CloneColumns(cols)
	}
	return st
}

// Restore loads a snapshot into a freshly built merge.
func (m *Merge) Restore(st *MergeState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) != 0 {
		return fmt.Errorf("merge %s: restore into non-empty merge", m.name)
	}
	for end, cols := range st.Pending {
		if m.frontiers == nil || len(cols) != m.width {
			return fmt.Errorf("merge %s: image holds a window bucket of %d columns this merge cannot have buffered", m.name, len(cols))
		}
		m.pending[end] = cols
	}
	m.through = st.Through
	m.merged.Store(st.Merged)
	m.late.Store(st.Late)
	return nil
}

// Fire implements scheduler.Transition.
func (m *Merge) Fire() error {
	// The frontier read MUST precede the drain: a frontier is published
	// only after the lane's partials are appended, so every window at or
	// below this reading is fully contained in what the drain below picks
	// up. A reading taken after the drain could cover partials delivered
	// in between — merging on it would drop a lane's contribution and
	// mislabel it late on the next firing.
	minF := m.minFrontier()

	taken := make([]int, len(m.lanes)) // rows this firing consumes per lane
	var union bat.View
	for i, b := range m.lanes {
		b.Lock()
		view, n := b.LockedSnapshot()
		b.Unlock()
		taken[i] = n
		if n > 0 {
			union.Chunks = append(union.Chunks, view.Chunks...)
		}
	}

	var err error
	if m.frontiers != nil {
		m.bucket(union) // copies: the partials outlive the prefixes dropped below
	} else if len(union.Chunks) > 0 {
		var done int
		done, err = m.emit(union)
		for i := range taken {
			taken[i] = min(taken[i], done)
			done -= taken[i]
		}
	}
	for i, b := range m.lanes {
		if taken[i] > 0 {
			b.Lock()
			b.LockedDropPrefix(taken[i])
			b.Unlock()
			m.merged.Add(int64(taken[i]))
		}
	}
	if err != nil {
		return err
	}
	return m.release(minF)
}

// emit applies the recombination to one union of lane emissions (only
// the payload columns are read) and appends the result to out. It reports
// how many of the union's leading rows out now accounts for: all of them,
// or — when a concatenation fails part-way — those of the chunks appended
// before the failure, which downstream has been notified of and a retry
// must not append again.
func (m *Merge) emit(union bat.View) (int, error) {
	for i := range union.Chunks {
		union.Chunks[i].Cols = union.Chunks[i].Cols[:m.width]
	}
	if m.plan != nil {
		ctx := exec.NewContext(m.cat)
		ctx.Overrides[m.source] = union
		rel, err := exec.Run(m.plan, ctx)
		if err == nil {
			err = m.out.AppendRelation(rel)
		}
		if err != nil {
			return 0, fmt.Errorf("merge %s: %w", m.name, err)
		}
		return union.NumRows(), nil
	}
	// Plain concat: hand each chunk to the output basket under one lock —
	// its tail chunk absorbs them without materializing the union first.
	var err error
	done := 0
	m.out.Lock()
	for _, ch := range union.Chunks {
		if err = m.out.LockedAppendRelation(&storage.Relation{Cols: ch.Cols}); err != nil {
			err = fmt.Errorf("merge %s: %w", m.name, err)
			break
		}
		done += ch.Len()
	}
	m.out.Unlock()
	if done > 0 {
		m.out.NotifyAppend()
	}
	return done, err
}

// bucket files drained partials under their window end. A partial whose
// window is already merged and delivered can only be counted, not applied.
func (m *Merge) bucket(union bat.View) {
	if len(union.Chunks) == 0 {
		return
	}
	wend := union.Column(m.width)
	byEnd := map[int64]bat.Candidates{}
	for i := 0; i < wend.Len(); i++ {
		e := wend.Get(i).I
		byEnd[e] = append(byEnd[e], i)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for end, pos := range byEnd {
		if end <= m.through {
			m.late.Add(int64(len(pos)))
			continue
		}
		acc, ok := m.pending[end]
		if !ok {
			acc = make([]*vector.Vector, m.width)
			m.pending[end] = acc
		}
		for c := range acc {
			part := union.TakeColumn(c, pos)
			if ok {
				acc[c].AppendVector(part)
			} else {
				acc[c] = part
			}
		}
	}
}

// release merges every buffered window at or below minF, in boundary
// order; a window whose merge fails stays buffered for the retry.
func (m *Merge) release(minF int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var due []int64
	for end := range m.pending {
		if end <= minF {
			due = append(due, end)
		}
	}
	slices.Sort(due)
	for _, end := range due {
		cols := m.pending[end]
		if _, err := m.emit(bat.ViewOf(cols...)); err != nil {
			return err
		}
		delete(m.pending, end)
		m.through = max(m.through, end)
	}
	return nil
}
