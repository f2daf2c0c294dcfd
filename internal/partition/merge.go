// Plan analysis and the merge transition: Analyze decides whether a
// continuous query can run as N shard pipelines and what recombination
// its emissions need; Merge is the Petri-net transition that drains the
// shard output baskets into the query's final output basket.
package partition

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
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
		switch a.Kind {
		case algebra.AggCount, algebra.AggCountAll, algebra.AggSum, algebra.AggMin, algebra.AggMax:
		default:
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
// shard emissions. Shard pipelines hand the merge bare partial columns
// (no implicit ts — the SPSC tail carries batches, not basket rows), so
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
// global re-aggregation of the shards' partial aggregates: COUNT partials
// are summed, SUM/MIN/MAX merge with themselves, then the original HAVING
// filter and projection apply unchanged (the merged aggregate's output
// schema is positionally identical to the per-shard one).
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
		kind := a.Kind
		if kind == algebra.AggCount || kind == algebra.AggCountAll {
			kind = algebra.AggSum
		}
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

// Merge is the transition that recombines shard emissions into the
// query's final output basket. Shard pipelines hand it result batches
// over per-shard SPSC tails; firing drains the tails in shard order —
// preserving each shard's emission order — and either appends the union
// directly (concat) or runs the merge plan over it (global distinct /
// re-aggregation). It implements scheduler.Transition; the scheduler's
// claim machine keeps firings serial, so merged batches never interleave.
type Merge struct {
	name   string
	source string // merge-plan scan override key
	tails  []*Tail
	out    *basket.Basket
	plan   plan.Node // nil = concat
	cat    *catalog.Catalog
	merged int64 // atomic: partial tuples drained so far
}

// NewMerge builds the merge transition. mergePlan may be nil for plain
// concatenation; source must match the Analysis' MergeSource.
func NewMerge(name, source string, tails []*Tail, out *basket.Basket, mergePlan plan.Node, cat *catalog.Catalog) *Merge {
	return &Merge{name: name, source: source, tails: tails, out: out, plan: mergePlan, cat: cat}
}

// Name implements scheduler.Transition.
func (m *Merge) Name() string { return m.name }

// Ready implements scheduler.Transition: fire when any shard emitted.
// Pending is an atomic counter, so readiness costs no locks.
func (m *Merge) Ready() bool {
	for _, t := range m.tails {
		if t.Pending() > 0 {
			return true
		}
	}
	return false
}

// Lag returns the number of shard-emitted tuples not yet merged — the
// merge backlog surfaced by SHOW QUERIES.
func (m *Merge) Lag() int {
	n := 0
	for _, t := range m.tails {
		n += t.Pending()
	}
	return n
}

// Merged returns the cumulative number of partial tuples drained.
func (m *Merge) Merged() int64 { return atomic.LoadInt64(&m.merged) }

// Late is always 0: a plain merge has no window boundary an emission
// could arrive behind (the windowed merge's counterpart counts them).
func (m *Merge) Late() int64 { return 0 }

// Fire implements scheduler.Transition. It peeks every tail's buffered
// batches without consuming, appends one merged batch to the output
// basket, and only then discards the peeked prefix — the factory
// convention: a failed firing leaves its inputs in place for retry,
// losing nothing. Batches pushed concurrently with the firing stay
// buffered for the next one (the push wakes the merge again).
func (m *Merge) Fire() error {
	counts := make([]int, len(m.tails))
	var chunks []bat.Chunk
	total := 0
	for i, t := range m.tails {
		t.cmu.Lock()
		counts[i] = t.peekAll(func(it tailItem) {
			chunks = append(chunks, bat.Chunk{Cols: it.cols})
			total += it.cols[0].Len()
		})
		t.cmu.Unlock()
	}
	if total == 0 {
		return nil
	}
	if m.plan == nil {
		// Plain concat: hand each ring batch to the output basket
		// chunk-wise under one lock — the basket's tail chunk absorbs
		// them without the per-firing union materialization a single
		// concatenated relation would cost.
		m.out.Lock()
		appended := 0
		var appendErr error
		for _, ch := range chunks {
			if err := m.out.LockedAppendRelation(&storage.Relation{Schema: m.out.Schema(), Cols: ch.Cols}); err != nil {
				appendErr = fmt.Errorf("merge %s: %w", m.name, err)
				break
			}
			appended++
		}
		m.out.Unlock()
		if appended > 0 {
			m.out.NotifyAppend()
		}
		if appendErr != nil {
			// Ack only the appended prefix: downstream listeners were
			// already notified of it, so the retry must not re-append it;
			// the failed chunk and everything after it stay buffered in
			// the shard tails for the next firing.
			total = 0
			for _, ch := range chunks[:appended] {
				total += ch.Cols[0].Len()
			}
			rem := appended
			for i := range counts {
				if counts[i] > rem {
					counts[i] = rem
				}
				rem -= counts[i]
			}
			m.ack(counts, total)
			return appendErr
		}
	} else {
		// The union in shard order: the partial-aggregate input for a
		// merge plan, evaluated over the chunks without copying them.
		union := bat.View{Chunks: chunks}
		ctx := exec.NewContext(m.cat)
		ctx.Overrides[strings.ToLower(m.source)] = union
		rel, err := exec.Run(m.plan, ctx)
		if err != nil {
			return fmt.Errorf("merge %s: %w", m.name, err)
		}
		if err := m.out.AppendRelation(rel); err != nil {
			return fmt.Errorf("merge %s: %w", m.name, err)
		}
	}
	m.ack(counts, total)
	return nil
}

// ack discards the consumed prefix from each shard tail and credits the
// merged-row counter.
func (m *Merge) ack(counts []int, total int) {
	for i, t := range m.tails {
		if counts[i] == 0 {
			continue
		}
		t.cmu.Lock()
		t.discard(counts[i])
		t.cmu.Unlock()
	}
	atomic.AddInt64(&m.merged, int64(total))
}
