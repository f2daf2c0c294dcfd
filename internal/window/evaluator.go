package window

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// PlanEvaluator implements re-evaluation: each window is computed by
// running the full compiled plan with the window content substituted for
// the stream basket — exactly what a factory does for unwindowed queries.
type PlanEvaluator struct {
	Plan    plan.Node
	Catalog *catalog.Catalog
	// Source is the basket name the plan scans; the window content
	// overrides it.
	Source string
}

// Eval implements Evaluator.
func (p *PlanEvaluator) Eval(win *storage.Relation) (*storage.Relation, error) {
	ctx := exec.NewContext(p.Catalog)
	ctx.Overrides[strings.ToLower(p.Source)] = bat.ViewOf(win.Cols...)
	return exec.Run(p.Plan, ctx)
}

// Schema implements Evaluator.
func (p *PlanEvaluator) Schema() *catalog.Schema { return p.Plan.Schema() }

// paneSummary is one pane's partial-aggregate relation: the group keys,
// then each aggregate's partial columns (see partialKinds), one row per
// group in first-seen order — a scalar aggregate's pane has exactly one
// row. pairs holds, per COUNT(DISTINCT) aggregate in spec order, the
// pane's distinct (keys…, argument) rows.
type paneSummary struct {
	cols  []*vector.Vector
	pairs [][]*vector.Vector
}

// partialKinds lists the aggregates a pane computes for an aggregate of
// kind k, one partial column each; Merge folds every column by its
// AggKind.Merge. AVG keeps a SUM of its argument as DOUBLE (algebra.Float)
// and a COUNT; COUNT(DISTINCT) keeps no column, only the pane's distinct
// pairs.
func partialKinds(k algebra.AggKind) []algebra.AggKind {
	switch k {
	case algebra.AggAvg:
		return []algebra.AggKind{algebra.AggSum, algebra.AggCount}
	case algebra.AggCountDistinct:
		return nil
	default:
		return []algebra.AggKind{k}
	}
}

// IncrementalAggEvaluator implements the basic-window model for plans of
// the shape Project(Select?(Aggregate(Scan))) — grouped or scalar
// aggregation over a single stream. Each pane is summarized once, by the
// kernel's Group and Aggregate, into a partial-aggregate relation; a
// window result regroups its panes' partials with the same operators,
// folds them (AggKind.Merge), and applies the plan's HAVING and
// projection expressions over the merged aggregate output.
type IncrementalAggEvaluator struct {
	filter    expr.Expr      // Scan filter over the buffered schema
	keys      []expr.Expr    // group-by keys over the buffered schema
	specs     []plan.AggSpec // aggregates over the buffered schema
	having    expr.Expr      // over [keys…, aggs…]
	projExprs []expr.Expr    // over [keys…, aggs…]
	aggSchema *catalog.Schema
	outSchema *catalog.Schema
}

// RecognizeIncremental inspects a compiled plan and builds the incremental
// evaluator when the plan shape supports it. The second result reports
// whether recognition succeeded; callers fall back to re-evaluation
// otherwise.
func RecognizeIncremental(p plan.Node) (*IncrementalAggEvaluator, bool) {
	proj, ok := p.(*plan.Project)
	if !ok {
		return nil, false
	}
	inner := proj.Child
	var having expr.Expr
	if sel, ok := inner.(*plan.Select); ok {
		having = sel.Pred
		inner = sel.Child
	}
	agg, ok := inner.(*plan.Aggregate)
	if !ok {
		return nil, false
	}
	ev, ok := recognizeAgg(agg)
	if !ok {
		return nil, false
	}
	ev.having = having
	ev.outSchema = proj.Out
	ev.projExprs = proj.Exprs
	return ev, true
}

// RecognizePartial builds the incremental evaluator for a bare
// partial-aggregation plan (Aggregate over Scan, no HAVING/projection) —
// the shape shard pipelines of a partitioned windowed query execute,
// emitting mergeable per-window partials instead of final rows.
func RecognizePartial(p plan.Node) (*IncrementalAggEvaluator, bool) {
	agg, ok := p.(*plan.Aggregate)
	if !ok {
		return nil, false
	}
	ev, ok := recognizeAgg(agg)
	if !ok {
		return nil, false
	}
	// Identity projection: the partial rows ARE the aggregate output.
	ev.outSchema = agg.Out
	for i, c := range agg.Out.Columns {
		ev.projExprs = append(ev.projExprs, &expr.ColRef{Index: i, Name: c.Name, Typ: c.Type})
	}
	return ev, true
}

// recognizeAgg builds the shared core (filter, keys, aggregate states)
// from an Aggregate-over-Scan subtree; callers attach the HAVING and
// projection layer.
func recognizeAgg(agg *plan.Aggregate) (*IncrementalAggEvaluator, bool) {
	scan, ok := agg.Child.(*plan.Scan)
	if !ok {
		return nil, false
	}
	// The scan must emit source columns 1:1 so buffered tuples line up
	// with the plan's column indexes (pruning may reorder; require the
	// identity prefix mapping instead of assuming it).
	remap := map[int]int{}
	for outIdx, srcIdx := range scan.Cols {
		remap[outIdx] = srcIdx
	}
	ev := &IncrementalAggEvaluator{aggSchema: agg.Out}
	if scan.Filter != nil {
		ev.filter = scan.Filter // already over the full source schema
	}
	for _, k := range agg.Keys {
		ev.keys = append(ev.keys, expr.Remap(k, remap))
	}
	for _, a := range agg.Aggs {
		spec := a
		if a.Arg != nil {
			spec.Arg = expr.Remap(a.Arg, remap)
		}
		switch a.Kind {
		case algebra.AggCount, algebra.AggCountAll, algebra.AggCountDistinct,
			algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggAvg:
		default:
			return nil, false
		}
		ev.specs = append(ev.specs, spec)
	}
	return ev, true
}

// Schema implements PaneEvaluator.
func (e *IncrementalAggEvaluator) Schema() *catalog.Schema { return e.outSchema }

// Summarize implements PaneEvaluator.
func (e *IncrementalAggEvaluator) Summarize(pane *storage.Relation) (Summary, error) {
	var cands bat.Candidates // nil: every row
	if e.filter != nil {
		mask, err := expr.Eval(e.filter, pane.Cols, nil)
		if err != nil {
			return nil, err
		}
		cands = algebra.MaskSelect(mask, nil)
	}
	n := pane.NumRows()
	if cands != nil {
		n = len(cands)
	}
	keyVecs := make([]*vector.Vector, len(e.keys))
	for i, k := range e.keys {
		kv, err := expr.Eval(k, pane.Cols, cands)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = kv
	}
	argVecs := make([]*vector.Vector, len(e.specs))
	for i, s := range e.specs {
		if s.Arg == nil {
			continue
		}
		av, err := expr.Eval(s.Arg, pane.Cols, cands)
		if err != nil {
			return nil, err
		}
		argVecs[i] = av
	}

	gids, ngroups, reps := algebra.Group(keyVecs, nil) // nil gids: scalar
	sum := &paneSummary{cols: take(keyVecs, reps)}
	all := bat.All(n)
	for i, s := range e.specs {
		if s.Kind == algebra.AggCountDistinct {
			pair := append(keyVecs[:len(keyVecs):len(keyVecs)], argVecs[i])
			sum.pairs = append(sum.pairs, take(pair, algebra.Distinct(pair, nil)))
			continue
		}
		arg := argVecs[i]
		if s.Kind == algebra.AggAvg {
			arg = algebra.Float(arg)
		}
		for _, k := range partialKinds(s.Kind) {
			sum.cols = append(sum.cols, algebra.Aggregate(k, arg, all, gids, ngroups))
		}
	}
	return sum, nil
}

// Merge implements PaneEvaluator. One pane's partials are its result
// already; several panes' are concatenated, regrouped by key, and folded.
func (e *IncrementalAggEvaluator) Merge(panes []Summary) (*storage.Relation, error) {
	if len(panes) == 0 {
		return nil, fmt.Errorf("window: merge of no panes")
	}
	sums := make([]*paneSummary, len(panes))
	for i, p := range panes {
		ps, ok := p.(*paneSummary)
		if !ok {
			return nil, fmt.Errorf("window: unexpected summary type %T", p)
		}
		sums[i] = ps
	}
	nk := len(e.keys)
	cols := sums[0].cols
	if len(sums) > 1 && len(cols) > 0 {
		cols = concat(sums, func(s *paneSummary) []*vector.Vector { return s.cols })
		gids, ngroups, reps := algebra.Group(cols[:nk], nil)
		folded := append(take(cols[:nk], reps), make([]*vector.Vector, len(cols)-nk)...)
		all := bat.All(cols[0].Len())
		c := nk
		for _, s := range e.specs {
			for _, k := range partialKinds(s.Kind) {
				mk, _ := k.Merge()
				folded[c] = algebra.Aggregate(mk, cols[c], all, gids, ngroups)
				c++
			}
		}
		cols = folded
	}

	// The aggregate output [keys…, aggs…].
	aggRel := &storage.Relation{Schema: e.aggSchema, Cols: append([]*vector.Vector(nil), cols[:nk]...)}
	c, d := nk, 0
	for _, s := range e.specs {
		switch s.Kind {
		case algebra.AggCountDistinct:
			aggRel.Cols = append(aggRel.Cols, countDistinct(cols[:nk], sums, d))
			d++
		case algebra.AggAvg:
			aggRel.Cols = append(aggRel.Cols, algebra.Avg(cols[c], cols[c+1]))
			c += 2
		default:
			aggRel.Cols = append(aggRel.Cols, cols[c])
			c++
		}
	}

	// HAVING.
	cands := bat.All(aggRel.NumRows())
	if e.having != nil {
		mask, err := expr.Eval(e.having, aggRel.Cols, nil)
		if err != nil {
			return nil, err
		}
		cands = algebra.MaskSelect(mask, nil)
	}
	// Projection.
	out := &storage.Relation{Schema: e.outSchema, Cols: make([]*vector.Vector, len(e.projExprs))}
	for i, pe := range e.projExprs {
		col, err := expr.Eval(pe, aggRel.Cols, cands)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = col
	}
	return out, nil
}

// countDistinct finishes the d-th COUNT(DISTINCT) aggregate of a window:
// the panes' distinct (keys…, argument) pairs, concatenated, are counted
// per merged group (keys), each distinct non-NULL argument once.
func countDistinct(keys []*vector.Vector, sums []*paneSummary, d int) *vector.Vector {
	pairs := concat(sums, func(s *paneSummary) []*vector.Vector { return s.pairs[d] })
	nk := len(keys)
	arg := pairs[nk]
	if nk == 0 {
		return algebra.Aggregate(algebra.AggCountDistinct, arg, nil, nil, 0)
	}
	// Number the pairs' keys by the merged groups: those come first and
	// are distinct, so they keep ids 0…ngroups-1.
	both := make([]*vector.Vector, nk)
	for j, k := range keys {
		both[j] = vector.NewWithCap(k.Type(), k.Len()+arg.Len())
		both[j].AppendVector(k)
		both[j].AppendVector(pairs[j])
	}
	gids, _, _ := algebra.Group(both, nil)
	ngroups := keys[0].Len()
	return algebra.Aggregate(algebra.AggCountDistinct, arg, nil, gids[ngroups:], ngroups)
}

// concat appends, column by column, the columns part selects from every
// pane summary.
func concat(sums []*paneSummary, part func(*paneSummary) []*vector.Vector) []*vector.Vector {
	first := part(sums[0])
	if len(sums) == 1 {
		return first
	}
	out := make([]*vector.Vector, len(first))
	for j, c := range first {
		n := 0
		for _, s := range sums {
			n += part(s)[j].Len()
		}
		out[j] = vector.NewWithCap(c.Type(), n)
		for _, s := range sums {
			out[j].AppendVector(part(s)[j])
		}
	}
	return out
}

// take gathers the rows at pos from every column.
func take(cols []*vector.Vector, pos []int) []*vector.Vector {
	out := make([]*vector.Vector, len(cols))
	for j, c := range cols {
		out[j] = c.Take(pos)
	}
	return out
}
