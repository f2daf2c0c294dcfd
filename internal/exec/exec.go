// Package exec is the physical executor: it runs logical plans with the
// kernel's bulk operators, producing materialized relations. A factory
// executes its compiled plan here on every firing; the Context carries the
// snapshot overrides and collects basket-expression consumption so the
// factory can remove the referenced tuples afterwards.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Context carries per-execution state.
type Context struct {
	// Catalog resolves scan sources.
	Catalog *catalog.Catalog
	// Overrides, when set, pin a scan source to a fixed chunked view
	// instead of a live catalog snapshot. Keys are lower-case source
	// names. Factories use this to run a plan against the snapshot they
	// locked; wrap flat columns with bat.ViewOf.
	Overrides map[string]bat.View
	// Restrict, when it maps a source (lower-case name) to a non-nil
	// candidate list, makes scans of that source read only those sorted
	// view-relative positions — a caller that already knows which rows
	// can matter (the shared scan's predicate index) hands the plan
	// O(candidates) rows instead of the whole view. The plan above the scan
	// is unchanged and stays the only authority on what matches.
	Restrict map[string]bat.Candidates
	// Consumed collects, per basket, the snapshot positions referenced by
	// consuming scans. The caller applies the removal (§2.6: "all tuples
	// referenced in a basket expression are removed … automatically").
	Consumed map[string]bat.Candidates
	// Joins binds plan Join nodes to persistent streaming join state: the
	// node's children then feed the state's delta probe instead of a
	// batch hash join. Factories install their StreamJoin here per
	// firing.
	Joins map[*plan.Join]IncrementalJoin
}

// IncrementalJoin is persistent cross-firing join state for one plan
// Join node. Probe receives an evaluator for the node's children and
// returns only the new matches this firing produced.
type IncrementalJoin interface {
	Probe(eval func(plan.Node) (*storage.Relation, error)) (*storage.Relation, error)
}

// NewContext returns a Context over the catalog.
func NewContext(cat *catalog.Catalog) *Context {
	return &Context{
		Catalog:   cat,
		Overrides: map[string]bat.View{},
		Consumed:  map[string]bat.Candidates{},
		Joins:     map[*plan.Join]IncrementalJoin{},
	}
}

// Run executes the plan and returns the result relation.
func Run(n plan.Node, ctx *Context) (*storage.Relation, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return runScan(x, ctx)
	case *plan.Select:
		return runSelect(x, ctx)
	case *plan.Project:
		return runProject(x, ctx)
	case *plan.Join:
		return runJoin(x, ctx)
	case *plan.Aggregate:
		return runAggregate(x, ctx)
	case *plan.Sort:
		return runSort(x, ctx)
	case *plan.Distinct:
		return runDistinct(x, ctx)
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

func sourceView(name string, ctx *Context) (bat.View, error) {
	if view, ok := ctx.Overrides[strings.ToLower(name)]; ok {
		return view, nil
	}
	entry, err := ctx.Catalog.Lookup(name)
	if err != nil {
		return bat.View{}, err
	}
	return entry.Source.Snapshot(), nil
}

// filterCandidates evaluates a boolean predicate over cols, using
// candidate-list theta-selects for `column ⋈ constant` conjuncts (the
// kernel's native selection path) and falling back to mask evaluation for
// the rest. A nil result means "all rows".
func filterCandidates(pred expr.Expr, cols []*vector.Vector, n int) (bat.Candidates, error) {
	var cands bat.Candidates
	var rest []expr.Expr
	for _, c := range expr.SplitConjuncts(pred) {
		col, op, val, ok := thetaConjunct(c)
		if !ok {
			rest = append(rest, c)
			continue
		}
		cands = algebra.ThetaSelect(cols[col], cands, op, val)
	}
	if leftover := expr.JoinConjuncts(rest); leftover != nil {
		mask, err := expr.Eval(leftover, cols, cands)
		if err != nil {
			return nil, err
		}
		cands = algebra.MaskSelect(mask, cands)
	}
	return cands, nil
}

// thetaConjunct recognizes `col ⋈ const` (or the flipped form) conjuncts.
func thetaConjunct(e expr.Expr) (col int, op algebra.CmpOp, val vector.Value, ok bool) {
	b, isBin := e.(*expr.Binary)
	if !isBin || !b.Op.IsComparison() {
		return 0, 0, vector.Value{}, false
	}
	if cr, isCol := b.L.(*expr.ColRef); isCol {
		if c, isConst := b.R.(*expr.Const); isConst && comparable(cr.Typ, c.Val.Typ) {
			return cr.Index, b.Op.CmpOp(), c.Val, true
		}
	}
	if cr, isCol := b.R.(*expr.ColRef); isCol {
		if c, isConst := b.L.(*expr.Const); isConst && comparable(cr.Typ, c.Val.Typ) {
			return cr.Index, flip(b.Op.CmpOp()), c.Val, true
		}
	}
	return 0, 0, vector.Value{}, false
}

// comparable reports whether ThetaSelect can compare the column type with
// the constant type directly (identical types, or int/timestamp pairs).
func comparable(col, c vector.Type) bool {
	if col == c {
		return true
	}
	return (col == vector.Int64 || col == vector.Timestamp) &&
		(c == vector.Int64 || c == vector.Timestamp)
}

// flip mirrors a comparison for swapped operands: const op col → col op' const.
func flip(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.Lt:
		return algebra.Gt
	case algebra.Le:
		return algebra.Ge
	case algebra.Gt:
		return algebra.Lt
	case algebra.Ge:
		return algebra.Le
	default:
		return op // Eq, Ne are symmetric
	}
}

// runScan reads a source one chunk at a time: the filter runs per chunk
// (chunk-local candidate lists shifted by the chunk's base offset into
// view positions) so no flat copy of the source is ever materialized.
func runScan(s *plan.Scan, ctx *Context) (*storage.Relation, error) {
	view, err := sourceView(s.Source, ctx)
	if err != nil {
		return nil, err
	}
	if view.NumCols() != s.Src.Len() {
		return nil, fmt.Errorf("exec: %s has %d columns, plan expects %d", s.Source, view.NumCols(), s.Src.Len())
	}
	n := view.NumRows()
	key := strings.ToLower(s.Source)
	cands := ctx.Restrict[key]
	if s.Filter != nil {
		// Non-nil even when nothing matches (nil means "no filter"); grown
		// by append so the allocation tracks matches, not source depth.
		pass := bat.Candidates{}
		base := 0
		for _, ch := range view.Chunks {
			cn := ch.Len()
			if cn == 0 {
				continue
			}
			cc, err := filterCandidates(s.Filter, ch.Cols, cn)
			if err != nil {
				return nil, err
			}
			if cc == nil {
				for p := 0; p < cn; p++ {
					pass = append(pass, base+p)
				}
			} else {
				for _, p := range cc {
					pass = append(pass, base+p)
				}
			}
			base += cn
		}
		if cands != nil {
			pass = bat.Intersect(cands, pass)
		}
		cands = pass
	}
	if s.Consuming {
		consumed := cands
		if consumed == nil {
			consumed = bat.All(n)
		}
		ctx.Consumed[key] = bat.Union(ctx.Consumed[key], consumed)
	}
	out := &storage.Relation{Schema: s.Out, Cols: make([]*vector.Vector, len(s.Cols))}
	for i, src := range s.Cols {
		if cands == nil {
			out.Cols[i] = view.Column(src)
		} else {
			out.Cols[i] = view.TakeColumn(src, cands)
		}
	}
	return out, nil
}

func runSelect(s *plan.Select, ctx *Context) (*storage.Relation, error) {
	child, err := Run(s.Child, ctx)
	if err != nil {
		return nil, err
	}
	keep, err := filterCandidates(s.Pred, child.Cols, child.NumRows())
	if err != nil {
		return nil, err
	}
	return child.Take(keep), nil
}

func runProject(p *plan.Project, ctx *Context) (*storage.Relation, error) {
	child, err := Run(p.Child, ctx)
	if err != nil {
		return nil, err
	}
	out := &storage.Relation{Schema: p.Out, Cols: make([]*vector.Vector, len(p.Exprs))}
	for i, e := range p.Exprs {
		col, err := expr.Eval(e, child.Cols, nil)
		if err != nil {
			return nil, err
		}
		// A constant expression over an empty input must still be empty.
		if child.NumRows() == 0 && col.Len() != 0 {
			col = vector.New(col.Type())
		}
		out.Cols[i] = col
	}
	return out, nil
}

func runJoin(j *plan.Join, ctx *Context) (*storage.Relation, error) {
	if ij, ok := ctx.Joins[j]; ok {
		return ij.Probe(func(n plan.Node) (*storage.Relation, error) {
			return Run(n, ctx)
		})
	}
	left, err := Run(j.L, ctx)
	if err != nil {
		return nil, err
	}
	right, err := Run(j.R, ctx)
	if err != nil {
		return nil, err
	}
	lw := len(left.Cols)

	var lpos, rpos []int
	var rest []expr.Expr
	hashed := false
	if j.On != nil {
		var lkeyE, rkeyE expr.Expr
		lkeyE, rkeyE, rest = expr.EquiKeys(j.On, lw)
		if lkeyE != nil {
			lkey, err := expr.Eval(lkeyE, left.Cols, nil)
			if err != nil {
				return nil, err
			}
			rkey, err := expr.Eval(rkeyE, right.Cols, nil)
			if err != nil {
				return nil, err
			}
			lpos, rpos = algebra.HashJoin(lkey, rkey, nil, nil)
			hashed = true
		}
	}
	if !hashed {
		// Cross product (no equi key found, or no condition at all); any
		// non-equi condition is applied as the residual filter below.
		ln, rn := left.NumRows(), right.NumRows()
		lpos = make([]int, 0, ln*rn)
		rpos = make([]int, 0, ln*rn)
		for i := 0; i < ln; i++ {
			for k := 0; k < rn; k++ {
				lpos = append(lpos, i)
				rpos = append(rpos, k)
			}
		}
	}
	if j.Within > 0 {
		lts, rts := left.Cols[j.LTs], right.Cols[j.RTs-lw]
		keepL := lpos[:0]
		keepR := rpos[:0]
		for i := range lpos {
			if withinBand(lts.Get(lpos[i]), rts.Get(rpos[i]), j.Within) {
				keepL = append(keepL, lpos[i])
				keepR = append(keepR, rpos[i])
			}
		}
		lpos, rpos = keepL, keepR
	}

	out := &storage.Relation{Schema: j.Out, Cols: make([]*vector.Vector, lw+len(right.Cols))}
	for i, col := range left.Cols {
		out.Cols[i] = col.Take(lpos)
	}
	for i, col := range right.Cols {
		out.Cols[lw+i] = col.Take(rpos)
	}
	if restPred := expr.JoinConjuncts(rest); restPred != nil {
		mask, err := expr.Eval(restPred, out.Cols, nil)
		if err != nil {
			return nil, err
		}
		keep := algebra.MaskSelect(mask, nil)
		out = out.Take(keep)
	}
	return out, nil
}

// withinBand reports whether two timestamps differ by at most d; NULL
// timestamps never satisfy a band.
func withinBand(l, r vector.Value, d int64) bool {
	if l.Null || r.Null {
		return false
	}
	diff := l.I - r.I
	if diff < 0 {
		diff = -diff
	}
	return diff <= d
}

func runAggregate(a *plan.Aggregate, ctx *Context) (*storage.Relation, error) {
	child, err := Run(a.Child, ctx)
	if err != nil {
		return nil, err
	}
	out := &storage.Relation{Schema: a.Out, Cols: make([]*vector.Vector, a.Out.Len())}

	var gids []int
	var ngroups int
	if len(a.Keys) > 0 {
		keyVecs := make([]*vector.Vector, len(a.Keys))
		for i, k := range a.Keys {
			kv, err := expr.Eval(k, child.Cols, nil)
			if err != nil {
				return nil, err
			}
			keyVecs[i] = kv
		}
		var reps []int
		gids, ngroups, reps = algebra.Group(keyVecs, nil)
		for i, kv := range keyVecs {
			out.Cols[i] = kv.Take(reps)
		}
	}

	for i, spec := range a.Aggs {
		var arg *vector.Vector
		if spec.Arg != nil {
			arg, err = expr.Eval(spec.Arg, child.Cols, nil)
			if err != nil {
				return nil, err
			}
		}
		out.Cols[len(a.Keys)+i] = algebra.Aggregate(spec.Kind, arg, bat.All(child.NumRows()), gids, ngroups)
	}
	return out, nil
}

func runDistinct(d *plan.Distinct, ctx *Context) (*storage.Relation, error) {
	child, err := Run(d.Child, ctx)
	if err != nil {
		return nil, err
	}
	keep := algebra.Distinct(child.Cols, nil)
	return child.Take(keep), nil
}

func runSort(s *plan.Sort, ctx *Context) (*storage.Relation, error) {
	child, err := Run(s.Child, ctx)
	if err != nil {
		return nil, err
	}
	order := bat.All(child.NumRows())
	if len(s.Keys) > 0 {
		keyVecs := make([]*vector.Vector, len(s.Keys))
		for i, k := range s.Keys {
			kv, err := expr.Eval(k, child.Cols, nil)
			if err != nil {
				return nil, err
			}
			keyVecs[i] = kv
		}
		order = algebra.SortOrder(keyVecs, s.Desc, nil)
	}
	if s.Limit >= 0 && int64(len(order)) > s.Limit {
		order = order[:s.Limit]
	}
	if len(s.Keys) == 0 && s.Limit < 0 {
		return child, nil
	}
	return child.Take(order), nil
}
