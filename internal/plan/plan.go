// Package plan builds logical query plans from parsed SQL and optimizes
// them. The planner resolves names against the catalog, turns SQL
// expressions into typed expr trees, and produces a small algebra of nodes
// (Scan, Select, Project, Join, Aggregate, Sort) that the executor runs
// with the kernel's bulk operators.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/vector"
)

// Node is a logical plan operator.
type Node interface {
	// Schema describes the node's output columns.
	Schema() *catalog.Schema
	// String renders one line of plan display.
	String() string
}

// Scan reads a table or basket. Filter (over the FULL source schema) is
// applied during the scan; Cols selects which source columns are emitted
// (column pruning). Consuming marks the paper's basket-expression
// side effect: the positions that survive Filter are recorded for removal
// from the underlying basket.
type Scan struct {
	Source    string
	Kind      catalog.SourceKind
	Consuming bool
	Filter    expr.Expr
	Cols      []int
	Src       *catalog.Schema // full source schema (Filter refers to it)
	Out       *catalog.Schema
}

// Schema implements Node.
func (s *Scan) Schema() *catalog.Schema { return s.Out }

// String implements Node.
func (s *Scan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan(%s", s.Source)
	if s.Consuming {
		b.WriteString(", consuming")
	}
	if s.Filter != nil {
		fmt.Fprintf(&b, ", filter=%s", s.Filter)
	}
	b.WriteString(")")
	return b.String()
}

// Select filters rows by a boolean predicate over the child schema.
type Select struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (s *Select) Schema() *catalog.Schema { return s.Child.Schema() }

// String implements Node.
func (s *Select) String() string { return fmt.Sprintf("Select(%s)", s.Pred) }

// Project computes output expressions over the child schema.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Out   *catalog.Schema
}

// Schema implements Node.
func (p *Project) Schema() *catalog.Schema { return p.Out }

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Join combines two inputs; On (which may be nil for a cross product) is a
// predicate over the concatenated schema (left columns first). Within,
// when positive, is a time bound in nanoseconds: rows match only when
// their timestamps (columns LTs and RTs of the concatenated schema)
// differ by at most Within — the join-window of JOIN … ON … WITHIN '5s',
// which also bounds streaming join state.
type Join struct {
	L, R   Node
	On     expr.Expr
	Within int64
	// LTs and RTs index the two sides' timestamp columns in the
	// concatenated schema (valid only when Within > 0).
	LTs, RTs int
	Out      *catalog.Schema
}

// Schema implements Node.
func (j *Join) Schema() *catalog.Schema { return j.Out }

// String implements Node.
func (j *Join) String() string {
	if j.On == nil {
		return "CrossJoin"
	}
	if j.Within > 0 {
		return fmt.Sprintf("Join(%s, within=%dns)", j.On, j.Within)
	}
	return fmt.Sprintf("Join(%s)", j.On)
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Kind algebra.AggKind
	Arg  expr.Expr // nil for COUNT(*)
	Name string
}

// Aggregate groups the child by Keys and computes Aggs per group. Its
// output schema is the keys followed by the aggregates. With no keys it is
// a scalar aggregation producing one row.
type Aggregate struct {
	Child Node
	Keys  []expr.Expr
	Aggs  []AggSpec
	Out   *catalog.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() *catalog.Schema { return a.Out }

// String implements Node.
func (a *Aggregate) String() string {
	return fmt.Sprintf("Aggregate(keys=%d, aggs=%d)", len(a.Keys), len(a.Aggs))
}

// Distinct removes duplicate rows (SELECT DISTINCT).
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() *catalog.Schema { return d.Child.Schema() }

// String implements Node.
func (d *Distinct) String() string { return "Distinct" }

// Sort orders the child by Keys (over the child schema) and optionally
// truncates to Limit rows. Empty Keys with a Limit is a plain LIMIT.
type Sort struct {
	Child Node
	Keys  []expr.Expr
	Desc  []bool
	Limit int64 // -1 for none
}

// Schema implements Node.
func (s *Sort) Schema() *catalog.Schema { return s.Child.Schema() }

// String implements Node.
func (s *Sort) String() string {
	return fmt.Sprintf("Sort(keys=%d, limit=%d)", len(s.Keys), s.Limit)
}

// Walk calls fn for every node of the plan tree in pre-order — the one
// traversal analyzers build on, so adding a node type means extending
// exactly this switch.
func Walk(n Node, fn func(Node)) {
	fn(n)
	switch x := n.(type) {
	case *Select:
		Walk(x.Child, fn)
	case *Project:
		Walk(x.Child, fn)
	case *Aggregate:
		Walk(x.Child, fn)
	case *Distinct:
		Walk(x.Child, fn)
	case *Sort:
		Walk(x.Child, fn)
	case *Join:
		Walk(x.L, fn)
		Walk(x.R, fn)
	}
}

// Explain renders the plan tree, one node per line.
func Explain(n Node) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		switch x := n.(type) {
		case *Select:
			walk(x.Child, depth+1)
		case *Project:
			walk(x.Child, depth+1)
		case *Join:
			walk(x.L, depth+1)
			walk(x.R, depth+1)
		case *Aggregate:
			walk(x.Child, depth+1)
		case *Sort:
			walk(x.Child, depth+1)
		case *Distinct:
			walk(x.Child, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// frame is one name-resolution scope entry: the columns a FROM item
// contributes, at a given offset in the concatenated row.
type frame struct {
	alias      string
	schema     *catalog.Schema
	offset     int
	implicitTS bool // basket scans: hide ts from SELECT *
}

type binder struct {
	frames []frame
}

func (b *binder) width() int {
	if len(b.frames) == 0 {
		return 0
	}
	last := b.frames[len(b.frames)-1]
	return last.offset + last.schema.Len()
}

// resolve turns an identifier into a ColRef over the concatenated schema.
func (b *binder) resolve(id *sql.Ident) (*expr.ColRef, error) {
	if id.Qualifier != "" {
		for _, f := range b.frames {
			if strings.EqualFold(f.alias, id.Qualifier) {
				idx := f.schema.Index(id.Name)
				if idx < 0 {
					return nil, fmt.Errorf("plan: column %q not found in %q", id.Name, id.Qualifier)
				}
				c := f.schema.Columns[idx]
				return &expr.ColRef{Index: f.offset + idx, Name: id.String(), Typ: c.Type}, nil
			}
		}
		return nil, fmt.Errorf("plan: unknown table alias %q", id.Qualifier)
	}
	var found *expr.ColRef
	for _, f := range b.frames {
		idx := f.schema.Index(id.Name)
		if idx < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("plan: ambiguous column %q", id.Name)
		}
		c := f.schema.Columns[idx]
		found = &expr.ColRef{Index: f.offset + idx, Name: id.Name, Typ: c.Type}
	}
	if found == nil {
		return nil, fmt.Errorf("plan: unknown column %q", id.Name)
	}
	return found, nil
}

// Build plans a SELECT statement against the catalog. The statement's
// window clause, if any, is not part of the logical plan — the window layer
// handles it (see internal/window).
func Build(sel *sql.SelectStmt, cat *catalog.Catalog) (Node, error) {
	return BuildWithEventTime(sel, cat, "")
}

// BuildWithEventTime plans like Build but resolves JOIN ... WITHIN time
// bounds against the named event-time column instead of the implicit
// arrival ts column (the engine's timestamp = col option). The column
// must exist, uniquely, on both join inputs and be INT or TIMESTAMP.
func BuildWithEventTime(sel *sql.SelectStmt, cat *catalog.Catalog, tsCol string) (Node, error) {
	n, _, err := build(sel, cat, tsCol)
	if err != nil {
		return nil, err
	}
	return Optimize(n), nil
}

// BuildUnoptimized plans without running the optimizer: the reference
// plan the tests run Optimize's output against.
func BuildUnoptimized(sel *sql.SelectStmt, cat *catalog.Catalog) (Node, error) {
	n, _, err := build(sel, cat, "")
	return n, err
}

func build(sel *sql.SelectStmt, cat *catalog.Catalog, tsCol string) (Node, *binder, error) {
	if len(sel.From) == 0 {
		return nil, nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	b := &binder{}
	var root Node
	for i := range sel.From {
		item := &sel.From[i]
		child, fr, err := buildFromItem(item, cat)
		if err != nil {
			return nil, nil, err
		}
		fr.offset = b.width()
		b.frames = append(b.frames, fr)
		if root == nil {
			root = child
			continue
		}
		out := &catalog.Schema{}
		out.Columns = append(out.Columns, root.Schema().Columns...)
		out.Columns = append(out.Columns, child.Schema().Columns...)
		join := &Join{L: root, R: child, Out: out}
		if item.JoinOn != nil {
			on, err := resolveExpr(item.JoinOn, b, false)
			if err != nil {
				return nil, nil, err
			}
			if on.Type() != vector.Bool {
				return nil, nil, fmt.Errorf("plan: JOIN condition must be boolean")
			}
			join.On = expr.Fold(on)
		}
		if item.Within > 0 {
			tsName := tsCol
			if tsName == "" {
				tsName = catalog.TimestampColumn
			}
			lts, err := soleTimestamp(root.Schema(), tsName, "left")
			if err != nil {
				return nil, nil, err
			}
			rts, err := soleTimestamp(child.Schema(), tsName, "right")
			if err != nil {
				return nil, nil, err
			}
			join.Within = item.Within
			join.LTs = lts
			join.RTs = root.Schema().Len() + rts
		}
		root = join
	}

	if sel.Where != nil {
		pred, err := resolveExpr(sel.Where, b, false)
		if err != nil {
			return nil, nil, err
		}
		if pred.Type() != vector.Bool {
			return nil, nil, fmt.Errorf("plan: WHERE must be boolean, got %s", pred.Type())
		}
		root = &Select{Child: root, Pred: expr.Fold(pred)}
	}

	// Expand the select list; detect aggregation.
	items, err := expandStars(sel.Items, b)
	if err != nil {
		return nil, nil, err
	}
	hasAgg := sel.GroupBy != nil || sel.Having != nil
	for _, it := range items {
		if containsCall(it.Expr) {
			hasAgg = true
		}
	}

	var outNames []string
	var outExprs []expr.Expr
	if hasAgg {
		root, outExprs, outNames, err = buildAggregate(sel, items, root, b)
		if err != nil {
			return nil, nil, err
		}
	} else {
		for _, it := range items {
			e, err := resolveExpr(it.Expr, b, false)
			if err != nil {
				return nil, nil, err
			}
			outExprs = append(outExprs, expr.Fold(e))
			outNames = append(outNames, itemName(it))
		}
	}

	out := &catalog.Schema{}
	for i, e := range outExprs {
		out.Columns = append(out.Columns, catalog.Column{Name: outNames[i], Type: e.Type()})
	}

	// SELECT DISTINCT wraps the projected rows.
	dedupe := func(n Node) Node {
		if sel.Distinct {
			return &Distinct{Child: n}
		}
		return n
	}

	// ORDER BY / LIMIT. Keys are resolved against the projected output
	// first (aliases and output names); if any key only resolves against
	// the pre-projection input, the whole sort is planned below the
	// row-wise Project, which commutes with it.
	if len(sel.OrderBy) == 0 && sel.Limit < 0 {
		return dedupe(&Project{Child: root, Exprs: outExprs, Out: out}), b, nil
	}
	var desc []bool
	for _, o := range sel.OrderBy {
		desc = append(desc, o.Desc)
	}
	outBinder := &binder{frames: []frame{{alias: "", schema: out}}}
	outKeys, errOut := resolveAll(sel.OrderBy, outBinder)
	if errOut == nil {
		proj := dedupe(&Project{Child: root, Exprs: outExprs, Out: out})
		return &Sort{Child: proj, Keys: outKeys, Desc: desc, Limit: sel.Limit}, b, nil
	}
	if hasAgg {
		return nil, nil, fmt.Errorf("plan: ORDER BY must reference output columns: %w", errOut)
	}
	inKeys, errIn := resolveAll(sel.OrderBy, b)
	if errIn != nil {
		return nil, nil, fmt.Errorf("plan: ORDER BY must reference output or input columns: %w", errOut)
	}
	sorted := &Sort{Child: root, Keys: inKeys, Desc: desc, Limit: sel.Limit}
	return dedupe(&Project{Child: sorted, Exprs: outExprs, Out: out}), b, nil
}

// soleTimestamp finds the single time column of one join side for a
// WITHIN bound; zero or several candidates make the bound meaningless (a
// table side has no arrival stamp, a multi-basket side an ambiguous one).
func soleTimestamp(s *catalog.Schema, name, side string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			if found >= 0 {
				return 0, fmt.Errorf("plan: WITHIN is ambiguous — the %s join input has several %q columns", side, name)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("plan: WITHIN needs a %q column on the %s join input", name, side)
	}
	switch s.Columns[found].Type {
	case vector.Int64, vector.Timestamp:
	default:
		return 0, fmt.Errorf("plan: WITHIN column %q on the %s join input must be INT or TIMESTAMP, is %s",
			name, side, s.Columns[found].Type)
	}
	return found, nil
}

func resolveAll(items []sql.OrderItem, b *binder) ([]expr.Expr, error) {
	var keys []expr.Expr
	for _, o := range items {
		k, err := resolveExpr(o.Expr, b, false)
		if err != nil {
			return nil, err
		}
		keys = append(keys, expr.Fold(k))
	}
	return keys, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if id, ok := it.Expr.(*sql.Ident); ok {
		return id.Name
	}
	if c, ok := it.Expr.(*sql.CallExpr); ok {
		return strings.ToLower(c.Name)
	}
	return "col"
}

// buildFromItem plans a single FROM entry and returns its frame.
func buildFromItem(item *sql.FromItem, cat *catalog.Catalog) (Node, frame, error) {
	if item.Sub != nil {
		if item.Basket {
			return buildBasketExpr(item, cat)
		}
		sub, _, err := build(item.Sub, cat, "")
		if err != nil {
			return nil, frame{}, err
		}
		return sub, frame{alias: item.Alias, schema: sub.Schema()}, nil
	}
	entry, err := cat.Lookup(item.Table)
	if err != nil {
		return nil, frame{}, err
	}
	alias := item.Alias
	if alias == "" {
		alias = item.Table
	}
	src := entry.Source.Schema()
	scan := &Scan{
		Source: entry.Name,
		Kind:   entry.Kind,
		Cols:   allCols(src.Len()),
		Src:    src,
		Out:    src,
	}
	return scan, frame{alias: alias, schema: src, implicitTS: entry.Kind == catalog.KindBasket}, nil
}

// buildBasketExpr plans the paper's `[select … from B where …]` construct.
// The inner query must read exactly one basket; its WHERE becomes the scan
// filter, and the scan is marked consuming so the referenced tuples are
// removed from the basket after execution.
func buildBasketExpr(item *sql.FromItem, cat *catalog.Catalog) (Node, frame, error) {
	inner := item.Sub
	if len(inner.From) != 1 || inner.From[0].Table == "" {
		return nil, frame{}, fmt.Errorf("plan: basket expression must read exactly one basket")
	}
	if inner.GroupBy != nil || inner.Having != nil || len(inner.OrderBy) > 0 || inner.Limit >= 0 || inner.Window != nil {
		return nil, frame{}, fmt.Errorf("plan: basket expression supports only SELECT-FROM-WHERE")
	}
	entry, err := cat.Lookup(inner.From[0].Table)
	if err != nil {
		return nil, frame{}, err
	}
	if entry.Kind != catalog.KindBasket {
		return nil, frame{}, fmt.Errorf("plan: basket expression over %q, which is a %s", entry.Name, entry.Kind)
	}
	src := entry.Source.Schema()
	innerAlias := inner.From[0].Alias
	if innerAlias == "" {
		innerAlias = inner.From[0].Table
	}
	ib := &binder{frames: []frame{{alias: innerAlias, schema: src, implicitTS: true}}}

	scan := &Scan{
		Source:    entry.Name,
		Kind:      entry.Kind,
		Consuming: true,
		Cols:      allCols(src.Len()),
		Src:       src,
		Out:       src,
	}
	if inner.Where != nil {
		pred, err := resolveExpr(inner.Where, ib, false)
		if err != nil {
			return nil, frame{}, err
		}
		if pred.Type() != vector.Bool {
			return nil, frame{}, fmt.Errorf("plan: basket expression WHERE must be boolean")
		}
		scan.Filter = expr.Fold(pred)
	}

	// Inner projection (a bare * keeps the scan as-is).
	star := len(inner.Items) == 1 && inner.Items[0].Star
	if star {
		return scan, frame{alias: item.Alias, schema: src, implicitTS: true}, nil
	}
	items, err := expandStars(inner.Items, ib)
	if err != nil {
		return nil, frame{}, err
	}
	var exprs []expr.Expr
	out := &catalog.Schema{}
	for _, it := range items {
		e, err := resolveExpr(it.Expr, ib, false)
		if err != nil {
			return nil, frame{}, err
		}
		if containsCall(it.Expr) {
			return nil, frame{}, fmt.Errorf("plan: aggregates are not allowed inside a basket expression")
		}
		exprs = append(exprs, expr.Fold(e))
		out.Columns = append(out.Columns, catalog.Column{Name: itemName(it), Type: e.Type()})
	}
	proj := &Project{Child: scan, Exprs: exprs, Out: out}
	return proj, frame{alias: item.Alias, schema: out}, nil
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// expandStars replaces * items with one item per visible column (hiding
// the implicit basket ts column).
func expandStars(items []sql.SelectItem, b *binder) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, f := range b.frames {
			for _, c := range f.schema.Columns {
				if f.implicitTS && strings.EqualFold(c.Name, catalog.TimestampColumn) {
					continue
				}
				out = append(out, sql.SelectItem{
					Expr: &sql.Ident{Qualifier: f.alias, Name: c.Name},
				})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

func containsCall(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.CallExpr:
		return true
	case *sql.UnaryExpr:
		return containsCall(x.E)
	case *sql.BinaryExpr:
		return containsCall(x.L) || containsCall(x.R)
	case *sql.IsNullExpr:
		return containsCall(x.E)
	default:
		return false
	}
}

// resolveExpr lowers a SQL expression into a typed expr tree. Aggregate
// calls are rejected unless allowCalls (they are handled by
// buildAggregate, which replaces them before resolution).
func resolveExpr(e sql.Expr, b *binder, allowCalls bool) (expr.Expr, error) {
	switch x := e.(type) {
	case *sql.Ident:
		return b.resolve(x)
	case *sql.Lit:
		return &expr.Const{Val: x.Val}, nil
	case *sql.UnaryExpr:
		inner, err := resolveExpr(x.E, b, allowCalls)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			if inner.Type() != vector.Bool {
				return nil, fmt.Errorf("plan: NOT over %s", inner.Type())
			}
			return &expr.Not{E: inner}, nil
		}
		if !inner.Type().Numeric() {
			return nil, fmt.Errorf("plan: unary minus over %s", inner.Type())
		}
		return &expr.Neg{E: inner}, nil
	case *sql.BinaryExpr:
		l, err := resolveExpr(x.L, b, allowCalls)
		if err != nil {
			return nil, err
		}
		r, err := resolveExpr(x.R, b, allowCalls)
		if err != nil {
			return nil, err
		}
		op, err := binOp(x.Op)
		if err != nil {
			return nil, err
		}
		l, r = retypeNulls(l, r)
		if err := checkBinary(op, l, r); err != nil {
			return nil, err
		}
		return &expr.Binary{Op: op, L: l, R: r}, nil
	case *sql.IsNullExpr:
		inner, err := resolveExpr(x.E, b, allowCalls)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: inner, Negate: x.Not}, nil
	case *sql.CallExpr:
		return nil, fmt.Errorf("plan: aggregate %s not allowed here", x.Name)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func binOp(op string) (expr.BinOp, error) {
	switch op {
	case "+":
		return expr.Add, nil
	case "-":
		return expr.Sub, nil
	case "*":
		return expr.Mul, nil
	case "/":
		return expr.Div, nil
	case "%":
		return expr.Mod, nil
	case "=":
		return expr.CmpEq, nil
	case "<>":
		return expr.CmpNe, nil
	case "<":
		return expr.CmpLt, nil
	case "<=":
		return expr.CmpLe, nil
	case ">":
		return expr.CmpGt, nil
	case ">=":
		return expr.CmpGe, nil
	case "AND":
		return expr.And, nil
	case "OR":
		return expr.Or, nil
	default:
		return 0, fmt.Errorf("plan: unknown operator %q", op)
	}
}

// retypeNulls gives untyped NULL literals the type of their peer operand,
// so evaluation never sees an Unknown-typed column.
func retypeNulls(l, r expr.Expr) (expr.Expr, expr.Expr) {
	if c, ok := l.(*expr.Const); ok && c.Val.Null && c.Val.Typ == vector.Unknown {
		l = &expr.Const{Val: vector.NullValue(r.Type())}
	}
	if c, ok := r.(*expr.Const); ok && c.Val.Null && c.Val.Typ == vector.Unknown {
		r = &expr.Const{Val: vector.NullValue(l.Type())}
	}
	return l, r
}

func checkBinary(op expr.BinOp, l, r expr.Expr) error {
	lt, rt := l.Type(), r.Type()
	// NULL literals adopt any type.
	if lt == vector.Unknown || rt == vector.Unknown {
		return nil
	}
	switch {
	case op == expr.And || op == expr.Or:
		if lt != vector.Bool || rt != vector.Bool {
			return fmt.Errorf("plan: %s needs booleans, got %s and %s", op, lt, rt)
		}
	case op.IsComparison():
		if lt != rt && !(lt.Numeric() && rt.Numeric()) {
			return fmt.Errorf("plan: cannot compare %s with %s", lt, rt)
		}
	case op == expr.Add && lt == vector.String && rt == vector.String:
		return nil
	default:
		if !lt.Numeric() || !rt.Numeric() {
			return fmt.Errorf("plan: %s needs numeric operands, got %s and %s", op, lt, rt)
		}
	}
	return nil
}

// buildAggregate plans GROUP BY / aggregate queries. It produces an
// Aggregate node whose output is [keys…, aggs…], then rewrites the select
// items (and HAVING) to reference that output.
func buildAggregate(sel *sql.SelectStmt, items []sql.SelectItem, child Node, b *binder) (Node, []expr.Expr, []string, error) {
	agg := &Aggregate{Child: child}
	keyOf := map[string]int{} // resolved-expr string → key slot

	for _, g := range sel.GroupBy {
		k, err := resolveExpr(g, b, false)
		if err != nil {
			return nil, nil, nil, err
		}
		k = expr.Fold(k)
		if _, dup := keyOf[k.String()]; !dup {
			keyOf[k.String()] = len(agg.Keys)
			agg.Keys = append(agg.Keys, k)
		}
	}

	aggOf := map[string]int{} // call signature → agg slot
	addAgg := func(c *sql.CallExpr) (int, vector.Type, error) {
		kind, err := aggKind(c)
		if err != nil {
			return 0, vector.Unknown, err
		}
		var arg expr.Expr
		sig := "COUNT(*)"
		if !c.Star {
			arg, err = resolveExpr(c.Arg, b, false)
			if err != nil {
				return 0, vector.Unknown, err
			}
			arg = expr.Fold(arg)
			if kind != algebra.AggCount && kind != algebra.AggCountDistinct &&
				kind != algebra.AggMin && kind != algebra.AggMax && !arg.Type().Numeric() {
				return 0, vector.Unknown, fmt.Errorf("plan: %s over %s", c.Name, arg.Type())
			}
			sig = fmt.Sprintf("%s(%s)", c.Name, arg)
			if c.Distinct {
				sig = fmt.Sprintf("%s(DISTINCT %s)", c.Name, arg)
			}
		}
		if slot, ok := aggOf[sig]; ok {
			return slot, aggType(kind, arg), nil
		}
		slot := len(agg.Aggs)
		aggOf[sig] = slot
		agg.Aggs = append(agg.Aggs, AggSpec{Kind: kind, Arg: arg, Name: strings.ToLower(c.Name)})
		return slot, aggType(kind, arg), nil
	}

	// rewrite maps a select-list/having expression over the aggregate's
	// output: aggregate calls become ColRefs to agg slots; subexpressions
	// equal to a group key become ColRefs to key slots.
	nkeysOffset := func(slot int) int { return len(agg.Keys) + slot }
	var rewrite func(e sql.Expr) (expr.Expr, error)
	rewrite = func(e sql.Expr) (expr.Expr, error) {
		if c, ok := e.(*sql.CallExpr); ok {
			slot, typ, err := addAgg(c)
			if err != nil {
				return nil, err
			}
			return &expr.ColRef{Index: nkeysOffset(slot), Name: strings.ToLower(c.Name), Typ: typ}, nil
		}
		// Try to match the whole expression against a group key.
		if resolved, err := resolveExpr(e, b, false); err == nil {
			if slot, ok := keyOf[expr.Fold(resolved).String()]; ok {
				k := agg.Keys[slot]
				return &expr.ColRef{Index: slot, Name: keyName(k), Typ: k.Type()}, nil
			}
			if _, isLit := e.(*sql.Lit); isLit {
				return resolved, nil
			}
		}
		switch x := e.(type) {
		case *sql.UnaryExpr:
			inner, err := rewrite(x.E)
			if err != nil {
				return nil, err
			}
			if x.Op == "NOT" {
				return &expr.Not{E: inner}, nil
			}
			return &expr.Neg{E: inner}, nil
		case *sql.BinaryExpr:
			l, err := rewrite(x.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(x.R)
			if err != nil {
				return nil, err
			}
			op, err := binOp(x.Op)
			if err != nil {
				return nil, err
			}
			l, r = retypeNulls(l, r)
			if err := checkBinary(op, l, r); err != nil {
				return nil, err
			}
			return &expr.Binary{Op: op, L: l, R: r}, nil
		case *sql.IsNullExpr:
			inner, err := rewrite(x.E)
			if err != nil {
				return nil, err
			}
			return &expr.IsNull{E: inner, Negate: x.Not}, nil
		case *sql.Lit:
			return &expr.Const{Val: x.Val}, nil
		default:
			return nil, fmt.Errorf("plan: %s must appear in GROUP BY or inside an aggregate", sql.ExprString(e))
		}
	}

	var outExprs []expr.Expr
	var outNames []string
	for _, it := range items {
		e, err := rewrite(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		outExprs = append(outExprs, expr.Fold(e))
		outNames = append(outNames, itemName(it))
	}

	var havingPred expr.Expr
	if sel.Having != nil {
		h, err := rewrite(sel.Having)
		if err != nil {
			return nil, nil, nil, err
		}
		if h.Type() != vector.Bool {
			return nil, nil, nil, fmt.Errorf("plan: HAVING must be boolean")
		}
		havingPred = expr.Fold(h)
	}

	// Aggregate output schema: keys then aggs.
	out := &catalog.Schema{}
	for _, k := range agg.Keys {
		out.Columns = append(out.Columns, catalog.Column{Name: keyName(k), Type: k.Type()})
	}
	for _, a := range agg.Aggs {
		out.Columns = append(out.Columns, catalog.Column{Name: a.Name, Type: aggType(a.Kind, a.Arg)})
	}
	agg.Out = out

	var root Node = agg
	if havingPred != nil {
		root = &Select{Child: root, Pred: havingPred}
	}
	return root, outExprs, outNames, nil
}

func keyName(k expr.Expr) string {
	if c, ok := k.(*expr.ColRef); ok {
		return c.Name
	}
	return k.String()
}

func aggType(kind algebra.AggKind, arg expr.Expr) vector.Type {
	in := vector.Int64
	if arg != nil {
		in = arg.Type()
	}
	return kind.ResultType(in)
}

func aggKind(c *sql.CallExpr) (algebra.AggKind, error) {
	switch c.Name {
	case "COUNT":
		if c.Star {
			return algebra.AggCountAll, nil
		}
		if c.Distinct {
			return algebra.AggCountDistinct, nil
		}
		return algebra.AggCount, nil
	case "SUM":
		return algebra.AggSum, nil
	case "MIN":
		return algebra.AggMin, nil
	case "MAX":
		return algebra.AggMax, nil
	case "AVG":
		return algebra.AggAvg, nil
	default:
		return 0, fmt.Errorf("plan: unknown aggregate %q", c.Name)
	}
}
