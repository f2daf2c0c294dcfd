// Package route implements the predicate index behind shared-scan
// multi-query execution: a discrimination network over the selection
// predicates of the continuous queries registered on one stream. Each
// ingested batch is probed against the index once, and the probe answers
// per row, not per batch: every matched entry comes back with the
// candidate row positions its anchor admits, so the caller evaluates the
// entry's plan over those rows only.
//
//   - An equality anchor (column = constant) hashes into a per-column
//     bucket. One pass per indexed column groups the batch's row positions
//     by bucket key; the entries of one bucket share one list.
//   - A range anchor (an interval over one numeric column) gets its rows
//     from one typed pass over the column, skipped when the column's batch
//     min/max cannot overlap the interval.
//   - Residual entries (no indexable atom) and pending entries (added
//     since the last rebuild) get all rows.
//
// A probe therefore costs O(rows × indexed columns + range entries ×
// rows) and hands out O(Σ candidates) row positions, instead of the
// caller paying O(rows) for every entry some row of the batch matches.
//
// The index is copy-on-write: Probe loads an immutable snapshot with one
// atomic read, while Add/Remove build replacement state under a writer
// mutex. Additions park in a pending overlay (matched conservatively as
// all-rows) until the owner calls FlushIfDirty, which folds them into a
// fresh snapshot — this keeps registering N queries O(N) instead of O(N²)
// full rebuilds. The per-probe row lists live in a Scratch the caller
// owns, so the shared snapshot stays immutable.
//
// Matching is conservative by construction, row by row: an anchor atom is
// one conjunct of the entry's predicate, so a row absent from an entry's
// list cannot satisfy its predicate, and a row whose anchor column is
// NULL is in no list (NULL compares unknown, which never selects). A row
// present in a list may still fail the other conjuncts, and anything the
// index cannot normalize falls back to the residual list. The index never
// proves a match — the routed group still evaluates its full plan over
// the candidates — it only proves misses.
package route

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/vector"
)

// Kind classifies the anchor atom a predicate was indexed under.
type Kind uint8

// Anchor kinds.
const (
	// Residual predicates are visited on every batch (no indexable atom).
	Residual Kind = iota
	// Eq predicates anchor on one column = constant conjunct.
	Eq
	// Range predicates anchor on an interval over one numeric column.
	Range
	// Never predicates can never match (e.g. x = NULL, or an empty
	// interval); their entries are not routed at all.
	Never
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Eq:
		return "eq"
	case Range:
		return "range"
	case Never:
		return "never"
	default:
		return "residual"
	}
}

// vkey is a normalized equality-bucket key: the column's value domain
// collapsed to one comparable struct. Keys are normalized from the
// column side's declared type, so a registered constant and a batch
// value for the same column always normalize identically.
type vkey struct {
	kind uint8 // 0 int (Int64/Timestamp), 1 float, 2 string, 3 bool
	i    int64
	f    float64
	s    string
	b    bool
}

const (
	keyInt uint8 = iota
	keyFloat
	keyString
	keyBool
)

// interval is a closed/open bound pair over one numeric column, kept in
// the column's native domain (int64 for Int64/Timestamp, float64 for
// Float64) so routing never loses precision to a cross-domain cast.
// Integer bounds fold strictness in (x > 5 becomes lo=6); float bounds
// carry open flags.
type interval struct {
	isFloat        bool
	hasLo, hasHi   bool
	loI, hiI       int64
	loF, hiF       float64
	loOpen, hiOpen bool // float bounds only
}

func (iv *interval) empty() bool {
	if !iv.hasLo || !iv.hasHi {
		return false
	}
	if iv.isFloat {
		if iv.loF > iv.hiF {
			return true
		}
		return iv.loF == iv.hiF && (iv.loOpen || iv.hiOpen)
	}
	return iv.loI > iv.hiI
}

// Pred is a predicate's routing classification: the anchor atom the
// index discriminates on. Build one with Analyze.
type Pred struct {
	kind Kind
	col  int    // anchor column (Eq/Range)
	name string // anchor column name, for diagnostics
	key  vkey   // Eq anchor
	iv   interval
}

// Kind returns the anchor classification.
func (p Pred) Kind() Kind { return p.kind }

// Describe renders the anchor for EXPLAIN output.
func (p Pred) Describe() string {
	switch p.kind {
	case Eq:
		return fmt.Sprintf("eq(%s)", p.name)
	case Range:
		return fmt.Sprintf("range(%s)", p.name)
	case Never:
		return "never"
	default:
		return "residual"
	}
}

// Analyze classifies a predicate (nil means "no filter") by extracting
// the most selective indexable anchor atom from its top-level conjuncts:
// an equality with a constant if one exists, else the intersected
// constant range over one column, else residual. A conjunct that can
// never hold (x = NULL, an empty range) makes the whole predicate Never.
func Analyze(e expr.Expr) Pred {
	if e == nil {
		return Pred{kind: Residual}
	}
	var eqAnchor *Pred
	type colRange struct {
		name string
		iv   interval
	}
	ranges := map[int]*colRange{}
	order := []int{}
	for _, c := range expr.SplitConjuncts(e) {
		b, ok := c.(*expr.Binary)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, cst, op, ok := comparisonAtom(b)
		if !ok {
			continue
		}
		if cst.Val.Null {
			// A comparison with NULL is never true; the conjunct — and so
			// the whole predicate — cannot match.
			return Pred{kind: Never}
		}
		if op == expr.CmpEq {
			k, st := eqKey(col.Typ, cst.Val)
			switch st {
			case atomNever:
				return Pred{kind: Never}
			case atomOK:
				if eqAnchor == nil {
					eqAnchor = &Pred{kind: Eq, col: col.Index, name: col.Name, key: k}
				}
			}
			continue
		}
		if op == expr.CmpNe {
			continue // excludes one value; useless as an anchor
		}
		iv, st := rangeBound(col.Typ, op, cst.Val)
		switch st {
		case atomNever:
			return Pred{kind: Never}
		case atomSkip:
			continue
		}
		cr := ranges[col.Index]
		if cr == nil {
			cr = &colRange{name: col.Name, iv: iv}
			ranges[col.Index] = cr
			order = append(order, col.Index)
		} else {
			cr.iv = intersect(cr.iv, iv)
		}
		if cr.iv.empty() {
			return Pred{kind: Never}
		}
	}
	if eqAnchor != nil {
		return *eqAnchor
	}
	// Prefer the most constrained column: two-sided bounds beat one-sided.
	best := -1
	bestScore := 0
	for _, col := range order {
		score := 0
		if ranges[col].iv.hasLo {
			score++
		}
		if ranges[col].iv.hasHi {
			score++
		}
		if score > bestScore {
			best, bestScore = col, score
		}
	}
	if best >= 0 {
		return Pred{kind: Range, col: best, name: ranges[best].name, iv: ranges[best].iv}
	}
	return Pred{kind: Residual}
}

// comparisonAtom matches column-op-constant in either orientation,
// flipping the operator when the constant is on the left.
func comparisonAtom(b *expr.Binary) (*expr.ColRef, *expr.Const, expr.BinOp, bool) {
	if col, ok := b.L.(*expr.ColRef); ok {
		if cst, ok := b.R.(*expr.Const); ok {
			return col, cst, b.Op, true
		}
		return nil, nil, 0, false
	}
	cst, ok := b.L.(*expr.Const)
	if !ok {
		return nil, nil, 0, false
	}
	col, ok := b.R.(*expr.ColRef)
	if !ok {
		return nil, nil, 0, false
	}
	return col, cst, flip(b.Op), true
}

func flip(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpLe:
		return expr.CmpGe
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpGe:
		return expr.CmpLe
	default:
		return op // =, <> are symmetric
	}
}

type atomStatus uint8

const (
	atomOK atomStatus = iota
	atomSkip
	atomNever
)

// eqKey normalizes an equality constant into the column's value domain.
func eqKey(colType vector.Type, v vector.Value) (vkey, atomStatus) {
	switch colType {
	case vector.Int64, vector.Timestamp:
		switch v.Typ {
		case vector.Int64, vector.Timestamp:
			return vkey{kind: keyInt, i: v.I}, atomOK
		case vector.Float64:
			if v.F != math.Trunc(v.F) || v.F < math.MinInt64 || v.F >= math.MaxInt64 {
				return vkey{}, atomNever // 3.5 never equals an integer
			}
			return vkey{kind: keyInt, i: int64(v.F)}, atomOK
		}
	case vector.Float64:
		switch v.Typ {
		case vector.Int64, vector.Timestamp, vector.Float64:
			f := v.AsFloat()
			if math.IsNaN(f) {
				return vkey{}, atomNever
			}
			return vkey{kind: keyFloat, f: f}, atomOK
		}
	case vector.String:
		if v.Typ == vector.String {
			return vkey{kind: keyString, s: v.S}, atomOK
		}
	case vector.Bool:
		if v.Typ == vector.Bool {
			return vkey{kind: keyBool, b: v.B}, atomOK
		}
	}
	return vkey{}, atomSkip // cross-type compare the index cannot judge
}

// rangeBound turns one inequality conjunct into a native-domain interval.
func rangeBound(colType vector.Type, op expr.BinOp, v vector.Value) (interval, atomStatus) {
	switch colType {
	case vector.Int64, vector.Timestamp:
		var c int64
		switch v.Typ {
		case vector.Int64, vector.Timestamp:
			c = v.I
		case vector.Float64:
			return floatBoundOnInt(op, v.F)
		default:
			return interval{}, atomSkip
		}
		switch op {
		case expr.CmpLt:
			if c == math.MinInt64 {
				return interval{}, atomNever
			}
			return interval{hasHi: true, hiI: c - 1}, atomOK
		case expr.CmpLe:
			return interval{hasHi: true, hiI: c}, atomOK
		case expr.CmpGt:
			if c == math.MaxInt64 {
				return interval{}, atomNever
			}
			return interval{hasLo: true, loI: c + 1}, atomOK
		case expr.CmpGe:
			return interval{hasLo: true, loI: c}, atomOK
		}
	case vector.Float64:
		if v.Typ != vector.Int64 && v.Typ != vector.Timestamp && v.Typ != vector.Float64 {
			return interval{}, atomSkip
		}
		c := v.AsFloat()
		if math.IsNaN(c) {
			return interval{}, atomNever
		}
		switch op {
		case expr.CmpLt:
			return interval{isFloat: true, hasHi: true, hiF: c, hiOpen: true}, atomOK
		case expr.CmpLe:
			return interval{isFloat: true, hasHi: true, hiF: c}, atomOK
		case expr.CmpGt:
			return interval{isFloat: true, hasLo: true, loF: c, loOpen: true}, atomOK
		case expr.CmpGe:
			return interval{isFloat: true, hasLo: true, loF: c}, atomOK
		}
	}
	return interval{}, atomSkip
}

// floatBoundOnInt bounds an integer column by a float constant: the
// tightest integer bound that keeps every satisfying integer inside.
func floatBoundOnInt(op expr.BinOp, c float64) (interval, atomStatus) {
	if math.IsNaN(c) {
		return interval{}, atomNever
	}
	const lim = float64(math.MaxInt64 / 2) // stay far from int64 edges
	if c > lim {
		if op == expr.CmpLt || op == expr.CmpLe {
			return interval{}, atomSkip // always true for in-range ints
		}
		return interval{}, atomNever
	}
	if c < -lim {
		if op == expr.CmpGt || op == expr.CmpGe {
			return interval{}, atomSkip
		}
		return interval{}, atomNever
	}
	switch op {
	case expr.CmpLt: // largest int < c
		return interval{hasHi: true, hiI: int64(math.Ceil(c)) - 1}, atomOK
	case expr.CmpLe: // largest int <= c
		return interval{hasHi: true, hiI: int64(math.Floor(c))}, atomOK
	case expr.CmpGt: // smallest int > c
		return interval{hasLo: true, loI: int64(math.Floor(c)) + 1}, atomOK
	default: // CmpGe: smallest int >= c
		return interval{hasLo: true, loI: int64(math.Ceil(c))}, atomOK
	}
}

// intersect merges two intervals over the same column. Mixed domains
// cannot arise: the domain is a function of the column type.
func intersect(a, b interval) interval {
	out := a
	if b.hasLo {
		switch {
		case !out.hasLo:
			out.hasLo, out.loI, out.loF, out.loOpen = true, b.loI, b.loF, b.loOpen
		case out.isFloat && (b.loF > out.loF || (b.loF == out.loF && b.loOpen)):
			out.loF, out.loOpen = b.loF, b.loOpen
		case !out.isFloat && b.loI > out.loI:
			out.loI = b.loI
		}
	}
	if b.hasHi {
		switch {
		case !out.hasHi:
			out.hasHi, out.hiI, out.hiF, out.hiOpen = true, b.hiI, b.hiF, b.hiOpen
		case out.isFloat && (b.hiF < out.hiF || (b.hiF == out.hiF && b.hiOpen)):
			out.hiF, out.hiOpen = b.hiF, b.hiOpen
		case !out.isFloat && b.hiI < out.hiI:
			out.hiI = b.hiI
		}
	}
	return out
}

// entry is one indexed predicate with its opaque payload (the caller's
// query group).
type entry struct {
	id      uint64
	payload any
	pred    Pred
}

// bucket is the entries anchored on one (column, key) equality. They
// share one candidate row list per probe, addressed by slot.
type bucket struct {
	slot    int
	entries []*entry
}

// eqColumn holds one indexed column's equality buckets, keyed in the
// column's native domain (only the map of the column's type is filled) so
// the per-row probe hashes a machine word, not a tagged struct.
type eqColumn struct {
	col    int
	ints   map[int64]*bucket // Int64 and Timestamp columns
	floats map[float64]*bucket
	strs   map[string]*bucket
	bools  map[bool]*bucket
}

// state is the immutable matching structure Probe reads with a single
// atomic load: the discrimination network plus the pending overlay of
// entries added since the last rebuild (visited unconditionally). The
// network and the overlay are published together so a concurrent
// rebuild — which moves entries from the overlay into the network, or
// drops removed ones from both — can never leave Probe seeing an entry
// in both places (duplicate routing) or in neither (a silently missed
// batch).
type state struct {
	eq       []*eqColumn
	buckets  []*bucket // by slot
	rngs     []*entry
	residual []*entry
	pending  []*entry
}

var emptyState = &state{}

// Index is the predicate-routing index for one stream.
type Index struct {
	// mu serializes writers (Add/Remove/FlushIfDirty); readers go through
	// the atomic state pointer only.
	mu     sync.Mutex
	master map[uint64]*entry // all registered entries, by id (under mu)
	size   atomic.Int64
	st     atomic.Pointer[state]
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{master: map[uint64]*entry{}}
	ix.st.Store(emptyState)
	return ix
}

// Len returns the number of registered entries (Never entries included).
func (ix *Index) Len() int { return int(ix.size.Load()) }

// Add registers a predicate under id. The entry lands in the pending
// overlay (matched as always-match) until the next FlushIfDirty folds it
// into the snapshot, so registration cost stays flat in index size.
func (ix *Index) Add(id uint64, p Pred, payload any) {
	e := &entry{id: id, payload: payload, pred: p}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.master[id] = e
	ix.size.Add(1)
	if p.kind == Never {
		return // never matches; no need to route it at all
	}
	next := *ix.st.Load()
	next.pending = append(slices.Clone(next.pending), e)
	ix.st.Store(&next)
}

// Remove drops the entry registered under id and publishes a rebuilt
// snapshot, so no later Probe can return its payload.
func (ix *Index) Remove(id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.master[id]; !ok {
		return
	}
	delete(ix.master, id)
	ix.size.Add(-1)
	ix.rebuildLocked()
}

// FlushIfDirty folds pending additions into the discrimination network.
// The scan transition calls it at the top of each firing, so
// steady-state matching never pays the always-visit overlay for long.
func (ix *Index) FlushIfDirty() {
	if len(ix.st.Load().pending) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.st.Load().pending) == 0 {
		return
	}
	ix.rebuildLocked()
}

// rebuildLocked publishes a fresh state from master with an empty
// pending overlay. Caller holds mu.
func (ix *Index) rebuildLocked() {
	next := &state{}
	cols := map[int]*eqColumn{}
	for _, e := range ix.master {
		switch e.pred.kind {
		case Eq:
			c := cols[e.pred.col]
			if c == nil {
				c = &eqColumn{col: e.pred.col}
				cols[e.pred.col] = c
				next.eq = append(next.eq, c)
			}
			b := c.bucketFor(e.pred.key)
			if b.entries == nil {
				b.slot = len(next.buckets)
				next.buckets = append(next.buckets, b)
			}
			b.entries = append(b.entries, e)
		case Range:
			next.rngs = append(next.rngs, e)
		case Residual:
			next.residual = append(next.residual, e)
		}
	}
	ix.st.Store(next)
}

// bucketFor returns the bucket of key k, creating it empty on first use.
func (c *eqColumn) bucketFor(k vkey) *bucket {
	switch k.kind {
	case keyInt:
		return getOrAdd(&c.ints, k.i)
	case keyFloat:
		return getOrAdd(&c.floats, k.f)
	case keyString:
		return getOrAdd(&c.strs, k.s)
	default:
		return getOrAdd(&c.bools, k.b)
	}
}

func getOrAdd[T comparable](m *map[T]*bucket, k T) *bucket {
	if *m == nil {
		*m = map[T]*bucket{}
	}
	b := (*m)[k]
	if b == nil {
		b = &bucket{}
		(*m)[k] = b
	}
	return b
}

// Hit is one entry the batch may satisfy, with the rows that may do so.
type Hit struct {
	Payload any
	// Rows lists, ascending, the batch positions the entry's anchor
	// admits: a position absent from it cannot satisfy the entry's
	// predicate, a position in it may still fail the other conjuncts. Nil
	// means every row (residual and pending entries). Hits of one
	// equality bucket share one list; all lists alias the Scratch.
	Rows bat.Candidates
}

// Scratch is Probe's working memory: the hit list and the candidate row
// lists it points into. The caller owns it, must not use one Scratch
// from two goroutines at once, and may read what Probe returned until it
// passes the same Scratch to Probe again. Call Release when the hits are
// consumed so the scratch does not pin payloads between probes.
type Scratch struct {
	hits    []Hit
	rows    []bat.Candidates // per bucket slot
	touched []int            // slots with at least one row this probe
	ranges  []bat.Candidates // per range entry
	stats   []colStats       // min/max of the range-anchored columns
}

// Release clears the payload references of the last probe's hits.
func (sc *Scratch) Release() { clear(sc.hits) }

// Probe returns every entry the batch may satisfy with its candidate
// rows: residual and pending entries with all rows, an equality entry
// with the rows holding its key (one pass per indexed column groups the
// row positions by bucket, whatever the number of entries), a range entry
// with the rows inside its interval (one typed pass per entry, skipped
// when the column's min/max cannot overlap). NULLs are in no list. An
// entry with no candidate row is not returned. Safe for concurrent use
// with Add/Remove; sc carries the result (see Scratch).
func (ix *Index) Probe(batch bat.View, sc *Scratch) []Hit {
	st := ix.st.Load()
	for _, slot := range sc.touched {
		sc.rows[slot] = sc.rows[slot][:0]
	}
	sc.touched = sc.touched[:0]
	if len(sc.rows) < len(st.buckets) {
		sc.rows = append(sc.rows, make([]bat.Candidates, len(st.buckets)-len(sc.rows))...)
	}
	hits := sc.hits[:0]
	for _, e := range st.residual {
		hits = append(hits, Hit{Payload: e.payload})
	}
	for _, e := range st.pending {
		hits = append(hits, Hit{Payload: e.payload})
	}
	for _, c := range st.eq {
		c.groupRows(batch, sc)
	}
	for _, slot := range sc.touched {
		for _, e := range st.buckets[slot].entries {
			hits = append(hits, Hit{Payload: e.payload, Rows: sc.rows[slot]})
		}
	}
	if len(sc.ranges) < len(st.rngs) {
		sc.ranges = append(sc.ranges, make([]bat.Candidates, len(st.rngs)-len(sc.ranges))...)
	}
	sc.stats = sc.stats[:0]
	for i, e := range st.rngs {
		if !overlaps(&e.pred.iv, sc.columnStats(batch, e.pred.col)) {
			continue
		}
		rows := rangeRows(batch, e.pred.col, &e.pred.iv, sc.ranges[i][:0])
		sc.ranges[i] = rows
		if len(rows) > 0 {
			hits = append(hits, Hit{Payload: e.payload, Rows: rows})
		}
	}
	sc.hits = hits
	return hits
}

// Match appends to out the payloads of every entry the batch may
// satisfy — Probe without the row lists.
func (ix *Index) Match(batch bat.View, out []any) []any {
	var sc Scratch
	for _, h := range ix.Probe(batch, &sc) {
		out = append(out, h.Payload)
	}
	return out
}

// groupRows appends each non-null row position of the column to the list
// of the bucket its value keys — one pass over the rows regardless of
// how many entries anchor on the column.
func (c *eqColumn) groupRows(batch bat.View, sc *Scratch) {
	base := 0
	for _, ch := range batch.Chunks {
		if c.col < len(ch.Cols) {
			v := ch.Cols[c.col]
			switch v.Type() {
			case vector.Int64, vector.Timestamp:
				groupTyped(v.Ints(), v, base, c.ints, sc)
			case vector.Float64:
				groupTyped(v.Floats(), v, base, c.floats, sc)
			case vector.String:
				groupTyped(v.Strings(), v, base, c.strs, sc)
			case vector.Bool:
				groupTyped(v.Bools(), v, base, c.bools, sc)
			}
		}
		base += ch.Len()
	}
}

func groupTyped[T comparable](vals []T, v *vector.Vector, base int, buckets map[T]*bucket, sc *Scratch) {
	if len(buckets) == 0 {
		return
	}
	nulls := v.HasNulls()
	for i, x := range vals {
		b := buckets[x]
		if b == nil || (nulls && v.IsNull(i)) {
			continue
		}
		if len(sc.rows[b.slot]) == 0 {
			sc.touched = append(sc.touched, b.slot)
		}
		sc.rows[b.slot] = append(sc.rows[b.slot], base+i)
	}
}

// rangeRows appends the positions of the column's non-null values inside
// iv. The interval's domain is the column type's, so only the matching
// case runs.
func rangeRows(batch bat.View, col int, iv *interval, out bat.Candidates) bat.Candidates {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // integer bounds are closed
	if iv.hasLo {
		lo = iv.loI
	}
	if iv.hasHi {
		hi = iv.hiI
	}
	// lo <= x <= hi as one unsigned compare: in a sparse interval two
	// signed ones mispredict on different rows.
	span := uint64(hi) - uint64(lo)
	base := 0
	for _, ch := range batch.Chunks {
		if col < len(ch.Cols) {
			v := ch.Cols[col]
			nulls := v.HasNulls()
			switch {
			case !iv.isFloat && (v.Type() == vector.Int64 || v.Type() == vector.Timestamp):
				for i, x := range v.Ints() {
					if uint64(x)-uint64(lo) > span || (nulls && v.IsNull(i)) {
						continue
					}
					out = append(out, base+i)
				}
			case iv.isFloat && v.Type() == vector.Float64:
				for i, x := range v.Floats() {
					if !iv.containsFloat(x) || (nulls && v.IsNull(i)) {
						continue
					}
					out = append(out, base+i)
				}
			}
		}
		base += ch.Len()
	}
	return out
}

// containsFloat reports whether x lies inside a float interval; NaN lies
// in none, as no comparison with it holds.
func (iv *interval) containsFloat(x float64) bool {
	if iv.hasLo && !(x > iv.loF || (x == iv.loF && !iv.loOpen)) {
		return false
	}
	if iv.hasHi && !(x < iv.hiF || (x == iv.hiF && !iv.hiOpen)) {
		return false
	}
	return x == x
}

// colStats caches one column's batch min/max for interval overlap tests.
type colStats struct {
	col        int
	any        bool
	minI, maxI int64
	minF, maxF float64
}

// columnStats returns the batch min/max of one column, skipping nulls,
// computed once per probe per column.
func (sc *Scratch) columnStats(batch bat.View, col int) *colStats {
	for i := range sc.stats {
		if sc.stats[i].col == col {
			return &sc.stats[i]
		}
	}
	sc.stats = append(sc.stats, colStats{col: col})
	st := &sc.stats[len(sc.stats)-1]
	for _, ch := range batch.Chunks {
		if col >= len(ch.Cols) {
			continue
		}
		v := ch.Cols[col]
		nulls := v.HasNulls()
		switch v.Type() {
		case vector.Int64, vector.Timestamp:
			for i, x := range v.Ints() {
				if nulls && v.IsNull(i) {
					continue
				}
				if !st.any {
					st.any, st.minI, st.maxI = true, x, x
				} else if x < st.minI {
					st.minI = x
				} else if x > st.maxI {
					st.maxI = x
				}
			}
		case vector.Float64:
			for i, x := range v.Floats() {
				if nulls && v.IsNull(i) {
					continue
				}
				if !st.any {
					st.any, st.minF, st.maxF = true, x, x
				} else if x < st.minF {
					st.minF = x
				} else if x > st.maxF {
					st.maxF = x
				}
			}
		}
	}
	return st
}

// overlaps reports whether any value in [min, max] can fall inside iv.
func overlaps(iv *interval, st *colStats) bool {
	if !st.any {
		return false
	}
	if iv.isFloat {
		if iv.hasLo && (st.maxF < iv.loF || (st.maxF == iv.loF && iv.loOpen)) {
			return false
		}
		if iv.hasHi && (st.minF > iv.hiF || (st.minF == iv.hiF && iv.hiOpen)) {
			return false
		}
		return true
	}
	if iv.hasLo && st.maxI < iv.loI {
		return false
	}
	if iv.hasHi && st.minI > iv.hiI {
		return false
	}
	return true
}
