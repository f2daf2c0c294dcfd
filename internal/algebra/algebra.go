// Package algebra implements the vectorized relational primitives of the
// kernel: selections producing candidate lists, hash joins, grouping,
// aggregation, sorting, and distinct. Each function is the Go analogue of a
// MAL operator: it consumes whole columns and produces whole columns, the
// operator-at-a-time bulk model the DataCell relies on.
package algebra

import (
	"math"
	"sort"

	"repro/internal/bat"
	"repro/internal/vector"
)

// CmpOp enumerates the comparison operators of theta-selections.
type CmpOp uint8

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return "?"
	}
}

// Holds reports whether the comparison result c (as returned by
// vector.Compare) satisfies the operator.
func (o CmpOp) Holds(c int) bool {
	switch o {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	default:
		return false
	}
}

// ThetaSelect returns the candidates in cands whose value in v satisfies
// `v[i] op val`. NULLs never qualify. A nil cands means all positions.
// Int64/Timestamp and Float64 columns take fast typed paths.
func ThetaSelect(v *vector.Vector, cands bat.Candidates, op CmpOp, val vector.Value) bat.Candidates {
	if cands == nil {
		cands = bat.All(v.Len())
	}
	out := make(bat.Candidates, 0, len(cands))
	if val.Null {
		return out // nothing compares to NULL
	}
	switch v.Type() {
	case vector.Int64, vector.Timestamp:
		xs := v.Ints()
		c := val.AsInt()
		for _, p := range cands {
			if v.IsNull(p) {
				continue
			}
			x := xs[p]
			var cmp int
			switch {
			case x < c:
				cmp = -1
			case x > c:
				cmp = 1
			}
			if op.Holds(cmp) {
				out = append(out, p)
			}
		}
	case vector.Float64:
		xs := v.Floats()
		c := val.AsFloat()
		for _, p := range cands {
			if v.IsNull(p) {
				continue
			}
			x := xs[p]
			var cmp int
			switch {
			case x < c:
				cmp = -1
			case x > c:
				cmp = 1
			}
			if op.Holds(cmp) {
				out = append(out, p)
			}
		}
	default:
		for _, p := range cands {
			if v.IsNull(p) {
				continue
			}
			if op.Holds(vector.Compare(v.Get(p), val)) {
				out = append(out, p)
			}
		}
	}
	return out
}

// RangeSelect returns the candidates whose value lies in the interval
// [lo, hi] with configurable bound inclusivity. NULL bounds mean unbounded
// on that side. NULL values never qualify.
func RangeSelect(v *vector.Vector, cands bat.Candidates, lo, hi vector.Value, loIncl, hiIncl bool) bat.Candidates {
	if cands == nil {
		cands = bat.All(v.Len())
	}
	out := make(bat.Candidates, 0, len(cands))
	for _, p := range cands {
		if v.IsNull(p) {
			continue
		}
		x := v.Get(p)
		if !lo.Null {
			c := vector.Compare(x, lo)
			if c < 0 || (c == 0 && !loIncl) {
				continue
			}
		}
		if !hi.Null {
			c := vector.Compare(x, hi)
			if c > 0 || (c == 0 && !hiIncl) {
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

// MaskSelect filters cands through a Bool vector aligned with cands: the
// i-th candidate survives iff mask[i] is true and not NULL. This is how a
// computed predicate column becomes a candidate list.
func MaskSelect(mask *vector.Vector, cands bat.Candidates) bat.Candidates {
	if cands == nil {
		cands = bat.All(mask.Len())
	}
	out := make(bat.Candidates, 0, len(cands))
	bs := mask.Bools()
	for i, p := range cands {
		if mask.IsNull(i) || !bs[i] {
			continue
		}
		out = append(out, p)
	}
	return out
}

// JoinKeyType is the domain two equi-join keys of types l and r are
// compared in — the one join-key rule every join path shares: identical
// types stay (TIMESTAMP folds into BIGINT, so TIMESTAMP = INT compares
// the instants), and a DOUBLE against an integer compares as DOUBLE,
// matching SQL equality.
func JoinKeyType(l, r vector.Type) vector.Type {
	if (l == vector.Float64 || r == vector.Float64) && l != r {
		return vector.Float64
	}
	if l == vector.Timestamp || l == vector.Int64 {
		return vector.Int64
	}
	return l
}

// JoinKey maps a key value into the domain typ (see JoinKeyType), so that
// hash-map equality of keys coincides with SQL equality. A NULL key stays
// NULL; callers never match it.
func JoinKey(v vector.Value, typ vector.Type) vector.Value {
	if v.Null {
		return vector.NullValue(typ)
	}
	switch typ {
	case vector.Int64:
		return vector.Value{Typ: vector.Int64, I: v.I}
	case vector.Float64:
		f := v.F
		if v.Typ == vector.Int64 || v.Typ == vector.Timestamp {
			f = float64(v.I)
		}
		return vector.Value{Typ: vector.Float64, F: f}
	default:
		v.Typ = typ
		return v
	}
}

// HashJoin matches left[lp] = right[rp] over the given candidate lists and
// returns the aligned position pairs. Keys compare under JoinKeyType;
// NULLs never match. The smaller side is used as the build side.
func HashJoin(left, right *vector.Vector, lc, rc bat.Candidates) (lpos, rpos []int) {
	if lc == nil {
		lc = bat.All(left.Len())
	}
	if rc == nil {
		rc = bat.All(right.Len())
	}
	typ := JoinKeyType(left.Type(), right.Type())
	// Build on the smaller input, probe with the larger.
	if len(lc) <= len(rc) {
		ht := buildHash(left, lc, typ)
		for _, rp := range rc {
			if right.IsNull(rp) {
				continue
			}
			for _, lp := range ht[JoinKey(right.Get(rp), typ)] {
				lpos = append(lpos, lp)
				rpos = append(rpos, rp)
			}
		}
		return lpos, rpos
	}
	ht := buildHash(right, rc, typ)
	for _, lp := range lc {
		if left.IsNull(lp) {
			continue
		}
		for _, rp := range ht[JoinKey(left.Get(lp), typ)] {
			lpos = append(lpos, lp)
			rpos = append(rpos, rp)
		}
	}
	return lpos, rpos
}

func buildHash(v *vector.Vector, cands bat.Candidates, typ vector.Type) map[vector.Value][]int {
	ht := make(map[vector.Value][]int, len(cands))
	for _, p := range cands {
		if v.IsNull(p) {
			continue
		}
		k := JoinKey(v.Get(p), typ)
		ht[k] = append(ht[k], p)
	}
	return ht
}

// FloatKey returns the bits that identify a DOUBLE key's group under the
// grouping-key rule every grouping operator shares: two keys fall in one
// group when they are equal as SQL values, except that -0 equals +0 and
// every NaN, whatever its payload, equals every NaN — so that key
// equality is an equivalence. NULLs of a column form one group of their
// own. Group, and through it DISTINCT, COUNT(DISTINCT), the window panes
// and their merges, applies this rule, and the partition router hashes
// DOUBLE keys by it. Join keys do not: a join compares, and NaN = NaN is
// false there.
func FloatKey(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case math.IsNaN(f):
		return canonicalNaN
	}
	return math.Float64bits(f)
}

var canonicalNaN = math.Float64bits(math.NaN())

// Group assigns a dense group id to every candidate based on the composite
// key formed by the key columns, under the grouping-key rule (FloatKey).
// It returns the group id per candidate (aligned with cands), the number
// of groups, and one representative position per group, the first
// candidate of each group: group ids follow first-seen order. Multi-column
// grouping refines iteratively by (previous group id, value), as
// MonetDB's group.subgroup does; INT and TIMESTAMP keys of a narrow range
// index a slot array, other keys a hash table of typed values.
func Group(keys []*vector.Vector, cands bat.Candidates) (gids []int, ngroups int, reps []int) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	if cands == nil {
		cands = bat.All(keys[0].Len())
	}
	gids = make([]int, len(cands))
	if len(cands) == 0 {
		return gids, 0, nil
	}
	ngroups, reps = 1, []int{cands[0]}
	for _, col := range keys {
		ngroups, reps = refine(col, cands, gids, reps)
	}
	return gids, ngroups, reps
}

// refine splits the len(reps) groups in gids by the values of col, in
// place, and returns the new group count and representatives (reusing
// reps).
func refine(col *vector.Vector, cands bat.Candidates, gids, reps []int) (int, []int) {
	if len(reps) == 0 {
		return 0, reps
	}
	switch col.Type() {
	case vector.Int64, vector.Timestamp:
		xs := col.Ints()
		if lo, width := denseRange(xs, col, cands, len(reps)); width > 0 {
			return refineDense(xs, lo, width, col, cands, gids, reps)
		}
		return refineBy(xs, col, cands, gids, reps)
	case vector.Float64:
		fs := col.Floats()
		bits := make([]uint64, len(fs))
		for i, f := range fs {
			bits[i] = FloatKey(f)
		}
		return refineBy(bits, col, cands, gids, reps)
	case vector.Bool:
		return refineBy(col.Bools(), col, cands, gids, reps)
	case vector.String:
		return refineBy(col.Strings(), col, cands, gids, reps)
	default:
		return len(reps), reps
	}
}

// denseRange returns the smallest candidate value of an integer key
// column and the slot count per group refineDense needs for it (the
// value range plus one slot for NULL), or width 0 when the values spread
// too wide for a slot array to beat a hash table.
func denseRange(xs []int64, col *vector.Vector, cands bat.Candidates, ngroups int) (lo int64, width int) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, p := range cands {
		if !col.IsNull(p) {
			lo, hi = min(lo, xs[p]), max(hi, xs[p])
		}
	}
	if lo > hi { // all NULL
		lo, hi = 0, 0
	}
	// The array holds at most 2·rows + 256 slots, so its memory stays
	// linear in the input, as the hash table's is.
	span := uint64(hi) - uint64(lo)
	if limit := uint64(2*len(cands)+256) / uint64(ngroups); limit < 2 || span >= limit-1 {
		return 0, 0
	}
	return lo, int(span) + 2
}

// refineDense is refineBy for integer keys of a narrow range: slot
// (previous group, value - lo) of an array, the last slot of each group
// holding NULL, replaces the hash table.
func refineDense(xs []int64, lo int64, width int, col *vector.Vector, cands bat.Candidates, gids, reps []int) (int, []int) {
	slots := make([]int, len(reps)*width) // group id + 1; 0 = not seen
	reps = reps[:0]
	for i, p := range cands {
		s := gids[i]*width + width - 1
		if !col.IsNull(p) {
			s = gids[i]*width + int(xs[p]-lo)
		}
		if slots[s] == 0 {
			reps = append(reps, p)
			slots[s] = len(reps)
		}
		gids[i] = slots[s] - 1
	}
	return len(reps), reps
}

// subgroup is a refinement key: the previous group id, shifted left once
// with the low bit marking NULL, and the value (zero for NULL).
type subgroup[T comparable] struct {
	g int
	v T
}

func refineBy[T comparable](vals []T, col *vector.Vector, cands bat.Candidates, gids, reps []int) (int, []int) {
	seen := make(map[subgroup[T]]int, len(reps))
	reps = reps[:0]
	for i, p := range cands {
		k := subgroup[T]{g: gids[i] << 1}
		if col.IsNull(p) {
			k.g |= 1
		} else {
			k.v = vals[p]
		}
		g, ok := seen[k]
		if !ok {
			g = len(seen)
			seen[k] = g
			reps = append(reps, p)
		}
		gids[i] = g
	}
	return len(seen), reps
}

// AggKind enumerates the aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggCount         AggKind = iota // COUNT(col): non-NULL inputs
	AggCountAll                     // COUNT(*): all inputs
	AggCountDistinct                // COUNT(DISTINCT col)
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount, AggCountAll, AggCountDistinct:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// ResultType returns the output type of the aggregate applied to input
// type in.
func (k AggKind) ResultType(in vector.Type) vector.Type {
	switch k {
	case AggCount, AggCountAll, AggCountDistinct:
		return vector.Int64
	case AggAvg:
		return vector.Float64
	case AggSum:
		if in == vector.Float64 {
			return vector.Float64
		}
		return vector.Int64
	default:
		return in
	}
}

// Merge returns the aggregate that folds partial results of k computed
// over disjoint parts of the input: COUNT partials are summed; SUM, MIN
// and MAX merge with themselves. It reports false for AVG and
// COUNT(DISTINCT), whose results do not fold as themselves.
func (k AggKind) Merge() (AggKind, bool) {
	switch k {
	case AggCount, AggCountAll:
		return AggSum, true
	case AggSum, AggMin, AggMax:
		return k, true
	default:
		return k, false
	}
}

// Aggregate computes the aggregate over v, grouped by gids (aligned with
// cands). ngroups may be 0 with nil gids for a scalar (ungrouped)
// aggregate, which yields a single-row result. SUM/MIN/MAX/AVG of an empty
// or all-NULL group is NULL; COUNT is 0.
func Aggregate(kind AggKind, v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) *vector.Vector {
	if cands == nil && v != nil {
		cands = bat.All(v.Len())
	}
	if gids == nil {
		ngroups = 1
		gids = make([]int, len(cands))
	}
	switch kind {
	case AggCountAll:
		counts := make([]int64, ngroups)
		for _, g := range gids {
			counts[g]++
		}
		return vector.FromInts(counts)
	case AggCount:
		return aggCount(v, cands, gids, ngroups)
	case AggCountDistinct:
		// Refine each group by the argument's value: a (group, value)
		// pair is counted at its first row.
		sub := append([]int(nil), gids...)
		n, _ := refine(v, cands, sub, make([]int, ngroups))
		first := make([]bool, n)
		counts := make([]int64, ngroups)
		for i, p := range cands {
			if !first[sub[i]] && !v.IsNull(p) {
				first[sub[i]] = true
				counts[gids[i]]++
			}
		}
		return vector.FromInts(counts)
	case AggSum:
		return aggSum(v, cands, gids, ngroups)
	case AggAvg:
		f := Float(v)
		return Avg(aggSum(f, cands, gids, ngroups), aggCount(f, cands, gids, ngroups))
	case AggMin, AggMax:
		return aggExtreme(kind == AggMin, v, cands, gids, ngroups)
	default:
		return vector.New(vector.Unknown)
	}
}

// Avg divides a DOUBLE SUM column by an aligned COUNT column: NULL where
// the count is 0. AVG is computed, and its partials merged, this way.
func Avg(sums, counts *vector.Vector) *vector.Vector {
	ns, fs := counts.Ints(), sums.Floats()
	out := make([]float64, len(ns))
	for g, n := range ns {
		if n != 0 {
			out[g] = fs[g] / float64(n)
		}
	}
	return withNulls(vector.FromFloats(out), ns)
}

// Float returns v as a DOUBLE column, v itself if it is one. AVG adds its
// inputs as DOUBLE on every path, so that a sum of INT or TIMESTAMP values
// (nanoseconds since the epoch) cannot wrap past int64.
func Float(v *vector.Vector) *vector.Vector {
	if v.Type() == vector.Float64 {
		return v
	}
	xs := v.Ints()
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	out := vector.FromFloats(fs)
	for i := range xs {
		if v.IsNull(i) {
			out.Set(i, vector.NullValue(vector.Float64))
		}
	}
	return out
}

func aggCount(v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) *vector.Vector {
	counts := make([]int64, ngroups)
	for i, p := range cands {
		if !v.IsNull(p) {
			counts[gids[i]]++
		}
	}
	return vector.FromInts(counts)
}

// withNulls marks NULL every group whose count of non-NULL inputs is 0.
func withNulls(out *vector.Vector, counts []int64) *vector.Vector {
	for g, n := range counts {
		if n == 0 {
			out.Set(g, vector.NullValue(out.Type()))
		}
	}
	return out
}

func aggSum(v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) *vector.Vector {
	if v.Type() == vector.Float64 {
		sums, counts := sumBy(v.Floats(), v, cands, gids, ngroups)
		return withNulls(vector.FromFloats(sums), counts)
	}
	sums, counts := sumBy(v.Ints(), v, cands, gids, ngroups)
	return withNulls(vector.FromInts(sums), counts)
}

func sumBy[T int64 | float64](xs []T, v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) ([]T, []int64) {
	sums := make([]T, ngroups)
	counts := make([]int64, ngroups)
	for i, p := range cands {
		if v.IsNull(p) {
			continue
		}
		sums[gids[i]] += xs[p]
		counts[gids[i]]++
	}
	return sums, counts
}

// aggExtreme computes MIN (isMin) or MAX per group. Ties keep the first
// value seen, as a fold with vector.Compare would.
func aggExtreme(isMin bool, v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) *vector.Vector {
	switch v.Type() {
	case vector.Int64, vector.Timestamp:
		best, counts := extremeBy(isMin, v.Ints(), v, cands, gids, ngroups)
		out := vector.FromInts(best)
		if v.Type() == vector.Timestamp {
			out = vector.FromTimestamps(best)
		}
		return withNulls(out, counts)
	case vector.Float64:
		best, counts := extremeBy(isMin, v.Floats(), v, cands, gids, ngroups)
		return withNulls(vector.FromFloats(best), counts)
	case vector.String:
		best, counts := extremeBy(isMin, v.Strings(), v, cands, gids, ngroups)
		return withNulls(vector.FromStrings(best), counts)
	case vector.Bool:
		// MIN is a logical AND, MAX an OR: false orders before true.
		xs := v.Bools()
		best := make([]bool, ngroups)
		counts := make([]int64, ngroups)
		for i, p := range cands {
			if v.IsNull(p) {
				continue
			}
			g := gids[i]
			if counts[g] == 0 || xs[p] != isMin {
				best[g] = xs[p]
			}
			counts[g]++
		}
		return withNulls(vector.FromBools(best), counts)
	default:
		return vector.New(vector.Unknown)
	}
}

func extremeBy[T int64 | float64 | string](isMin bool, xs []T, v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) ([]T, []int64) {
	best := make([]T, ngroups)
	counts := make([]int64, ngroups)
	for i, p := range cands {
		if v.IsNull(p) {
			continue
		}
		g, x := gids[i], xs[p]
		if counts[g] == 0 || (isMin && x < best[g]) || (!isMin && x > best[g]) {
			best[g] = x
		}
		counts[g]++
	}
	return best, counts
}

// SortOrder returns the candidates reordered by the sort keys. desc[i]
// flips the direction of key i. The sort is stable; NULLs order first
// ascending (and therefore last descending).
func SortOrder(keys []*vector.Vector, desc []bool, cands bat.Candidates) bat.Candidates {
	if len(keys) == 0 {
		return cands
	}
	if cands == nil {
		cands = bat.All(keys[0].Len())
	}
	out := append(bat.Candidates(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		for k, col := range keys {
			c := vector.Compare(col.Get(out[i]), col.Get(out[j]))
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out
}

// Distinct returns one candidate per distinct composite key (under the
// grouping-key rule), preserving first-seen order.
func Distinct(keys []*vector.Vector, cands bat.Candidates) bat.Candidates {
	_, _, reps := Group(keys, cands)
	return reps
}
