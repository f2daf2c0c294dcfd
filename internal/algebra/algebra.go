// Package algebra implements the vectorized relational primitives of the
// kernel: selections producing candidate lists, hash joins, grouping,
// aggregation, sorting, and distinct. Each function is the Go analogue of a
// MAL operator: it consumes whole columns and produces whole columns, the
// operator-at-a-time bulk model the DataCell relies on.
package algebra

import (
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

// key normalizes a Value for use as a hash key: the payload of NULLs is
// zeroed so all NULLs of a type collide.
func key(v vector.Value) vector.Value {
	if v.Null {
		return vector.NullValue(v.Typ)
	}
	return v
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

// Group assigns a dense group id to every candidate based on the composite
// key formed by the key columns. It returns the group id per candidate
// (aligned with cands), the number of groups, and one representative
// position per group. Multi-column grouping refines iteratively, as
// MonetDB's group.subgroup does. NULL is a regular group key.
func Group(keys []*vector.Vector, cands bat.Candidates) (gids []int, ngroups int, reps []int) {
	if len(keys) == 0 {
		return nil, 0, nil
	}
	if cands == nil {
		cands = bat.All(keys[0].Len())
	}
	gids = make([]int, len(cands))
	type refineKey struct {
		g int
		v vector.Value
	}
	// First column.
	seen := make(map[vector.Value]int)
	for i, p := range cands {
		k := key(keys[0].Get(p))
		g, ok := seen[k]
		if !ok {
			g = len(seen)
			seen[k] = g
			reps = append(reps, p)
		}
		gids[i] = g
	}
	ngroups = len(seen)
	// Refinement columns.
	for _, col := range keys[1:] {
		sub := make(map[refineKey]int)
		reps = reps[:0]
		for i, p := range cands {
			k := refineKey{gids[i], key(col.Get(p))}
			g, ok := sub[k]
			if !ok {
				g = len(sub)
				sub[k] = g
				reps = append(reps, p)
			}
			gids[i] = g
		}
		ngroups = len(sub)
	}
	return gids, ngroups, reps
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

// Aggregate computes the aggregate over v, grouped by gids (aligned with
// cands). ngroups may be 0 with nil gids for a scalar (ungrouped)
// aggregate, which yields a single-row result. SUM/MIN/MAX/AVG of an empty
// or all-NULL group is NULL; COUNT is 0.
func Aggregate(kind AggKind, v *vector.Vector, cands bat.Candidates, gids []int, ngroups int) *vector.Vector {
	scalar := gids == nil
	if scalar {
		ngroups = 1
	}
	if cands == nil && v != nil {
		cands = bat.All(v.Len())
	}
	gid := func(i int) int {
		if scalar {
			return 0
		}
		return gids[i]
	}

	switch kind {
	case AggCountAll:
		counts := make([]int64, ngroups)
		for i := range cands {
			counts[gid(i)]++
		}
		return vector.FromInts(counts)
	case AggCount:
		counts := make([]int64, ngroups)
		for i, p := range cands {
			if !v.IsNull(p) {
				counts[gid(i)]++
			}
		}
		return vector.FromInts(counts)
	case AggCountDistinct:
		sets := make([]map[vector.Value]struct{}, ngroups)
		for i, p := range cands {
			if v.IsNull(p) {
				continue
			}
			g := gid(i)
			if sets[g] == nil {
				sets[g] = map[vector.Value]struct{}{}
			}
			sets[g][key(v.Get(p))] = struct{}{}
		}
		counts := make([]int64, ngroups)
		for g, set := range sets {
			counts[g] = int64(len(set))
		}
		return vector.FromInts(counts)
	case AggSum:
		return aggSum(v, cands, gid, ngroups)
	case AggAvg:
		sums := make([]float64, ngroups)
		counts := make([]int64, ngroups)
		for i, p := range cands {
			if v.IsNull(p) {
				continue
			}
			g := gid(i)
			sums[g] += v.Get(p).AsFloat()
			counts[g]++
		}
		out := vector.NewWithCap(vector.Float64, ngroups)
		for g := 0; g < ngroups; g++ {
			if counts[g] == 0 {
				out.AppendNull()
			} else {
				out.AppendFloat(sums[g] / float64(counts[g]))
			}
		}
		return out
	case AggMin, AggMax:
		best := make([]vector.Value, ngroups)
		has := make([]bool, ngroups)
		for i, p := range cands {
			if v.IsNull(p) {
				continue
			}
			g := gid(i)
			x := v.Get(p)
			if !has[g] {
				best[g], has[g] = x, true
				continue
			}
			c := vector.Compare(x, best[g])
			if (kind == AggMin && c < 0) || (kind == AggMax && c > 0) {
				best[g] = x
			}
		}
		out := vector.NewWithCap(v.Type(), ngroups)
		for g := 0; g < ngroups; g++ {
			if !has[g] {
				out.AppendNull()
			} else {
				out.AppendValue(best[g])
			}
		}
		return out
	default:
		return vector.New(vector.Unknown)
	}
}

func aggSum(v *vector.Vector, cands bat.Candidates, gid func(int) int, ngroups int) *vector.Vector {
	if v.Type() == vector.Float64 {
		sums := make([]float64, ngroups)
		has := make([]bool, ngroups)
		fs := v.Floats()
		for i, p := range cands {
			if v.IsNull(p) {
				continue
			}
			g := gid(i)
			sums[g] += fs[p]
			has[g] = true
		}
		out := vector.NewWithCap(vector.Float64, ngroups)
		for g := 0; g < ngroups; g++ {
			if !has[g] {
				out.AppendNull()
			} else {
				out.AppendFloat(sums[g])
			}
		}
		return out
	}
	sums := make([]int64, ngroups)
	has := make([]bool, ngroups)
	for i, p := range cands {
		if v.IsNull(p) {
			continue
		}
		g := gid(i)
		sums[g] += v.Get(p).AsInt()
		has[g] = true
	}
	out := vector.NewWithCap(vector.Int64, ngroups)
	for g := 0; g < ngroups; g++ {
		if !has[g] {
			out.AppendNull()
		} else {
			out.AppendInt(sums[g])
		}
	}
	return out
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

// Distinct returns one candidate per distinct composite key, preserving
// first-seen order.
func Distinct(keys []*vector.Vector, cands bat.Candidates) bat.Candidates {
	gids, _, _ := Group(keys, cands)
	if cands == nil && len(keys) > 0 {
		cands = bat.All(keys[0].Len())
	}
	seen := make(map[int]bool)
	out := make(bat.Candidates, 0)
	for i, p := range cands {
		if !seen[gids[i]] {
			seen[gids[i]] = true
			out = append(out, p)
		}
	}
	return out
}
