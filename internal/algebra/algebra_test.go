package algebra

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/vector"
)

func TestCmpOpHolds(t *testing.T) {
	cases := []struct {
		op   CmpOp
		cmp  int
		want bool
	}{
		{Eq, 0, true}, {Eq, 1, false},
		{Ne, 0, false}, {Ne, -1, true},
		{Lt, -1, true}, {Lt, 0, false},
		{Le, 0, true}, {Le, 1, false},
		{Gt, 1, true}, {Gt, 0, false},
		{Ge, 0, true}, {Ge, -1, false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.cmp); got != c.want {
			t.Errorf("%v.Holds(%d) = %v, want %v", c.op, c.cmp, got, c.want)
		}
	}
}

func TestThetaSelectInt(t *testing.T) {
	v := vector.FromInts([]int64{5, 1, 9, 3, 7})
	got := ThetaSelect(v, nil, Gt, vector.NewInt(4))
	want := bat.Candidates{0, 2, 4}
	assertCands(t, got, want)

	got = ThetaSelect(v, bat.Candidates{1, 2, 3}, Gt, vector.NewInt(4))
	assertCands(t, got, bat.Candidates{2})
}

func TestThetaSelectFloat(t *testing.T) {
	v := vector.FromFloats([]float64{1.5, 2.5, 3.5})
	got := ThetaSelect(v, nil, Le, vector.NewFloat(2.5))
	assertCands(t, got, bat.Candidates{0, 1})
}

func TestThetaSelectString(t *testing.T) {
	v := vector.FromStrings([]string{"b", "a", "c"})
	got := ThetaSelect(v, nil, Eq, vector.NewString("a"))
	assertCands(t, got, bat.Candidates{1})
}

func TestThetaSelectNulls(t *testing.T) {
	v := vector.New(vector.Int64)
	v.AppendInt(1)
	v.AppendNull()
	v.AppendInt(3)
	got := ThetaSelect(v, nil, Ge, vector.NewInt(0))
	assertCands(t, got, bat.Candidates{0, 2})
	// Comparing against NULL yields nothing.
	got = ThetaSelect(v, nil, Eq, vector.NullValue(vector.Int64))
	assertCands(t, got, bat.Candidates{})
}

func TestRangeSelect(t *testing.T) {
	v := vector.FromInts([]int64{1, 2, 3, 4, 5})
	got := RangeSelect(v, nil, vector.NewInt(2), vector.NewInt(4), true, true)
	assertCands(t, got, bat.Candidates{1, 2, 3})
	got = RangeSelect(v, nil, vector.NewInt(2), vector.NewInt(4), false, false)
	assertCands(t, got, bat.Candidates{2})
	// Unbounded low side.
	got = RangeSelect(v, nil, vector.NullValue(vector.Int64), vector.NewInt(2), true, true)
	assertCands(t, got, bat.Candidates{0, 1})
}

func TestMaskSelect(t *testing.T) {
	mask := vector.FromBools([]bool{true, false, true})
	got := MaskSelect(mask, bat.Candidates{10, 20, 30})
	assertCands(t, got, bat.Candidates{10, 30})

	withNull := vector.New(vector.Bool)
	withNull.AppendBool(true)
	withNull.AppendNull()
	got = MaskSelect(withNull, bat.Candidates{4, 5})
	assertCands(t, got, bat.Candidates{4})
}

func TestHashJoin(t *testing.T) {
	l := vector.FromInts([]int64{1, 2, 3, 2})
	r := vector.FromInts([]int64{2, 4, 1})
	lp, rp := HashJoin(l, r, nil, nil)
	// Expect pairs {(0,2),(1,0),(3,0)} in some order.
	if len(lp) != 3 {
		t.Fatalf("join produced %d pairs, want 3", len(lp))
	}
	seen := map[[2]int]bool{}
	for i := range lp {
		seen[[2]int{lp[i], rp[i]}] = true
		if l.Get(lp[i]).I != r.Get(rp[i]).I {
			t.Errorf("pair (%d,%d) values differ", lp[i], rp[i])
		}
	}
	for _, want := range [][2]int{{0, 2}, {1, 0}, {3, 0}} {
		if !seen[want] {
			t.Errorf("missing pair %v", want)
		}
	}
}

func TestHashJoinNullsNeverMatch(t *testing.T) {
	l := vector.New(vector.Int64)
	l.AppendNull()
	r := vector.New(vector.Int64)
	r.AppendNull()
	lp, _ := HashJoin(l, r, nil, nil)
	if len(lp) != 0 {
		t.Errorf("NULLs matched: %v", lp)
	}
}

func TestHashJoinWithCands(t *testing.T) {
	l := vector.FromInts([]int64{1, 2, 3})
	r := vector.FromInts([]int64{3, 2, 1})
	lp, rp := HashJoin(l, r, bat.Candidates{0}, nil)
	if len(lp) != 1 || lp[0] != 0 || rp[0] != 2 {
		t.Errorf("join with cands: %v %v", lp, rp)
	}
}

func TestGroupSingle(t *testing.T) {
	v := vector.FromStrings([]string{"a", "b", "a", "c", "b"})
	gids, n, reps := Group([]*vector.Vector{v}, nil)
	if n != 3 {
		t.Fatalf("ngroups = %d", n)
	}
	if gids[0] != gids[2] || gids[1] != gids[4] || gids[0] == gids[1] {
		t.Errorf("gids = %v", gids)
	}
	if len(reps) != 3 {
		t.Errorf("reps = %v", reps)
	}
}

func TestGroupMulti(t *testing.T) {
	a := vector.FromInts([]int64{1, 1, 2, 2, 1})
	b := vector.FromStrings([]string{"x", "y", "x", "x", "x"})
	gids, n, _ := Group([]*vector.Vector{a, b}, nil)
	if n != 3 {
		t.Fatalf("ngroups = %d, want 3", n)
	}
	if gids[0] != gids[4] {
		t.Error("(1,x) rows should share a group")
	}
	if gids[2] != gids[3] {
		t.Error("(2,x) rows should share a group")
	}
	if gids[0] == gids[1] || gids[0] == gids[2] {
		t.Errorf("groups not distinct: %v", gids)
	}
}

func TestGroupNullIsAKey(t *testing.T) {
	v := vector.New(vector.Int64)
	v.AppendInt(1)
	v.AppendNull()
	v.AppendNull()
	gids, n, _ := Group([]*vector.Vector{v}, nil)
	if n != 2 {
		t.Fatalf("ngroups = %d, want 2", n)
	}
	if gids[1] != gids[2] {
		t.Error("NULLs should group together")
	}
}

func TestAggregates(t *testing.T) {
	v := vector.New(vector.Int64)
	for _, x := range []int64{1, 2, 3, 4} {
		v.AppendValue(vector.NewInt(x))
	}
	v.AppendNull() // 5th row NULL
	gids := []int{0, 0, 1, 1, 1}

	sum := Aggregate(AggSum, v, nil, gids, 2)
	if sum.Get(0).I != 3 || sum.Get(1).I != 7 {
		t.Errorf("sum = %v", sum)
	}
	cnt := Aggregate(AggCount, v, nil, gids, 2)
	if cnt.Get(0).I != 2 || cnt.Get(1).I != 2 {
		t.Errorf("count = %v", cnt)
	}
	cntAll := Aggregate(AggCountAll, v, nil, gids, 2)
	if cntAll.Get(1).I != 3 {
		t.Errorf("count(*) = %v", cntAll)
	}
	mn := Aggregate(AggMin, v, nil, gids, 2)
	if mn.Get(0).I != 1 || mn.Get(1).I != 3 {
		t.Errorf("min = %v", mn)
	}
	mx := Aggregate(AggMax, v, nil, gids, 2)
	if mx.Get(0).I != 2 || mx.Get(1).I != 4 {
		t.Errorf("max = %v", mx)
	}
	avg := Aggregate(AggAvg, v, nil, gids, 2)
	if avg.Get(0).F != 1.5 || avg.Get(1).F != 3.5 {
		t.Errorf("avg = %v", avg)
	}
}

func TestScalarAggregate(t *testing.T) {
	v := vector.FromFloats([]float64{1, 2, 3})
	sum := Aggregate(AggSum, v, nil, nil, 0)
	if sum.Len() != 1 || sum.Get(0).F != 6 {
		t.Errorf("scalar sum = %v", sum)
	}
	cnt := Aggregate(AggCountAll, v, nil, nil, 0)
	if cnt.Get(0).I != 3 {
		t.Errorf("scalar count = %v", cnt)
	}
}

func TestAggregateEmptyGroupIsNull(t *testing.T) {
	v := vector.New(vector.Int64)
	sum := Aggregate(AggSum, v, bat.Candidates{}, nil, 0)
	if !sum.Get(0).Null {
		t.Errorf("sum of empty should be NULL, got %v", sum.Get(0))
	}
	cnt := Aggregate(AggCountAll, v, bat.Candidates{}, nil, 0)
	if cnt.Get(0).I != 0 {
		t.Errorf("count of empty = %v", cnt.Get(0))
	}
	for _, kind := range []AggKind{AggCountDistinct, AggSum, AggMin, AggAvg} {
		if out := Aggregate(kind, v, bat.Candidates{}, []int{}, 0); out.Len() != 0 {
			t.Errorf("%s over no groups: %d rows", kind, out.Len())
		}
	}
	// More groups than rows, keys far apart: most groups are empty.
	far := vector.FromInts([]int64{0, 1 << 40})
	cd := Aggregate(AggCountDistinct, far, nil, []int{0, 999}, 1000)
	if cd.Len() != 1000 || cd.Get(0).I != 1 || cd.Get(1).I != 0 || cd.Get(999).I != 1 {
		t.Errorf("COUNT(DISTINCT) over 1000 groups, 2 rows: %d rows, %v %v %v", cd.Len(), cd.Get(0), cd.Get(1), cd.Get(999))
	}
}

func TestAggResultType(t *testing.T) {
	if AggSum.ResultType(vector.Int64) != vector.Int64 {
		t.Error("sum int type")
	}
	if AggSum.ResultType(vector.Float64) != vector.Float64 {
		t.Error("sum float type")
	}
	if AggAvg.ResultType(vector.Int64) != vector.Float64 {
		t.Error("avg type")
	}
	if AggCount.ResultType(vector.String) != vector.Int64 {
		t.Error("count type")
	}
	if AggMin.ResultType(vector.String) != vector.String {
		t.Error("min type")
	}
}

func TestSortOrder(t *testing.T) {
	v := vector.FromInts([]int64{3, 1, 2})
	got := SortOrder([]*vector.Vector{v}, []bool{false}, nil)
	assertCands(t, got, bat.Candidates{1, 2, 0})
	got = SortOrder([]*vector.Vector{v}, []bool{true}, nil)
	assertCands(t, got, bat.Candidates{0, 2, 1})
}

func TestSortOrderMultiKeyStable(t *testing.T) {
	a := vector.FromInts([]int64{1, 1, 0, 0})
	b := vector.FromStrings([]string{"d", "c", "b", "a"})
	got := SortOrder([]*vector.Vector{a, b}, []bool{false, false}, nil)
	assertCands(t, got, bat.Candidates{3, 2, 1, 0})
}

func TestSortNullsFirst(t *testing.T) {
	v := vector.New(vector.Int64)
	v.AppendInt(5)
	v.AppendNull()
	v.AppendInt(1)
	got := SortOrder([]*vector.Vector{v}, []bool{false}, nil)
	assertCands(t, got, bat.Candidates{1, 2, 0})
}

func TestDistinct(t *testing.T) {
	v := vector.FromStrings([]string{"a", "b", "a", "b", "c"})
	got := Distinct([]*vector.Vector{v}, nil)
	assertCands(t, got, bat.Candidates{0, 1, 4})
}

func assertCands(t *testing.T, got, want bat.Candidates) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

// Property: ThetaSelect(Lt) ∪ ThetaSelect(Ge) partitions the non-NULL input.
func TestPropThetaPartition(t *testing.T) {
	f := func(vals []int64, pivot int64) bool {
		v := vector.FromInts(vals)
		lt := ThetaSelect(v, nil, Lt, vector.NewInt(pivot))
		ge := ThetaSelect(v, nil, Ge, vector.NewInt(pivot))
		if len(lt)+len(ge) != len(vals) {
			return false
		}
		union := bat.Union(lt, ge)
		return len(union) == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every hash-join output pair has equal key values, and the pair
// count matches the nested-loop count.
func TestPropHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(lRaw, rRaw []uint8) bool {
		l := vector.New(vector.Int64)
		for _, x := range lRaw {
			l.AppendInt(int64(x % 8))
		}
		r := vector.New(vector.Int64)
		for _, x := range rRaw {
			r.AppendInt(int64(x % 8))
		}
		lp, rp := HashJoin(l, r, nil, nil)
		for i := range lp {
			if l.Get(lp[i]).I != r.Get(rp[i]).I {
				return false
			}
		}
		want := 0
		for i := 0; i < l.Len(); i++ {
			for j := 0; j < r.Len(); j++ {
				if l.Get(i).I == r.Get(j).I {
					want++
				}
			}
		}
		return len(lp) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SUM over groups equals total sum.
func TestPropGroupedSumConserved(t *testing.T) {
	f := func(vals []int64, keysRaw []uint8) bool {
		n := len(vals)
		if len(keysRaw) < n {
			n = len(keysRaw)
		}
		v := vector.FromInts(vals[:n])
		k := vector.New(vector.Int64)
		for _, x := range keysRaw[:n] {
			k.AppendInt(int64(x % 5))
		}
		gids, ng, _ := Group([]*vector.Vector{k}, nil)
		sums := Aggregate(AggSum, v, nil, gids, ng)
		var total, want int64
		for g := 0; g < ng; g++ {
			if !sums.Get(g).Null {
				total += sums.Get(g).I
			}
		}
		for _, x := range vals[:n] {
			want += x
		}
		return total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SortOrder output is a permutation and is ordered.
func TestPropSortIsOrderedPermutation(t *testing.T) {
	f := func(vals []int64) bool {
		v := vector.FromInts(vals)
		got := SortOrder([]*vector.Vector{v}, []bool{false}, nil)
		if len(got) != len(vals) {
			return false
		}
		seen := make(map[int]bool, len(got))
		for _, p := range got {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		for i := 1; i < len(got); i++ {
			if v.Get(got[i-1]).I > v.Get(got[i]).I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAvgAddsAsDouble: AVG over INT or TIMESTAMP adds its inputs as
// DOUBLE, so eight present-day timestamps (about 1.76e18 ns each) do not
// wrap the sum past int64; NULLs are skipped.
func TestAvgAddsAsDouble(t *testing.T) {
	const base = int64(1_760_000_000_000_000_000)
	ts := vector.New(vector.Timestamp)
	for i := int64(0); i < 8; i++ {
		ts.AppendValue(vector.NewTimestamp(base + 2*i))
	}
	ts.AppendNull()
	avg := Aggregate(AggAvg, ts, nil, nil, 0)
	if want := float64(base + 7); math.Abs(avg.Get(0).F-want) > 1e-12*want {
		t.Errorf("AVG of 8 timestamps = %g, want %g", avg.Get(0).F, want)
	}
	ints := vector.FromInts([]int64{math.MaxInt64, math.MaxInt64})
	if got := Aggregate(AggAvg, ints, nil, []int{0, 0}, 1).Get(0).F; got != float64(math.MaxInt64) {
		t.Errorf("AVG(MaxInt64, MaxInt64) = %g", got)
	}
}
