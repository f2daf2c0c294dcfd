package route

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/vector"
)

func col(idx int, name string, t vector.Type) *expr.ColRef {
	return &expr.ColRef{Index: idx, Name: name, Typ: t}
}

func intConst(v int64) *expr.Const { return &expr.Const{Val: vector.NewInt(v)} }

func bin(op expr.BinOp, l, r expr.Expr) expr.Expr { return &expr.Binary{Op: op, L: l, R: r} }

func intBatch(vals ...int64) bat.View {
	v := vector.NewWithCap(vector.Int64, len(vals))
	for _, x := range vals {
		v.AppendInt(x)
	}
	return bat.ViewOf(v)
}

func matchSet(ix *Index, batch bat.View) map[string]bool {
	got := map[string]bool{}
	for _, p := range ix.Match(batch, nil) {
		got[p.(string)] = true
	}
	return got
}

func TestAnalyzeKinds(t *testing.T) {
	c := col(0, "v", vector.Int64)
	cases := []struct {
		pred expr.Expr
		want Kind
	}{
		{nil, Residual},
		{bin(expr.CmpEq, c, intConst(7)), Eq},
		{bin(expr.CmpEq, intConst(7), c), Eq}, // flipped orientation
		{bin(expr.CmpGt, c, intConst(3)), Range},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(3)), bin(expr.CmpLe, c, intConst(9))), Range},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(3)), bin(expr.CmpEq, c, intConst(5))), Eq},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(9)), bin(expr.CmpLt, c, intConst(3))), Never},
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NullValue(vector.Int64)}), Never},
		{bin(expr.Or, bin(expr.CmpEq, c, intConst(1)), bin(expr.CmpEq, c, intConst(2))), Residual},
		{bin(expr.CmpEq, c, bin(expr.Add, intConst(1), intConst(2))), Residual},
		// 3.5 can never equal an integer column.
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NewFloat(3.5)}), Never},
		// 3.0 can.
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NewFloat(3)}), Eq},
	}
	for i, tc := range cases {
		if got := Analyze(tc.pred).Kind(); got != tc.want {
			t.Errorf("case %d (%v): kind = %v, want %v", i, tc.pred, got, tc.want)
		}
	}
}

func TestMatchRouting(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	ix.Add(1, Analyze(bin(expr.CmpEq, c, intConst(7))), "eq7")
	ix.Add(2, Analyze(bin(expr.CmpEq, c, intConst(100))), "eq100")
	ix.Add(3, Analyze(bin(expr.And, bin(expr.CmpGe, c, intConst(50)), bin(expr.CmpLt, c, intConst(60)))), "rng50_60")
	ix.Add(4, Analyze(nil), "all")
	ix.Add(5, Analyze(bin(expr.CmpEq, c, &expr.Const{Val: vector.NullValue(vector.Int64)})), "never")
	ix.FlushIfDirty()

	got := matchSet(ix, intBatch(1, 7, 42))
	for _, want := range []string{"eq7", "all"} {
		if !got[want] {
			t.Errorf("batch(1,7,42): missing %q in %v", want, got)
		}
	}
	for _, no := range []string{"eq100", "rng50_60", "never"} {
		if got[no] {
			t.Errorf("batch(1,7,42): unexpected %q", no)
		}
	}

	got = matchSet(ix, intBatch(55))
	if !got["rng50_60"] || !got["all"] || got["eq7"] {
		t.Errorf("batch(55): got %v", got)
	}
	// Range entries are judged row by row: 49 and 61 straddle the band
	// (their min/max overlaps it) but no row lies inside.
	got = matchSet(ix, intBatch(49, 61))
	if got["rng50_60"] {
		t.Errorf("batch(49,61): no row is in [50,60), rng50_60 should be skipped, got %v", got)
	}
	got = matchSet(ix, intBatch(10, 20))
	if got["rng50_60"] {
		t.Errorf("batch(10,20): rng50_60 should be skipped, got %v", got)
	}
}

func TestPendingMatchesConservatively(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	ix.Add(1, Analyze(bin(expr.CmpEq, c, intConst(100))), "eq100")
	// No flush: the pending overlay must still route the entry.
	if got := matchSet(ix, intBatch(1)); !got["eq100"] {
		t.Fatalf("pending entry not matched: %v", got)
	}
	ix.FlushIfDirty()
	if got := matchSet(ix, intBatch(1)); got["eq100"] {
		t.Fatalf("flushed eq entry matched a non-matching batch: %v", got)
	}
	ix.Remove(1)
	if got := matchSet(ix, intBatch(100)); len(got) != 0 {
		t.Fatalf("removed entry matched: %v", got)
	}
}

func TestConcurrentAddRemoveMatch(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		id := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			ix.Add(id, Analyze(bin(expr.CmpEq, c, intConst(int64(id%16)))), fmt.Sprint(id))
			if id%4 == 0 {
				ix.FlushIfDirty()
			}
			if id%3 == 0 {
				ix.Remove(id - 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		batch := intBatch(1, 2, 3, 4, 5)
		for i := 0; i < 2000; i++ {
			ix.Match(batch, nil)
		}
		close(stop)
	}()
	wg.Wait()
}

// propSchema is the property test's stream: one column per key type.
var propSchema = []vector.Type{vector.Int64, vector.Float64, vector.String, vector.Bool}

func propConst(rng *rand.Rand, t vector.Type) *expr.Const {
	switch t {
	case vector.Int64:
		return &expr.Const{Val: vector.NewInt(rng.Int63n(6))}
	case vector.Float64:
		return &expr.Const{Val: vector.NewFloat(float64(rng.Intn(6)) / 2)}
	case vector.String:
		return &expr.Const{Val: vector.NewString(string(rune('a' + rng.Intn(4))))}
	default:
		return &expr.Const{Val: vector.NewBool(rng.Intn(2) == 0)}
	}
}

// propPred draws a conjunction of one to three comparisons (any operator,
// either orientation) and the occasional disjunction, which has no anchor.
func propPred(rng *rand.Rand) expr.Expr {
	atom := func() expr.Expr {
		c := rng.Intn(len(propSchema))
		ops := []expr.BinOp{expr.CmpEq, expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
		if propSchema[c] == vector.String || propSchema[c] == vector.Bool {
			ops = ops[:3]
		}
		l, r := expr.Expr(col(c, fmt.Sprint("c", c), propSchema[c])), expr.Expr(propConst(rng, propSchema[c]))
		if rng.Intn(4) == 0 {
			l, r = r, l
		}
		return bin(ops[rng.Intn(len(ops))], l, r)
	}
	p := atom()
	for n := rng.Intn(3); n > 0; n-- {
		p = bin(expr.And, p, atom())
	}
	if rng.Intn(6) == 0 {
		p = bin(expr.Or, p, atom())
	}
	return p
}

// propBatch draws rows NULL-bearing columns split into chunks of the
// given sizes.
func propBatch(rng *rand.Rand, chunks ...int) bat.View {
	var view bat.View
	for _, n := range chunks {
		cols := make([]*vector.Vector, len(propSchema))
		for c, t := range propSchema {
			cols[c] = vector.NewWithCap(t, n)
			for i := 0; i < n; i++ {
				if rng.Intn(8) == 0 {
					cols[c].AppendNull()
				} else {
					cols[c].AppendValue(propConst(rng, t).Val)
				}
			}
		}
		view.Chunks = append(view.Chunks, bat.Chunk{Cols: cols})
	}
	return view
}

// TestProbeIsRowLevelConservative is the package invariant as a
// property: whatever the predicates and the batch, a row outside an
// entry's candidate list (every row, for an entry the probe did not
// return) does not satisfy the entry's full predicate; the lists are
// ascending; and Match is the payload set of the same probe.
func TestProbeIsRowLevelConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc Scratch
	for round := 0; round < 60; round++ {
		ix := NewIndex()
		preds := make([]expr.Expr, 40)
		for id := range preds {
			preds[id] = propPred(rng)
			ix.Add(uint64(id), Analyze(preds[id]), id)
			if id == len(preds)/2 && round%2 == 0 {
				ix.FlushIfDirty() // the later half stays in the pending overlay
			}
		}
		if round%3 == 0 {
			ix.FlushIfDirty()
		}
		batch := propBatch(rng, [][]int{{1}, {37}, {5, 0, 40}, {64, 64, 3}}[round%4]...)
		n, flat := batch.NumRows(), batch.Columns()

		rows := map[int]bat.Candidates{}
		for _, h := range ix.Probe(batch, &sc) {
			id := h.Payload.(int)
			if _, dup := rows[id]; dup {
				t.Fatalf("round %d: entry %d returned twice", round, id)
			}
			if h.Rows == nil {
				rows[id] = bat.All(n)
				continue
			}
			if len(h.Rows) == 0 || !slices.IsSorted(h.Rows) || h.Rows[len(h.Rows)-1] >= n {
				t.Fatalf("round %d: entry %d (%v) has a malformed row list %v", round, id, preds[id], h.Rows)
			}
			rows[id] = slices.Clone(h.Rows)
		}
		for id, p := range preds {
			mask, err := expr.Eval(p, flat, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range bat.Complement(0, n, rows[id]) {
				if !mask.IsNull(r) && mask.Bools()[r] {
					t.Fatalf("round %d: row %d satisfies %v (anchor %s) but is not among its candidates %v",
						round, r, p, Analyze(p).Describe(), rows[id])
				}
			}
		}

		matched := map[int]bool{}
		for _, p := range ix.Match(batch, nil) {
			matched[p.(int)] = true
		}
		if len(matched) != len(rows) {
			t.Fatalf("round %d: Match returned %d entries, Probe %d", round, len(matched), len(rows))
		}
		for id := range rows {
			if !matched[id] {
				t.Fatalf("round %d: Probe returned entry %d, Match did not", round, id)
			}
		}
	}
}
