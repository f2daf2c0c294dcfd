package window

// Event-time correctness under out-of-order arrival: watermark-driven
// emission, bounded-lateness permutation invariance, late-tuple
// accounting, and the expiry of stragglers that used to leak.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// tuple is one generated stream element.
type tuple struct {
	v  int64
	g  string
	ts int64
}

func toBatch(in []tuple) *storage.Relation {
	r := storage.NewRelation(streamSchema())
	for _, t := range in {
		r.AppendRow([]vector.Value{
			vector.NewInt(t.v), vector.NewString(t.g), vector.NewTimestamp(t.ts),
		})
	}
	return r
}

// blockShuffle permutes tuples within contiguous event-time blocks of
// span at most `bound`, so any tuple trails the running maximum by less
// than bound — a disorder profile within `lateness = bound`.
func blockShuffle(rng *rand.Rand, in []tuple, bound int64) []tuple {
	out := append([]tuple(nil), in...)
	for lo := 0; lo < len(out); {
		hi := lo
		for hi < len(out) && out[hi].ts-out[lo].ts < bound {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) { out[lo+i], out[lo+j] = out[lo+j], out[lo+i] })
		lo = hi
	}
	return out
}

// feed appends tuples in random-sized batches and collects every emitted
// window.
func feed(t *testing.T, r *Runner, rng *rand.Rand, in []tuple) []Result {
	t.Helper()
	var out []Result
	for lo := 0; lo < len(in); {
		hi := lo + 1 + rng.Intn(7)
		if hi > len(in) {
			hi = len(in)
		}
		res, err := r.Append(toBatch(in[lo:hi]))
		if err != nil {
			t.Fatalf("%s: %v", r.Mode(), err)
		}
		out = append(out, res...)
		lo = hi
	}
	return out
}

// TestTimeWindowMaxNotLastEmits: a batch whose largest timestamp is not
// the last tuple must still trigger emission — completion is driven by
// the maximum seen timestamp (the watermark), not by buffer position.
func TestTimeWindowMaxNotLastEmits(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 100, TSIndex: 2}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		in := batch([]int64{1, 2, 3, 4}, []string{"x", "x", "x", "x"}, []int64{0, 10, 150, 90})
		results, err := r.Append(in)
		if err != nil {
			t.Fatalf("%s: %v", r.Mode(), err)
		}
		if len(results) != 1 {
			t.Fatalf("%s: %d windows, want 1 (max ts 150 closes [0,100))", r.Mode(), len(results))
		}
		// Window [0,100) holds ts 0, 10, 90 → sum 1+2+4 = 7.
		if got := results[0].Rel.Cols[0].Get(0).I; got != 7 {
			t.Errorf("%s: window sum = %d, want 7", r.Mode(), got)
		}
	}
}

// TestTimeWindowLateCounted: a tuple older than the already-emitted
// window boundary is counted and dropped — not silently lost, not
// retained forever, and never corrupting later windows.
func TestTimeWindowLateCounted(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 100, TSIndex: 2}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		if _, err := r.Append(batch([]int64{1, 2}, []string{"x", "x"}, []int64{10, 120})); err != nil {
			t.Fatal(err)
		}
		if r.Late() != 0 {
			t.Fatalf("%s: late = %d before any late arrival", r.Mode(), r.Late())
		}
		// [0,100) is emitted; ts 50 now trails the frontier.
		buffered := r.buf.NumRows()
		if _, err := r.Append(batch([]int64{9}, []string{"x"}, []int64{50})); err != nil {
			t.Fatal(err)
		}
		if r.Late() != 1 {
			t.Errorf("%s: late = %d, want 1", r.Mode(), r.Late())
		}
		if r.buf.NumRows() != buffered {
			t.Errorf("%s: late tuple was buffered (%d -> %d)", r.Mode(), buffered, r.buf.NumRows())
		}
		// The late tuple must not leak into the next window.
		results, err := r.Append(batch([]int64{4}, []string{"x"}, []int64{230}))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Rel.Cols[0].Get(0).I != 2 {
			t.Errorf("%s: window [100,200) = %v, want sum 2", r.Mode(), results)
		}
	}
}

// TestTimeWindowShuffledBoundedBuffer is the expiry-leak regression: under
// shuffled (bounded out-of-order) input the buffer must stay bounded by
// the window span plus the disorder, never growing with the stream.
func TestTimeWindowShuffledBoundedBuffer(t *testing.T) {
	const lateness = 40
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 50, TSIndex: 2, Lateness: lateness}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		rng := rand.New(rand.NewSource(11))
		n := 10_000
		in := make([]tuple, n)
		for i := range in {
			in[i] = tuple{v: int64(i), g: "x", ts: int64(i)}
		}
		shuffled := blockShuffle(rng, in, lateness)
		feed(t, r, rng, shuffled)
		// Retained suffix: at most window size + lateness worth of tuples
		// (1 tuple per ts unit here), with slack for batch boundaries.
		if max := int(spec.Size + lateness + 64); r.buf.NumRows() > max {
			t.Errorf("%s: buffered = %d after %d tuples, want <= %d", r.Mode(), r.buf.NumRows(), n, max)
		}
		if r.Late() != 0 {
			t.Errorf("%s: late = %d under bounded disorder", r.Mode(), r.Late())
		}
	}
}

// TestEventTimePermutationProperty: any permutation of an in-order stream
// bounded by the allowed lateness produces byte-identical window results
// to the sorted stream, in both evaluation modes.
func TestEventTimePermutationProperty(t *testing.T) {
	queries := map[string]string{
		"scalar":  sumQuery,
		"grouped": "SELECT S.g, SUM(S.v) AS total, COUNT(*) AS n, MIN(S.v) AS lo, MAX(S.v) AS hi FROM [SELECT * FROM s] AS S GROUP BY S.g",
	}
	for qname, q := range queries {
		t.Run(qname, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				rng := rand.New(rand.NewSource(int64(100 + trial)))
				const lateness = 30
				spec := Spec{Kind: sql.WindowRange, Size: 60, Slide: 20, TSIndex: 2, Lateness: lateness}
				n := 400
				in := make([]tuple, n)
				ts := int64(0)
				for i := range in {
					ts += int64(rng.Intn(4))
					in[i] = tuple{v: int64(rng.Intn(50) - 10), g: string(rune('a' + i%3)), ts: ts}
				}
				shuffled := blockShuffle(rng, in, lateness)

				for _, mode := range []Mode{ReEvaluate, Incremental} {
					var sortedRun, shuffledRun *Runner
					if mode == ReEvaluate {
						sortedRun, _ = newRunnerPair(t, q, spec)
						shuffledRun, _ = newRunnerPair(t, q, spec)
					} else {
						_, sortedRun = newRunnerPair(t, q, spec)
						_, shuffledRun = newRunnerPair(t, q, spec)
					}
					a := feed(t, sortedRun, rng, in)
					b := feed(t, shuffledRun, rng, shuffled)
					if shuffledRun.Late() != 0 {
						t.Fatalf("%s: %d late tuples under bounded disorder", mode, shuffledRun.Late())
					}
					if len(a) != len(b) || len(a) == 0 {
						t.Fatalf("%s: %d windows sorted vs %d shuffled", mode, len(a), len(b))
					}
					for i := range a {
						if a[i].Start != b[i].Start || a[i].End != b[i].End {
							t.Fatalf("%s: window %d bounds differ: [%d,%d) vs [%d,%d)",
								mode, i, a[i].Start, a[i].End, b[i].Start, b[i].End)
						}
						if !sameRows(a[i].Rel, b[i].Rel) {
							t.Fatalf("%s: window %d differs:\n%s\nvs\n%s", mode, i, a[i].Rel, b[i].Rel)
						}
					}
				}
			}
		})
	}
}

// TestWindowOriginLowersBeforeEmission: before anything is emitted, an
// earlier tuple pulls the window origin back so results match the sorted
// arrival order.
func TestWindowOriginLowersBeforeEmission(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 50, TSIndex: 2, Lateness: 60}
	re, inc := newRunnerPair(t, sumQuery, spec)
	for _, r := range []*Runner{re, inc} {
		// First tuple at 105 would align the origin to 100; the next at 60
		// (within lateness) must reopen [50,150).
		if _, err := r.Append(batch([]int64{1}, []string{"x"}, []int64{105})); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Append(batch([]int64{2}, []string{"x"}, []int64{60})); err != nil {
			t.Fatal(err)
		}
		results, err := r.Append(batch([]int64{4}, []string{"x"}, []int64{215}))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("%s: %d windows, want 1", r.Mode(), len(results))
		}
		if results[0].Start != 50 || results[0].End != 150 {
			t.Errorf("%s: window [%d,%d), want [50,150)", r.Mode(), results[0].Start, results[0].End)
		}
		if got := results[0].Rel.Cols[0].Get(0).I; got != 3 {
			t.Errorf("%s: sum = %d, want 3 (both 60 and 105)", r.Mode(), got)
		}
		if r.Late() != 0 {
			t.Errorf("%s: late = %d", r.Mode(), r.Late())
		}
	}
}

// TestWatermarkGroupClosesSparseRunner: a runner whose own partition
// stopped receiving tuples still closes its windows once the shared
// group watermark moves past them.
func TestWatermarkGroupClosesSparseRunner(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 100, TSIndex: 2, EventTime: true}
	_, sparse := newRunnerPair(t, sumQuery, spec)
	_, busy := newRunnerPair(t, sumQuery, spec)
	g := NewWatermarkGroup()
	sparse.ShareWatermark(g)
	busy.ShareWatermark(g)

	if _, err := sparse.Append(batch([]int64{7}, []string{"x"}, []int64{10})); err != nil {
		t.Fatal(err)
	}
	if wm, ok := sparse.Watermark(); !ok || wm != 10 {
		t.Fatalf("sparse watermark = %d, %v", wm, ok)
	}
	// The busy runner races ahead; once the sparse one observes the
	// group (its owner does so whenever its backlog is empty), the
	// shared clock carries it along.
	if _, err := busy.Append(batch([]int64{1}, []string{"x"}, []int64{250})); err != nil {
		t.Fatal(err)
	}
	if g, ok := sparse.GroupMax(); !ok {
		t.Fatal("group has no reading")
	} else {
		sparse.ObserveGroup(g)
	}
	results, err := sparse.Flush(0) // event time: the clock reading is ignored
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("sparse emitted %d windows, want 2 ([0,100) and the empty [100,200))", len(results))
	}
	if got := results[0].Rel.Cols[0].Get(0).I; got != 7 {
		t.Errorf("window [0,100) sum = %d", got)
	}
}

// TestEmptyWindowScalarModesAgree: a window with no tuples still yields
// one row for a scalar aggregate, identically in both modes (and a
// grouped aggregate yields zero rows in both).
func TestEmptyWindowScalarModesAgree(t *testing.T) {
	spec := Spec{Kind: sql.WindowRange, Size: 100, Slide: 100, TSIndex: 2}
	re, inc := newRunnerPair(t, "SELECT COUNT(*) AS n, SUM(S.v) AS total FROM [SELECT * FROM s] AS S", spec)
	var prev []Result
	for _, r := range []*Runner{re, inc} {
		in := batch([]int64{1, 2, 3}, []string{"x", "x", "x"}, []int64{0, 10, 250})
		results, err := r.Append(in)
		if err != nil {
			t.Fatal(err)
		}
		// Windows [0,100) and the empty [100,200) close; [200,300) pends.
		if len(results) != 2 {
			t.Fatalf("%s: %d windows, want 2", r.Mode(), len(results))
		}
		for i, res := range results {
			if res.Rel.NumRows() != 1 {
				t.Fatalf("%s: window %d has %d rows, want 1", r.Mode(), i, res.Rel.NumRows())
			}
		}
		if got := results[1].Rel.Cols[0].Get(0).I; got != 0 {
			t.Errorf("%s: empty window COUNT = %d", r.Mode(), got)
		}
		if !results[1].Rel.Cols[1].Get(0).Null {
			t.Errorf("%s: empty window SUM should be NULL", r.Mode())
		}
		if prev != nil {
			for i := range results {
				if results[i].Rel.String() != prev[i].Rel.String() {
					t.Errorf("modes disagree on window %d:\n%s\nvs\n%s", i, prev[i].Rel, results[i].Rel)
				}
			}
		}
		prev = results
	}
}

// TestIdleGapCostsNoEmptyWindows: an arrival-time window one second
// long sliding every 10 ms, one tuple, an idle day, one more tuple. A
// grouped aggregate skips the 8.6 M empty windows of the gap — the
// firing that takes the second tuple stays fast and emits only the
// windows that hold a tuple — and arms nothing while its buffer is
// empty. A scalar aggregate, whose empty windows yield a row each, keeps
// reporting its next close, so a timer emits them on time.
func TestIdleGapCostsNoEmptyWindows(t *testing.T) {
	const sec, slide, day = int64(1e9), int64(1e7), int64(86400e9)
	spec := Spec{Kind: sql.WindowRange, Size: sec, Slide: slide, TSIndex: 2}
	one := func(ts int64) *storage.Relation { return batch([]int64{1}, []string{"x"}, []int64{ts}) }
	// rows counts the rows of windows, checking each is the group's count of 1.
	rows := func(t *testing.T, mode Mode, results []Result) int {
		n := 0
		for _, res := range results {
			for i := 0; i < res.Rel.NumRows(); i++ {
				if c := res.Rel.Cols[1].Get(i).I; c != 1 {
					t.Fatalf("%s: window [%d,%d) counts %d", mode, res.Start, res.End, c)
				}
				n++
			}
		}
		return n
	}
	re, inc := newRunnerPair(t, "SELECT S.g, COUNT(*) AS n FROM [SELECT * FROM s] AS S GROUP BY S.g", spec)
	for _, r := range []*Runner{re, inc} {
		if _, err := r.Append(one(5)); err != nil {
			t.Fatal(err)
		}
		results, err := r.Flush(2 * sec)
		if err != nil {
			t.Fatal(err)
		}
		if n := rows(t, r.Mode(), results); n != 1 { // windows start at the first tuple
			t.Fatalf("%s: the first tuple reached %d windows, want 1", r.Mode(), n)
		}
		if c, ok := r.OpenClose(); ok {
			t.Fatalf("%s: an empty buffer reports a close at %d", r.Mode(), c)
		}
		start := time.Now()
		results, err = r.Append(one(day))
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the firing after an idle day took %v", r.Mode(), took)
		}
		if len(results) != 0 {
			t.Errorf("%s: the tuple after the gap emitted %d windows before any closed over it", r.Mode(), len(results))
		}
		if c, ok := r.OpenClose(); !ok || c != day+slide {
			t.Errorf("%s: next close %d, %v; want the first window holding the tuple", r.Mode(), c, ok)
		}
		if results, err = r.Flush(day + 2*sec); err != nil {
			t.Fatal(err)
		}
		if n := rows(t, r.Mode(), results); n != int(sec/slide) || len(results) != n {
			t.Errorf("%s: the second tuple reached %d rows in %d windows, want %d of each", r.Mode(), n, len(results), sec/slide)
		}
	}

	re, inc = newRunnerPair(t, "SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS S", spec)
	for _, r := range []*Runner{re, inc} {
		if _, err := r.Append(one(5)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Flush(2 * sec); err != nil {
			t.Fatal(err)
		}
		c, ok := r.OpenClose()
		if !ok {
			t.Fatalf("%s: a scalar window with an empty buffer reports no close", r.Mode())
		}
		results, err := r.Flush(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 || results[0].Rel.NumRows() != 1 || results[0].Rel.Cols[0].Get(0).I != 0 {
			t.Errorf("%s: at its close the empty window emitted %d results, want one row of count 0", r.Mode(), len(results))
		}
	}
}

// TestGroupWakesOnlyAtWindowEnds: the group wakes its lanes on the first
// raise and on a raise whose watermark crosses a window end, never on the
// raises in between.
func TestGroupWakesOnlyAtWindowEnds(t *testing.T) {
	// Windows start on multiples of 50 and last 120: ends at 20 + 50k.
	spec := Spec{Kind: sql.WindowRange, Size: 120, Slide: 50, Lateness: 10}
	for _, c := range [][2]int64{{99, 120}, {120, 170}, {-7, 20}, {-30, 20}} {
		if got := spec.NextEnd(c[0]); got != c[1] {
			t.Errorf("NextEnd(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	g := NewWatermarkGroup()
	wakes := 0
	r, err := NewRunner(spec, ReEvaluate, &PlanEvaluator{}, nil, streamSchema())
	if err != nil {
		t.Fatal(err)
	}
	r.ShareWatermark(g)
	r.WakeOnEnds(0, func(int) { wakes++ })
	for _, step := range []struct {
		raise int64
		want  int
	}{
		{25, 1},  // first reading
		{79, 2},  // watermark 69: end 20
		{80, 3},  // watermark 70: end 70
		{90, 3},  // watermark 80
		{85, 3},  // no raise
		{129, 3}, // watermark 119
		{300, 4}, // watermark 290: ends 120..270 at once
	} {
		g.Raise(step.raise)
		if wakes != step.want {
			t.Fatalf("after Raise(%d): %d wakes, want %d", step.raise, wakes, step.want)
		}
	}
}
