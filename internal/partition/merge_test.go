package partition

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/vector"
)

// The three recombinations one Merge performs, over two lanes of (g, n)
// partials: concatenation, a merge plan (SUM(n) by g) over each firing's
// union, and the same plan per window once every lane's frontier passed.
const (
	kindConcat  = "concat"
	kindPlan    = "merge plan"
	kindWindows = "window-aligned buckets"
)

var mergeKinds = []string{kindConcat, kindPlan, kindWindows}

type mergeRig struct {
	kind      string
	lanes     []*basket.Basket
	out       *basket.Basket
	m         *Merge
	frontiers []int64 // what each lane reports as delivered; kindWindows only
}

func newMergeRig(t *testing.T, kind string) *mergeRig {
	t.Helper()
	// GROUP BY a non-partition column: the analyzer hands back the partial
	// schema the lanes emit and the plan that re-aggregates them.
	an := Analyze(buildPlan(t, "SELECT x.v, SUM(x.k) AS n FROM [SELECT * FROM s] AS x GROUP BY x.v"), "s", "k", "q#partials")
	if !an.OK || an.MergePlan == nil {
		t.Fatalf("analysis: %+v", an)
	}
	r := &mergeRig{kind: kind, frontiers: make([]int64, 2)}
	clock := metrics.NewManualClock(1)
	laneSchema := an.ShardPlan.Schema().Clone()
	var frontiers []func() int64
	if kind == kindWindows {
		laneSchema.Columns = append(laneSchema.Columns, catalog.Column{Name: WindowEndColumn, Type: vector.Timestamp})
		for i := range r.frontiers {
			frontiers = append(frontiers, func() int64 { return r.frontiers[i] })
		}
	}
	for i := range r.frontiers {
		r.lanes = append(r.lanes, basket.New(fmt.Sprintf("q_out#%d", i), laneSchema, clock))
	}
	r.out = basket.New("q_out", an.ShardPlan.Schema(), clock)
	mergePlan := an.MergePlan
	if kind == kindConcat {
		mergePlan = nil
	}
	r.m = NewMerge("q_merge", an.MergeSource, r.lanes, r.out, mergePlan, catalog.New(), frontiers)
	return r
}

// emit appends (g, n) partials to a lane, tagged with window end wend
// when the rig's lanes carry the tag.
func (r *mergeRig) emit(t *testing.T, lane int, wend int64, gn ...[2]int64) {
	t.Helper()
	g, n, w := vector.New(vector.Int64), vector.New(vector.Int64), vector.New(vector.Timestamp)
	for _, p := range gn {
		g.AppendInt(p[0])
		n.AppendInt(p[1])
		w.AppendInt(wend)
	}
	cols := []*vector.Vector{g, n}
	if r.kind == kindWindows {
		cols = append(cols, w)
	}
	if err := r.lanes[lane].Append(cols); err != nil {
		t.Fatal(err)
	}
}

// rows renders a basket's (g, n) rows in order.
func rows(b *basket.Basket) []string {
	v := b.Snapshot()
	var out []string
	for i := 0; i < v.NumRows(); i++ {
		out = append(out, fmt.Sprintf("%d:%d", v.Get(0, i).I, v.Get(1, i).I))
	}
	return out
}

func wantRows(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// sortedWithin sorts each window's slice of rows: a merge plan fixes the
// result set per window (or per firing), not the group order inside it.
func sortedWithin(got []string, sizes ...int) []string {
	out := slices.Clone(got)
	at := 0
	for _, n := range sizes {
		if at+n > len(out) {
			break
		}
		slices.Sort(out[at : at+n])
		at += n
	}
	return out
}

// TestMergeRecombines: one firing takes everything the lanes hold, lane
// by lane and in each lane's emission order, and what it appends to out
// is the recombination of exactly that.
func TestMergeRecombines(t *testing.T) {
	for _, kind := range mergeKinds {
		t.Run(kind, func(t *testing.T) {
			r := newMergeRig(t, kind)
			if r.m.Ready() {
				t.Fatal("ready with empty lanes")
			}
			// Lane 1 emits first in time; lane order, not arrival order, decides.
			r.emit(t, 1, 100, [2]int64{1, 10}, [2]int64{2, 20})
			r.emit(t, 0, 100, [2]int64{2, 1}, [2]int64{1, 2})
			r.emit(t, 0, 200, [2]int64{3, 3})
			r.emit(t, 1, 200, [2]int64{3, 30})
			r.frontiers[0], r.frontiers[1] = 200, 200
			if !r.m.Ready() || r.m.Lag() != 6 {
				t.Fatalf("ready = %v, lag = %d, want ready with 6 partials", r.m.Ready(), r.m.Lag())
			}
			if err := r.m.Fire(); err != nil {
				t.Fatal(err)
			}
			switch kind {
			case kindConcat:
				wantRows(t, "out", rows(r.out), "2:1", "1:2", "3:3", "1:10", "2:20", "3:30")
			case kindPlan:
				wantRows(t, "out", sortedWithin(rows(r.out), 3), "1:12", "2:21", "3:33")
			case kindWindows: // window 100 wholly before window 200
				wantRows(t, "out", sortedWithin(rows(r.out), 2, 1), "1:12", "2:21", "3:33")
			}
			if r.m.Ready() || r.m.Lag() != 0 || r.m.Merged() != 6 || r.m.Late() != 0 {
				t.Errorf("after firing: ready = %v lag = %d merged = %d late = %d, want idle with 6 merged",
					r.m.Ready(), r.m.Lag(), r.m.Merged(), r.m.Late())
			}
			for i, b := range r.lanes {
				if b.Len() != 0 {
					t.Errorf("lane %d still holds %d rows", i, b.Len())
				}
			}
		})
	}
}

// TestMergeFailedFiringKeepsInputs: a firing whose append to out fails
// reports the error and loses nothing — the partials it could not deliver
// are still the merge's backlog — and the retry delivers each exactly once.
func TestMergeFailedFiringKeepsInputs(t *testing.T) {
	for _, kind := range mergeKinds {
		t.Run(kind, func(t *testing.T) {
			r := newMergeRig(t, kind)
			r.emit(t, 0, 100, [2]int64{1, 1})
			r.emit(t, 1, 100, [2]int64{1, 10}, [2]int64{2, 20})
			r.frontiers[0], r.frontiers[1] = 100, 100
			// An output basket of another shape refuses every append.
			good := r.m.out
			r.m.out = basket.New("q_out", catalog.NewSchema(catalog.Column{Name: "s", Type: vector.String}), nil)
			if err := r.m.Fire(); err == nil {
				t.Fatal("firing into a mismatched output basket succeeded")
			}
			if r.m.out.Len() != 0 || r.m.Lag() != 3 || !r.m.Ready() {
				t.Fatalf("after the failed firing: out = %d rows, lag = %d, ready = %v; want 0, 3, true",
					r.m.out.Len(), r.m.Lag(), r.m.Ready())
			}
			if kind != kindWindows {
				// Not bucketed, so the rows must still be where they were.
				if r.lanes[0].Len() != 1 || r.lanes[1].Len() != 2 {
					t.Errorf("lanes hold %d and %d rows, want 1 and 2", r.lanes[0].Len(), r.lanes[1].Len())
				}
			}
			r.m.out = good
			if err := r.m.Fire(); err != nil {
				t.Fatal(err)
			}
			if kind == kindConcat {
				wantRows(t, "out after the retry", rows(r.out), "1:1", "1:10", "2:20")
			} else {
				wantRows(t, "out after the retry", sortedWithin(rows(r.out), 2), "1:11", "2:20")
			}
			if r.m.Lag() != 0 {
				t.Errorf("lag = %d after the retry", r.m.Lag())
			}
		})
	}
}

// TestMergeConcatFailsPartWay: a concatenation appends lane chunk by lane
// chunk, so it can fail with some of them already in out and announced
// downstream. Those are consumed — the retry must not append them again —
// and everything from the failing chunk on stays in its lane.
func TestMergeConcatFailsPartWay(t *testing.T) {
	r := newMergeRig(t, kindConcat)
	// Lane 1 of another column type: out takes lane 0's rows, refuses lane 1's.
	r.lanes[1] = basket.New("q_out#1", catalog.NewSchema(
		catalog.Column{Name: "g", Type: vector.String}, catalog.Column{Name: "n", Type: vector.Int64}), nil)
	r.m.lanes = r.lanes
	r.emit(t, 0, 0, [2]int64{1, 1}, [2]int64{2, 2})
	g, n := vector.New(vector.String), vector.New(vector.Int64)
	g.AppendString("x")
	n.AppendInt(9)
	if err := r.lanes[1].Append([]*vector.Vector{g, n}); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if err := r.m.Fire(); err == nil || !strings.Contains(err.Error(), "q_merge") {
			t.Fatalf("attempt %d: err = %v, want the merge's append error", attempt, err)
		}
		wantRows(t, fmt.Sprintf("out after attempt %d", attempt), rows(r.out), "1:1", "2:2")
		if r.lanes[0].Len() != 0 || r.lanes[1].Len() != 1 || r.m.Merged() != 2 {
			t.Fatalf("attempt %d: lanes hold %d and %d rows, merged = %d; want 0, 1, 2",
				attempt, r.lanes[0].Len(), r.lanes[1].Len(), r.m.Merged())
		}
	}
}

// TestMergeWindowWaitsForEveryFrontier: a window is merged only once the
// slowest lane's delivered frontier has passed it, however much the other
// lanes have already contributed; the frontier passing is itself what
// makes the merge ready, with no new emission.
func TestMergeWindowWaitsForEveryFrontier(t *testing.T) {
	r := newMergeRig(t, kindWindows)
	r.emit(t, 0, 100, [2]int64{1, 1})
	r.emit(t, 0, 200, [2]int64{1, 2})
	r.frontiers[0] = 200
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	if r.out.Len() != 0 || r.m.Lag() != 2 || r.m.Ready() {
		t.Fatalf("lane 1 has delivered nothing: out = %d rows, lag = %d, ready = %v; want 0, 2, false",
			r.out.Len(), r.m.Lag(), r.m.Ready())
	}
	r.emit(t, 1, 100, [2]int64{1, 10})
	r.frontiers[1] = 100
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	wantRows(t, "out once lane 1 passed window 100", rows(r.out), "1:11")
	if r.m.Lag() != 1 || r.m.Ready() {
		t.Fatalf("window 200: lag = %d, ready = %v; want 1 buffered, not ready", r.m.Lag(), r.m.Ready())
	}
	r.frontiers[1] = 200 // an empty window for lane 1: nothing emitted, frontier moved
	if !r.m.Ready() {
		t.Fatal("not ready though every frontier passed a buffered window")
	}
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	wantRows(t, "out", rows(r.out), "1:11", "1:2")
}

// TestMergeReadsFrontiersBeforeDraining: a lane appends its partials and
// only then publishes its frontier, concurrently with the merge. A window
// may be released on a frontier reading only if the drain that follows the
// reading is what collects the lanes — here lane 1 delivers at the very
// moment its frontier is read, the latest point at which the reading can
// be relied on. A merge that drained first would release window 100
// without lane 1's partial and count it late on the next firing.
func TestMergeReadsFrontiersBeforeDraining(t *testing.T) {
	r := newMergeRig(t, kindWindows)
	r.emit(t, 0, 100, [2]int64{1, 1})
	r.frontiers[0] = 100
	delivered := false
	r.m.frontiers[1] = func() int64 {
		if !delivered {
			delivered = true
			r.emit(t, 1, 100, [2]int64{1, 10})
		}
		return 100
	}
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	wantRows(t, "out", rows(r.out), "1:11")
	if r.m.Late() != 0 {
		t.Errorf("late = %d: a partial delivered before its frontier was published was dropped", r.m.Late())
	}
}

// TestMergeLatePartials: a partial for a window already merged and
// delivered cannot be applied any more; it is counted and dropped, and
// does not disturb the windows still buffered.
func TestMergeLatePartials(t *testing.T) {
	r := newMergeRig(t, kindWindows)
	r.emit(t, 0, 100, [2]int64{1, 1})
	r.frontiers[0], r.frontiers[1] = 100, 100
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	r.emit(t, 1, 100, [2]int64{1, 10}, [2]int64{2, 20})
	r.emit(t, 1, 200, [2]int64{1, 5})
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	wantRows(t, "out", rows(r.out), "1:1")
	if r.m.Late() != 2 || r.m.Lag() != 1 || r.m.Merged() != 4 {
		t.Errorf("late = %d lag = %d merged = %d, want 2 late, window 200's partial buffered, 4 drained",
			r.m.Late(), r.m.Lag(), r.m.Merged())
	}
}

// TestMergeSnapshotRestore: the image carries the buffered windows — the
// partials are gone from the lanes, so nothing else holds them — and the
// counters; a merge restored from it releases the same windows the
// original would have.
func TestMergeSnapshotRestore(t *testing.T) {
	r := newMergeRig(t, kindWindows)
	r.emit(t, 0, 100, [2]int64{1, 1})
	r.frontiers[0], r.frontiers[1] = 100, 100
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	r.emit(t, 0, 100, [2]int64{9, 9}) // late
	r.emit(t, 0, 200, [2]int64{1, 2}, [2]int64{2, 3})
	r.emit(t, 1, 300, [2]int64{1, 30})
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	st := r.m.Snapshot()
	if len(st.Pending) != 2 {
		t.Fatalf("image holds %d windows, want 200 and 300", len(st.Pending))
	}

	r2 := newMergeRig(t, kindWindows)
	if err := r2.m.Restore(st); err != nil {
		t.Fatal(err)
	}
	if r2.m.Lag() != 3 || r2.m.Merged() != 5 || r2.m.Late() != 1 {
		t.Errorf("restored: lag = %d merged = %d late = %d, want 3, 5, 1", r2.m.Lag(), r2.m.Merged(), r2.m.Late())
	}
	// The original keeps running; the image must not alias its buckets.
	r.emit(t, 1, 200, [2]int64{1, 100})
	if err := r.m.Fire(); err != nil {
		t.Fatal(err)
	}
	r2.emit(t, 0, 100, [2]int64{9, 9}) // still late after the restore
	r2.frontiers[0], r2.frontiers[1] = 300, 300
	if err := r2.m.Fire(); err != nil {
		t.Fatal(err)
	}
	wantRows(t, "restored merge's out", sortedWithin(rows(r2.out), 2, 1), "1:2", "2:3", "1:30")
	if r2.m.Late() != 2 {
		t.Errorf("late = %d, want the restored high-water mark to reject window 100", r2.m.Late())
	}

	if err := r.m.Restore(st); err == nil {
		t.Error("restore into a merge that holds buffered windows succeeded")
	}
	// A merge that buffers nothing has the counters as its whole image, and
	// refuses one that carries windows.
	for _, kind := range []string{kindConcat, kindPlan} {
		p := newMergeRig(t, kind)
		p.emit(t, 0, 0, [2]int64{1, 1})
		if err := p.m.Fire(); err != nil {
			t.Fatal(err)
		}
		pst := p.m.Snapshot()
		if len(pst.Pending) != 0 || pst.Merged != 1 {
			t.Errorf("%s: image = %+v, want no windows and 1 merged", kind, pst)
		}
		p2 := newMergeRig(t, kind)
		if err := p2.m.Restore(pst); err != nil || p2.m.Merged() != 1 {
			t.Errorf("%s: restore: err = %v, merged = %d", kind, err, p2.m.Merged())
		}
		if err := newMergeRig(t, kind).m.Restore(st); err == nil {
			t.Errorf("%s: restored window buckets into a merge that keeps none", kind)
		}
	}
}
