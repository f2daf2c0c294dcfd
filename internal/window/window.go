// Package window implements windowed continuous-query processing per the
// thesis outline (§3.1): no new kernel operators are introduced; instead
// windows are realized at the query-plan level by slicing basket content
// and either re-evaluating the full plan per window (re-evaluation) or
// maintaining per-basic-window summaries that merge into window results
// (incremental evaluation, the basic-window model of StatStream).
//
// Time-based windows are event-time-correct under out-of-order arrival:
// the buffer is kept ordered by timestamp, emission is driven by a
// watermark (max seen timestamp minus the allowed lateness) instead of
// the last tuple, and tuples arriving behind an already-emitted window
// boundary are counted as late and dropped rather than silently lost or
// retained forever.
package window

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Mode selects the evaluation strategy.
type Mode uint8

// Evaluation strategies.
const (
	// ReEvaluate computes every window from scratch over its full content.
	ReEvaluate Mode = iota
	// Incremental summarizes each basic window (pane) once and synthesizes
	// window results by merging pane summaries.
	Incremental
)

// String names the mode.
func (m Mode) String() string {
	if m == Incremental {
		return "incremental"
	}
	return "re-evaluation"
}

// noTS marks "no timestamp observed yet" for watermark state.
const noTS = math.MinInt64

// Spec describes a sliding window.
type Spec struct {
	Kind  sql.WindowKind // WindowRows (count-based) or WindowRange (time-based)
	Size  int64          // tuples, or nanoseconds
	Slide int64          // tuples, or nanoseconds; Slide <= Size
	// TSIndex is the position of the timestamp column in the buffered
	// tuples (time-based windows).
	TSIndex int
	// Lateness is the out-of-order tolerance of time-based windows: the
	// watermark trails the maximum seen timestamp by this much, so a
	// window [s, s+Size) is emitted only once a tuple with
	// ts >= s+Size+Lateness arrives (or the clock passes that point).
	Lateness int64
	// EventTime marks the timestamp column as application-supplied event
	// time rather than the basket's arrival stamp. Event-time windows
	// advance on data only — Flush is a no-op, because wall-clock
	// readings are not comparable to the event domain.
	EventTime bool
}

// Validate checks the spec's invariants.
func (s Spec) Validate() error {
	if s.Kind != sql.WindowRows && s.Kind != sql.WindowRange {
		return fmt.Errorf("window: invalid kind")
	}
	if s.Size <= 0 || s.Slide <= 0 || s.Slide > s.Size {
		return fmt.Errorf("window: need 0 < slide <= size, got size=%d slide=%d", s.Size, s.Slide)
	}
	if s.Lateness < 0 {
		return fmt.Errorf("window: negative lateness %d", s.Lateness)
	}
	if s.Kind == sql.WindowRows && (s.Lateness != 0 || s.EventTime) {
		return fmt.Errorf("window: lateness/event time apply to time-based windows only")
	}
	return nil
}

// Evaluator computes the continuous query over one complete window.
type Evaluator interface {
	// Eval runs the query over the window's columns.
	Eval(win *storage.Relation) (*storage.Relation, error)
	// Schema describes the result columns.
	Schema() *catalog.Schema
}

// PaneEvaluator is the incremental counterpart: it summarizes individual
// panes and merges k consecutive pane summaries into a window result.
type PaneEvaluator interface {
	// Summarize reduces one pane to a mergeable summary.
	Summarize(pane *storage.Relation) (Summary, error)
	// Merge combines consecutive pane summaries into the window result.
	Merge(panes []Summary) (*storage.Relation, error)
	// Schema describes the result columns.
	Schema() *catalog.Schema
}

// Summary is an opaque pane digest produced by a PaneEvaluator.
type Summary interface{}

// Result is one emitted window.
type Result struct {
	// Start and End delimit the window: tuple indexes for count windows
	// (absolute, since the start of the stream) or timestamps for time
	// windows.
	Start, End int64
	Rel        *storage.Relation
}

// NextEnd returns the first window end past t: windows start on
// multiples of Slide, so their ends lie on the grid k·Slide + Size.
// math.MaxInt64 when no end past t is representable.
func (s Spec) NextEnd(t int64) int64 {
	e := t - mod(t-s.Size, s.Slide) + s.Slide
	if e <= t {
		return math.MaxInt64
	}
	return e
}

// WatermarkGroup is a shared event-time clock for the shard runners of
// one partitioned windowed query: every runner raises it with the
// timestamps it sees (and, on arrival time, with its flush readings of
// the clock), and every runner's watermark reads the group maximum. A
// shard whose own partition lags (or is empty) still closes its windows
// once the stream as a whole has moved past them — bounded disorder is a
// property of the stream, not of one shard's subsequence.
type WatermarkGroup struct {
	max  int64 // atomic; noTS until the first Raise
	spec Spec  // the window grid wake watches; both set before the group is shared
	wake func(from int)
}

// NewWatermarkGroup returns an empty group clock.
func NewWatermarkGroup() *WatermarkGroup {
	g := &WatermarkGroup{}
	atomic.StoreInt64(&g.max, noTS)
	return g
}

// Raise lifts the group maximum to at least ts.
func (g *WatermarkGroup) Raise(ts int64) { g.raise(ts, -1) }

// raise is Raise by lane from. The first raise, and one that moves the
// maximum, less the lateness, across a window end of the runner
// Runner.WakeOnEnds armed the group for, runs its wake for the lanes but
// from: a sibling's window may close, or its frontier move, with no
// arrival of its own. Other raises wake nothing.
func (g *WatermarkGroup) raise(ts int64, from int) {
	for {
		cur := atomic.LoadInt64(&g.max)
		if ts <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&g.max, cur, ts) {
			if g.wake != nil && (cur == noTS || g.spec.NextEnd(cur-g.spec.Lateness) <= ts-g.spec.Lateness) {
				g.wake(from)
			}
			return
		}
	}
}

// Max returns the group maximum (noTS if nothing was raised).
func (g *WatermarkGroup) Max() int64 { return atomic.LoadInt64(&g.max) }

// Runner buffers arriving tuples and emits one Result per completed
// window, using the configured strategy. It is not safe for concurrent
// use; the owning factory serializes access.
type Runner struct {
	spec Spec
	mode Mode

	eval Evaluator     // ReEvaluate mode
	pane PaneEvaluator // Incremental mode

	buf      *storage.Relation // pending tuples (window suffix), ts-ordered for time windows
	absBase  int64             // absolute index of buf row 0 (count windows)
	absCount int64             // absolute count of tuples ever appended
	winStart int64             // current window start (abs index or timestamp)
	started  bool              // time windows: winStart initialized from first tuple
	emitted  bool              // time windows: at least one window emitted (late cutoff active)
	// emptyRows: a time window with no tuples still yields rows (a scalar
	// aggregate's count of 0), so every window is emitted in turn; else
	// the empty windows before the first buffered tuple are skipped.
	emptyRows bool

	maxTS   int64 // largest event timestamp appended (time windows)
	flushTS int64 // latest Flush clock reading (arrival-time windows)
	late    int64 // tuples dropped because they arrived behind the emitted frontier

	group *WatermarkGroup // optional shared clock (partitioned shard runners)
	lane  int             // this runner's lane in the group's wake
	// groupSeen is the group reading this runner is allowed to act on.
	// The watermark never reads the group live: a faster shard may have
	// raised it past tuples still sitting unprocessed in this shard's
	// input basket, and advancing on that reading would misclassify them
	// as late. The owner observes the group at safe points — before
	// pinning its input batch, or when its backlog is empty.
	groupSeen int64

	panes     []Summary // Incremental: pane summaries inside current horizon
	paneStart int64     // start of the first un-summarized pane (abs or ts)
}

// NewRunner builds a runner. For ReEvaluate pass an Evaluator; for
// Incremental pass a PaneEvaluator and the spec must have Size divisible
// by Slide (panes are slide-sized).
func NewRunner(spec Spec, mode Mode, eval Evaluator, pane PaneEvaluator, schema *catalog.Schema) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if mode == Incremental {
		if pane == nil {
			return nil, fmt.Errorf("window: incremental mode needs a pane evaluator")
		}
		if spec.Size%spec.Slide != 0 {
			return nil, fmt.Errorf("window: incremental mode needs size %% slide == 0")
		}
	} else if eval == nil {
		return nil, fmt.Errorf("window: re-evaluation mode needs an evaluator")
	}
	r := &Runner{
		spec:      spec,
		mode:      mode,
		eval:      eval,
		pane:      pane,
		buf:       storage.NewRelation(schema),
		maxTS:     noTS,
		flushTS:   noTS,
		groupSeen: noTS,
	}
	if spec.Kind == sql.WindowRange {
		// An evaluation error counts as rows: emitting every window is
		// always correct.
		rel, err := r.evalEmpty()
		r.emptyRows = err != nil || rel.NumRows() > 0
	}
	return r, nil
}

// evalEmpty computes a window with no tuples.
func (r *Runner) evalEmpty() (*storage.Relation, error) {
	if r.mode == ReEvaluate {
		return r.eval.Eval(r.slice(0, 0))
	}
	sum, err := r.pane.Summarize(r.slice(0, 0))
	if err != nil {
		return nil, err
	}
	return r.merge(slices.Repeat([]Summary{sum}, int(r.spec.Size/r.spec.Slide)))
}

// merge combines a window's pane summaries: the window is the first
// Size/Slide of panes, a list that starts at the window's start.
func (r *Runner) merge(panes []Summary) (*storage.Relation, error) {
	k := int(r.spec.Size / r.spec.Slide)
	if len(panes) < k {
		return nil, fmt.Errorf("window: internal pane shortfall (%d < %d)", len(panes), k)
	}
	return r.pane.Merge(panes[:k])
}

// Mode returns the evaluation strategy.
func (r *Runner) Mode() Mode { return r.mode }

// Spec returns the window specification.
func (r *Runner) Spec() Spec { return r.spec }

// Late returns the number of tuples dropped because they arrived behind
// an already-emitted window boundary.
func (r *Runner) Late() int64 { return r.late }

// ShareWatermark attaches a group clock; the shard runners of one
// partitioned query share one so window completion tracks the whole
// stream's progress. Must be called before the first Append.
func (r *Runner) ShareWatermark(g *WatermarkGroup) { r.group = g }

// GroupMax returns the shared group clock's live maximum; ok is false
// without a group or before any shard raised it. Callers pass a safe
// reading (taken before pinning their input) to ObserveGroup.
func (r *Runner) GroupMax() (int64, bool) {
	if r.group == nil {
		return 0, false
	}
	g := r.group.Max()
	return g, g != noTS
}

// ObserveGroup admits a group clock reading into this runner's
// watermark. Only readings taken while every tuple below them was
// already handed to (or pinned for) this runner are safe — see
// groupSeen.
func (r *Runner) ObserveGroup(ts int64) {
	if ts > r.groupSeen {
		r.groupSeen = ts
	}
}

// WakeOnEnds arms the runner's watermark group, if it shares one, to
// call wake(from) whenever a raise by lane from crosses one of the
// runner's window ends; this runner raises as lane. Call it before the
// group is shared.
func (r *Runner) WakeOnEnds(lane int, wake func(from int)) {
	if r.group != nil {
		r.lane, r.group.spec, r.group.wake = lane, r.spec, wake
	}
}

// OpenClose returns when the next window to emit closes: its end plus
// the lateness, on the timestamp axis. ok is false for count windows,
// before the first tuple, and while no tuple waits in an unemitted
// window unless an empty window yields rows — time alone then closes
// nothing worth a firing.
func (r *Runner) OpenClose() (int64, bool) {
	if r.spec.Kind != sql.WindowRange || !r.started || (r.buf.NumRows() == 0 && !r.emptyRows) {
		return 0, false
	}
	return r.winStart + r.spec.Size + r.spec.Lateness, true
}

// Watermark returns the event-time watermark — the boundary up to which
// window content is final: max(seen timestamps, flush clock, observed
// group maximum) − lateness. The second result is false until any of
// those sources has a reading (and always for count windows).
func (r *Runner) Watermark() (int64, bool) {
	if r.spec.Kind != sql.WindowRange {
		return 0, false
	}
	wm := r.maxTS
	if r.flushTS > wm {
		wm = r.flushTS
	}
	if r.groupSeen > wm {
		wm = r.groupSeen
	}
	if wm == noTS {
		return 0, false
	}
	return wm - r.spec.Lateness, true
}

// Append adds arriving tuples (columns aligned with the runner's schema)
// and returns any windows they complete.
func (r *Runner) Append(rel *storage.Relation) ([]Result, error) {
	if rel.NumRows() > 0 {
		if r.spec.Kind == sql.WindowRange {
			r.appendTime(rel)
		} else {
			r.buf.AppendRelation(rel)
			r.absCount += int64(rel.NumRows())
		}
	}
	return r.advance()
}

// appendTime merges a batch into the ts-ordered buffer: the window
// origin is established (or, before anything was emitted, lowered) from
// the batch minimum, tuples behind the emitted frontier are counted late
// and dropped, and the survivors are placed in timestamp order.
func (r *Runner) appendTime(rel *storage.Relation) {
	ts := rel.Cols[r.spec.TSIndex].Ints()
	n := rel.NumRows()
	lo, hi := ts[0], ts[0]
	sorted := true
	for i := 1; i < n; i++ {
		v := ts[i]
		if v < ts[i-1] {
			sorted = false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > r.maxTS {
		r.maxTS = hi
	}
	if r.group != nil {
		r.group.raise(hi, r.lane)
	}
	aligned := lo - mod(lo, r.spec.Slide)
	if !r.started {
		r.winStart = aligned
		r.paneStart = aligned
		r.started = true
	} else if !r.emitted && aligned < r.winStart {
		// Nothing emitted yet: an earlier tuple can still pull the window
		// origin back so it lands in the same windows a sorted arrival
		// order would have produced.
		r.winStart = aligned
		r.paneStart = aligned
	}

	// Drop tuples behind the frontier nothing can be re-opened for: the
	// current window start under re-evaluation, the summarized pane
	// frontier under incremental evaluation.
	if r.emitted && lo < r.cutoff() {
		cut := r.cutoff()
		keep := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if ts[i] >= cut {
				keep = append(keep, i)
			}
		}
		r.late += int64(n - len(keep))
		if len(keep) == 0 {
			return
		}
		// The survivors keep their order: a sorted batch stays sorted.
		rel = rel.Take(keep)
		ts = rel.Cols[r.spec.TSIndex].Ints()
		n = rel.NumRows()
		lo = slices.Min(ts)
	}

	inOrder := sorted
	if b := r.buf.NumRows(); inOrder && b > 0 && lo < r.buf.Cols[r.spec.TSIndex].Ints()[b-1] {
		inOrder = false
	}
	r.buf.AppendRelation(rel)
	r.absCount += int64(n)
	if !inOrder {
		r.restoreOrder(n)
	}
}

// restoreOrder re-establishes timestamp order after appending the last
// `appended` rows at the tail. Only the displaced suffix is rewritten —
// the sorted prefix below the batch minimum stays in place — so the
// cost is O(batch + displaced span), not O(buffer). Ties keep arrival
// order (resident rows before batch rows), matching a stable sort of
// the whole buffer.
func (r *Runner) restoreOrder(appended int) {
	ts := r.buf.Cols[r.spec.TSIndex].Ints()
	n := r.buf.NumRows()
	old := n - appended
	batch := make([]int, appended)
	for i := range batch {
		batch[i] = old + i
	}
	sort.SliceStable(batch, func(a, b int) bool { return ts[batch[a]] < ts[batch[b]] })
	// The prefix strictly below the batch minimum is untouched.
	lo := ts[batch[0]]
	k := sort.Search(old, func(i int) bool { return ts[i] >= lo })
	// Two-pointer merge of the resident rows [k, old) with the sorted
	// batch; resident rows win ties.
	perm := make([]int, 0, n-k)
	i, j := k, 0
	for i < old && j < appended {
		if ts[i] <= ts[batch[j]] {
			perm = append(perm, i)
			i++
		} else {
			perm = append(perm, batch[j])
			j++
		}
	}
	for ; i < old; i++ {
		perm = append(perm, i)
	}
	perm = append(perm, batch[j:]...)
	for _, col := range r.buf.Cols {
		suffix := col.Take(perm)
		col.Truncate(k)
		col.AppendVector(suffix)
	}
}

// cutoff is the timestamp below which an arriving tuple can no longer be
// integrated: the current window start for re-evaluation (every pending
// window is recomputed from the buffer), the summarized pane frontier
// for incremental evaluation (sealed summaries are never reopened).
func (r *Runner) cutoff() int64 {
	if r.mode == Incremental {
		return r.paneStart
	}
	return r.winStart
}

// Flush advances arrival-time windows to the given clock reading,
// emitting windows whose end passed watermark-deep into the past even if
// no later tuple arrived; a shared group is raised to the reading.
// Event-time windows never take the clock reading — the wall clock says
// nothing about how far the event domain has progressed — but they still
// re-check completion, because a shared watermark group may have
// advanced since the last append.
func (r *Runner) Flush(now int64) ([]Result, error) {
	if r.spec.Kind != sql.WindowRange {
		return nil, nil
	}
	if !r.spec.EventTime && now > r.flushTS {
		r.flushTS = now
		if r.group != nil {
			// The clock moved every lane's watermark: what it closes here
			// it closes for the siblings too.
			r.group.raise(now, r.lane)
		}
	}
	if !r.started {
		return nil, nil
	}
	return r.advance()
}

func (r *Runner) advance() ([]Result, error) {
	var out []Result
	for {
		if r.started && !r.emptyRows {
			r.skipEmpty()
		}
		res, ok, err := r.tryEmit()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, res)
	}
}

// skipEmpty moves the window start past the windows that end by both
// the watermark and the first buffered tuple. They are complete and
// empty, so they would yield no rows; after an idle gap, or a late
// clock reading, emitting them one by one would cost gap/Slide
// evaluations and deliver nothing.
func (r *Runner) skipEmpty() {
	t, ok := r.Watermark()
	if n := r.buf.NumRows(); n > 0 && ok {
		t = min(t, r.buf.Cols[r.spec.TSIndex].Ints()[0])
	}
	e := r.spec.NextEnd(t)
	if !ok || e == math.MaxInt64 || e-r.spec.Size <= r.winStart {
		return
	}
	// The pane list covers [winStart, paneStart), one summary a slide.
	if j := (e - r.spec.Size - r.winStart) / r.spec.Slide; j < int64(len(r.panes)) {
		r.panes = r.panes[j:]
	} else {
		r.panes, r.paneStart = nil, e-r.spec.Size
	}
	r.winStart = e - r.spec.Size
}

// tryEmit emits the next complete window, if any.
func (r *Runner) tryEmit() (Result, bool, error) {
	end := r.winStart + r.spec.Size
	if r.spec.Kind == sql.WindowRows {
		if r.absCount < end {
			return Result{}, false, nil
		}
	} else if wm, ok := r.Watermark(); !r.started || !ok || wm < end {
		return Result{}, false, nil
	}
	return r.emit(end)
}

// emit evaluates the window [winStart, end) and slides past it.
func (r *Runner) emit(end int64) (Result, bool, error) {
	r.emitted = true
	var rel *storage.Relation
	var err error
	if r.mode == ReEvaluate {
		rel, err = r.eval.Eval(r.slice(r.pos(r.winStart), r.pos(end)))
	} else if err = r.seal(end); err == nil {
		rel, err = r.merge(r.panes)
	}
	if err != nil {
		return Result{}, false, err
	}
	res := Result{Start: r.winStart, End: end, Rel: rel}
	r.winStart += r.spec.Slide
	// Expire everything before the new window start. A time buffer is
	// ts-ordered, so the prefix is exactly the tuples whose value is
	// below the boundary — an out-of-order straggler can never hide
	// behind a newer tuple and leak.
	if drop := r.pos(r.winStart); drop > 0 {
		for _, c := range r.buf.Cols {
			c.DropPrefix(drop)
		}
		r.absBase += int64(drop)
	}
	if r.mode == Incremental && len(r.panes) > 0 {
		r.panes = r.panes[1:]
	}
	return res, true, nil
}

// seal summarizes the panes from paneStart up to end. A window only
// closes once the watermark passed its end, so every tuple that may
// still arrive for these panes is beyond the allowed lateness — sealing
// them now loses nothing that in-order arrival would have kept.
func (r *Runner) seal(end int64) error {
	for ; r.paneStart+r.spec.Slide <= end; r.paneStart += r.spec.Slide {
		sum, err := r.pane.Summarize(r.slice(r.pos(r.paneStart), r.pos(r.paneStart+r.spec.Slide)))
		if err != nil {
			return err
		}
		r.panes = append(r.panes, sum)
	}
	return nil
}

// pos maps a point on the window axis — a tuple index or a timestamp —
// to the first buffer row at or past it (a time buffer is ts-ordered).
func (r *Runner) pos(t int64) int {
	if r.spec.Kind == sql.WindowRows {
		return min(max(int(t-r.absBase), 0), r.buf.NumRows())
	}
	ts := r.buf.Cols[r.spec.TSIndex].Ints()
	return sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
}

// State is a serializable image of a runner for checkpoints. Pane
// summaries are deliberately absent: they are opaque (not gob-friendly)
// and fully reconstructible, because every summarized-but-unmerged pane
// covers [WinStart, PaneStart) and the buffer still holds every tuple
// at or past WinStart.
type State struct {
	Buf       []*vector.Vector
	AbsBase   int64
	AbsCount  int64
	WinStart  int64
	Started   bool
	Emitted   bool
	MaxTS     int64
	FlushTS   int64
	Late      int64
	GroupSeen int64
	PaneStart int64
}

// Snapshot captures the runner's state. The caller must hold the same
// serialization the owning factory uses for Append/Flush.
func (r *Runner) Snapshot() *State {
	return &State{
		Buf:       vector.CloneColumns(r.buf.Cols),
		AbsBase:   r.absBase,
		AbsCount:  r.absCount,
		WinStart:  r.winStart,
		Started:   r.started,
		Emitted:   r.emitted,
		MaxTS:     r.maxTS,
		FlushTS:   r.flushTS,
		Late:      r.late,
		GroupSeen: r.groupSeen,
		PaneStart: r.paneStart,
	}
}

// Restore loads a snapshot into a freshly built runner (same spec, mode,
// and evaluators). Incremental pane summaries are rebuilt by
// re-summarizing the restored buffer over [WinStart, PaneStart); a
// shared watermark group, if attached, is re-raised to the restored
// maximum so the group clock never runs behind restored state.
func (r *Runner) Restore(st *State) error {
	if r.buf.NumRows() != 0 {
		return fmt.Errorf("window: restore into non-empty runner")
	}
	if len(st.Buf) != len(r.buf.Cols) {
		return fmt.Errorf("window: restore image has %d columns, want %d", len(st.Buf), len(r.buf.Cols))
	}
	r.buf.Cols = st.Buf
	r.absBase = st.AbsBase
	r.absCount = st.AbsCount
	r.winStart = st.WinStart
	r.started = st.Started
	r.emitted = st.Emitted
	r.maxTS = st.MaxTS
	r.flushTS = st.FlushTS
	r.late = st.Late
	r.groupSeen = st.GroupSeen
	r.paneStart = st.PaneStart
	if r.group != nil && r.maxTS != noTS {
		r.group.Raise(r.maxTS)
	}
	if r.mode == Incremental {
		r.paneStart = st.WinStart
		if err := r.seal(st.PaneStart); err != nil {
			return fmt.Errorf("window: rebuilding panes: %w", err)
		}
	}
	return nil
}

// mod is a non-negative modulus (timestamps may precede the epoch).
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// slice materializes buffer rows [lo, hi) as window views.
func (r *Runner) slice(lo, hi int) *storage.Relation {
	out := &storage.Relation{Schema: r.buf.Schema, Cols: make([]*vector.Vector, len(r.buf.Cols))}
	for i, c := range r.buf.Cols {
		out.Cols[i] = c.Window(lo, hi)
	}
	return out
}
