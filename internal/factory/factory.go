// Package factory implements the DataCell's factories (§2.3): continuous
// queries cast as resumable units holding a compiled plan. A factory has
// input baskets and output baskets; when the scheduler fires it, it locks
// its baskets, runs the plan over the buffered tuples in bulk, appends the
// result to its outputs, removes the consumed input tuples, and suspends —
// exactly the loop of Algorithm 1 in the paper. Execution state (window
// buffers, shared-reader watermarks, statistics) persists between firings,
// giving the MonetDB co-routine semantics.
package factory

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
	"repro/internal/window"
)

// InputMode selects the consumption discipline for one input basket.
type InputMode uint8

// Input modes.
const (
	// Owned: the factory is the only consumer; it removes the tuples its
	// basket expression references (separate-baskets strategy).
	Owned InputMode = iota
	// Shared: the basket is shared with other factories; this factory only
	// advances its watermark, and the basket compacts what everyone has
	// seen (shared-baskets strategy).
	Shared
)

// Input binds one plan scan source to a basket.
type Input struct {
	Basket *basket.Basket
	Mode   InputMode
	// Bind is the scan source name in the plan this basket satisfies
	// (lower-case). It is usually the basket's own name, but the
	// separate-baskets strategy binds private replicas under the stream's
	// name.
	Bind string
	// ReaderID identifies this factory at a shared basket.
	ReaderID string
}

// Stats are cumulative factory counters.
type Stats struct {
	Firings   int64
	TuplesIn  int64
	TuplesOut int64
	// Late counts tuples the window runner dropped because they arrived
	// behind an already-emitted window boundary, plus streaming-join
	// probes that arrived behind their side's watermark (0 for unwindowed,
	// join-free factories).
	Late int64
	// JoinState is the number of rows the factory's streaming join
	// currently retains (a gauge, not a counter; 0 without a join).
	JoinState int64
	// JoinEvictions counts join-state rows expired behind the watermark.
	JoinEvictions int64
}

// Factory is a compiled continuous query; it implements
// scheduler.Transition.
type Factory struct {
	name    string
	plan    plan.Node
	catalog *catalog.Catalog
	clock   metrics.Clock

	inputs  []Input
	outputs []*basket.Basket

	// minTuples is the firing threshold (§2.4: "the system may explicitly
	// require a basket to have a minimum of n tuples").
	minTuples int

	// onResult, when set, receives every non-empty result batch along with
	// the max input timestamp it covers (for latency accounting). Called
	// outside all basket locks, before the batch is appended: an append
	// can deliver it downstream at once.
	onResult func(rel *storage.Relation, maxInputTS int64)

	// Window state (nil for unwindowed queries). Only the factory's own
	// firing changes the runner; runnerMu serves the readers (Stats,
	// CaptureState).
	runner   *window.Runner
	runnerMu sync.Mutex
	// closeAt is when the earliest window holding a tuple closes: its end
	// plus lateness, on the timestamp axis (math.MaxInt64: none). Ready
	// reads it without runnerMu; for arrival-time windows it is a clock
	// reading, and onClose tells the query's timer when it moves.
	closeAt atomic.Int64
	onClose func()
	// tagWindowEnd appends each emitted window's end boundary as an extra
	// column — shard pipelines of a partitioned windowed query mark their
	// partials so the merge can align pane grids across shards. Such a
	// lane also notifies its outputs whenever its frontier moves: the
	// merge waits on the frontier, and a lane can pass a window without
	// appending anything.
	tagWindowEnd bool
	// frontier is the delivered window frontier (atomic; only the
	// factory's firing writes it): every window whose end is <= frontier
	// has been appended to the output baskets. Initialized to
	// math.MinInt64.
	frontier int64

	// join is the persistent streaming join state of a join query (nil
	// otherwise). Join factories consume their whole pinned snapshot —
	// the state retains what future firings still need, so predicate
	// retention in the basket would only re-probe duplicates.
	join *exec.StreamJoin
	// fireAny relaxes Ready to "any input has tuples": a symmetric join
	// must fire when either stream side has arrivals, not when both do.
	fireAny bool

	// seen is the per-input arrival watermark (hseq+len observed at the
	// last firing) for Owned inputs. Tuples a predicate window retained
	// are below it and do not re-trigger the factory; they are re-examined
	// whenever new tuples arrive.
	seen []bat.OID

	// Latency is per-batch processing latency (emit time − newest input
	// timestamp); populated when the inputs carry a ts column.
	Latency *obs.Histogram

	mu    sync.Mutex
	stats Stats
}

// Option configures a Factory.
type Option func(*Factory)

// WithMinTuples sets the firing threshold (default 1).
func WithMinTuples(n int) Option {
	return func(f *Factory) {
		if n > 0 {
			f.minTuples = n
		}
	}
}

// SetResultHook chains fn onto the factory's result callback: fn runs
// after any previously installed callback, for every non-empty result
// batch, outside all basket locks and before the batch is appended to
// the outputs. It must be called before the factory is scheduled (it is
// not synchronized with firings).
func (f *Factory) SetResultHook(fn func(rel *storage.Relation, maxInputTS int64)) {
	if fn == nil {
		return
	}
	prev := f.onResult
	if prev == nil {
		f.onResult = fn
		return
	}
	f.onResult = func(rel *storage.Relation, maxInputTS int64) {
		prev(rel, maxInputTS)
		fn(rel, maxInputTS)
	}
}

// WithWindow attaches a window runner; the factory then buffers input
// tuples into the runner and emits one result per completed window.
func WithWindow(r *window.Runner) Option {
	return func(f *Factory) { f.runner = r }
}

// WithCloseHook sets fn to run after every firing that moves the
// factory's NextClose (outside all locks). It must be set before the
// factory is scheduled.
func WithCloseHook(fn func()) Option {
	return func(f *Factory) { f.onClose = fn }
}

// WithWindowEndTag appends each emitted window's end timestamp as a
// trailing column of the result (shard pipelines of partitioned windowed
// queries, whose merge stage aligns windows by that boundary), and makes
// every move of WindowFrontier notify the outputs' listeners, the merge.
func WithWindowEndTag() Option {
	return func(f *Factory) { f.tagWindowEnd = true }
}

// WithStreamJoin attaches persistent streaming join state: the plan's
// join node probes it incrementally instead of re-running a batch hash
// join per firing. Symmetric (stream-stream) state also switches the
// firing rule to "any input has tuples".
func WithStreamJoin(sj *exec.StreamJoin) Option {
	return func(f *Factory) {
		f.join = sj
		if sj != nil && sj.Symmetric() {
			f.fireAny = true
		}
	}
}

// WithClock overrides the clock (tests).
func WithClock(c metrics.Clock) Option {
	return func(f *Factory) { f.clock = c }
}

// WithLatency shares a latency histogram across factories — the shard
// pipelines of one partitioned query observe into a single histogram so
// the query's latency profile stays one distribution.
func WithLatency(h *obs.Histogram) Option {
	return func(f *Factory) {
		if h != nil {
			f.Latency = h
		}
	}
}

// New builds a factory around a compiled plan.
func New(name string, p plan.Node, cat *catalog.Catalog, inputs []Input, outputs []*basket.Basket, opts ...Option) (*Factory, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("factory %s: needs at least one input basket", name)
	}
	f := &Factory{
		name:      name,
		plan:      p,
		catalog:   cat,
		clock:     metrics.WallClock{},
		inputs:    inputs,
		outputs:   outputs,
		minTuples: 1,
		Latency:   obs.NewHistogram(),
		frontier:  math.MinInt64,
	}
	f.seen = make([]bat.OID, len(f.inputs))
	for i := range f.inputs {
		in := &f.inputs[i]
		in.Bind = strings.ToLower(in.Bind)
		if in.Bind == "" {
			in.Bind = strings.ToLower(in.Basket.Name())
		}
		if in.Mode == Shared {
			if in.ReaderID == "" {
				in.ReaderID = name
			}
			in.Basket.RegisterReader(in.ReaderID)
		}
		// Existing backlog counts as unseen.
		hseq, _ := in.Basket.Bounds()
		f.seen[i] = hseq
	}
	for _, o := range opts {
		o(f)
	}
	f.closeAt.Store(math.MaxInt64)
	return f, nil
}

// Name implements scheduler.Transition.
func (f *Factory) Name() string { return f.name }

// Plan exposes the compiled plan (diagnostics).
func (f *Factory) Plan() plan.Node { return f.plan }

// InputBaskets returns the factory's input baskets in input order — the
// places whose appends make this transition fireable. The engine
// subscribes the factory's scheduler handle to each.
func (f *Factory) InputBaskets() []*basket.Basket {
	out := make([]*basket.Basket, len(f.inputs))
	for i, in := range f.inputs {
		out[i] = in.Basket
	}
	return out
}

// Stats returns a copy of the cumulative counters.
func (f *Factory) Stats() Stats {
	f.mu.Lock()
	st := f.stats
	f.mu.Unlock()
	if f.runner != nil {
		f.runnerMu.Lock()
		st.Late = f.runner.Late()
		f.runnerMu.Unlock()
	}
	if f.join != nil {
		js := f.join.Stats()
		st.JoinState = js.StateRows
		st.JoinEvictions = js.Evictions
		st.Late += js.Late
	}
	return st
}

// WindowFrontier reports how far this factory's emitted windows have
// progressed: every window ending at or before the returned boundary has
// been delivered to the output baskets. Every firing moves it to the
// runner's watermark, so it is the watermark a firing left (SHOW's), a
// lane that has not seen a tuple yet follows its group, and an empty
// shard never stalls a windowed merge. math.MinInt64 before any reading.
func (f *Factory) WindowFrontier() int64 { return atomic.LoadInt64(&f.frontier) }

// Close unregisters shared readers so retained tuples are freed.
func (f *Factory) Close() {
	for _, in := range f.inputs {
		if in.Mode == Shared {
			in.Basket.UnregisterReader(in.ReaderID)
		}
	}
}

// NextClose returns the engine-clock reading at which the factory's
// earliest open window closes; ok is false with no open window, and for
// windows that do not close on the clock (count and event-time windows).
func (f *Factory) NextClose() (int64, bool) {
	c := f.closeAt.Load()
	return c, c != math.MaxInt64 && !f.runner.Spec().EventTime
}

// Ready implements scheduler.Transition: all inputs must hold at least
// minTuples unseen tuples (§2.4: a transition with multiple inputs needs
// tokens in every input place). Symmetric-join factories instead fire
// when ANY input has tuples — their other side's matches live in the
// join state, not in the basket. A windowed factory is also ready when
// time alone would close a window or move its frontier (timeDue).
func (f *Factory) Ready() bool {
	if f.runner != nil && f.timeDue() {
		return true
	}
	for i := range f.inputs {
		n := f.available(i)
		if f.fireAny {
			if n >= f.minTuples {
				return true
			}
			continue
		}
		if n < f.minTuples {
			return false
		}
	}
	return !f.fireAny
}

// timeDue reports whether a firing with no input would close a window or
// move a window-aligned lane's frontier across a window end: the clock
// has passed an arrival-time close, or the lanes' group maximum has
// passed a close or, less the lateness, the window end after the
// frontier. A window-aligned lane needs no window of its own open: the
// merge waits on its frontier. Atomic loads only, no runnerMu.
func (f *Factory) timeDue() bool {
	spec, c := f.runner.Spec(), f.closeAt.Load()
	if c != math.MaxInt64 && !spec.EventTime && f.clock.Now() >= c {
		return true
	}
	g, ok := f.runner.GroupMax()
	if !ok || g >= c {
		return ok
	}
	fr := atomic.LoadInt64(&f.frontier)
	return f.tagWindowEnd && (fr == math.MinInt64 || spec.NextEnd(fr) <= g-spec.Lateness)
}

func (f *Factory) available(i int) int {
	in := f.inputs[i]
	if in.Mode == Shared {
		in.Basket.Lock()
		off, n := in.Basket.UnseenLocked(in.ReaderID)
		in.Basket.Unlock()
		return n - off
	}
	hseq, n := in.Basket.Bounds()
	f.mu.Lock()
	seen := f.seen[i]
	f.mu.Unlock()
	return int(hseq + bat.OID(n) - seen)
}

// pinned is a consistent view of one input basket captured under its lock.
type pinned struct {
	in     Input
	view   bat.View // unseen window of the snapshot (chunk refs, no copy)
	offset int      // shared mode: first unseen row of the snapshot
	n      int      // snapshot length
	hseq   bat.OID
}

// Fire implements scheduler.Transition: one bulk processing step.
func (f *Factory) Fire() error {
	// The group clock must be read BEFORE the input is pinned: every
	// tuple below this reading was routed (and appended to our input)
	// before it was taken, so it is covered by the snapshot — a reading
	// taken later could have been raised past tuples still outside it.
	var groupMax int64
	var hasGroup bool
	if f.runner != nil {
		groupMax, hasGroup = f.runner.GroupMax()
	}
	// The same pre-pin discipline for streaming-join clocks: a reading
	// taken now only covers tuples that are either already processed or
	// about to be pinned below.
	if f.join != nil {
		f.join.ObserveClocks()
	}
	// Lock all inputs in name order to avoid deadlock with factories that
	// share baskets.
	locked := append([]Input(nil), f.inputs...)
	sort.Slice(locked, func(i, j int) bool {
		return locked[i].Basket.Name() < locked[j].Basket.Name()
	})
	for _, in := range locked {
		in.Basket.Lock()
	}

	// Pin a consistent snapshot of every input.
	pins := make([]pinned, len(f.inputs))
	total := 0
	for i, in := range f.inputs {
		view, n := in.Basket.LockedSnapshot()
		p := pinned{in: in, view: view, n: n, hseq: in.Basket.LockedHseq()}
		if in.Mode == Shared {
			p.offset, _ = in.Basket.UnseenLocked(in.ReaderID)
			p.view = view.Slice(p.offset, n)
			total += p.n - p.offset
		} else {
			f.mu.Lock()
			unseen := int(p.hseq + bat.OID(p.n) - f.seen[i])
			f.mu.Unlock()
			// Load shedding may have evicted unseen arrivals; only what is
			// actually in the snapshot counts as processed.
			if unseen > p.n {
				unseen = p.n
			}
			total += unseen
		}
		pins[i] = p
	}
	if f.runner != nil {
		return f.fireWindowed(pins[0], locked, total, groupMax, hasGroup)
	}
	if total == 0 {
		unlockInputs(locked)
		return nil
	}

	ctx := exec.NewContext(f.catalog)
	if f.join != nil {
		ctx.Joins[f.join.Node()] = f.join
	}
	for _, p := range pins {
		ctx.Overrides[p.in.Bind] = p.view
	}
	rel, err := exec.Run(f.plan, ctx)
	if err != nil {
		unlockInputs(locked)
		return fmt.Errorf("factory %s: %w", f.name, err)
	}

	// Consumption: remove what the basket expressions referenced (§2.3:
	// "all tuples consumed are removed from their input baskets").
	maxTS := int64(0)
	for _, p := range pins {
		if tsIdx := p.in.Basket.Schema().Index(catalog.TimestampColumn); tsIdx >= 0 && p.n-p.offset > 0 {
			last := p.view.Get(tsIdx, p.n-p.offset-1).I
			if last > maxTS {
				maxTS = last
			}
		}
		switch p.in.Mode {
		case Owned:
			if f.join != nil {
				// Join factories consume the whole snapshot: what future
				// firings need lives in the join state, and re-examining
				// retained tuples would re-probe duplicates.
				p.in.Basket.LockedDropPrefix(p.n)
			} else {
				// Consumed positions are relative to the pinned snapshot.
				p.in.Basket.LockedRemove(ctx.Consumed[p.in.Bind])
			}
		case Shared:
			p.in.Basket.LockedSetMark(p.in.ReaderID, p.hseq+bat.OID(p.n))
		}
	}
	f.mu.Lock()
	for i, p := range pins {
		if p.in.Mode == Owned {
			f.seen[i] = p.hseq + bat.OID(p.n)
		}
	}
	f.mu.Unlock()
	unlockInputs(locked)

	err = f.deliver(rel, maxTS, total)
	f.notifyOutputs()
	return err
}

// unlockInputs releases the input baskets Fire locked, in reverse order.
func unlockInputs(locked []Input) {
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].Basket.Unlock()
	}
}

// fireWindowed moves the unseen tuples of the (single) input into the
// window runner and emits any completed windows; with none, it advances
// the runner to the time that enabled the firing. The batch is copied
// before consumption so basket compaction cannot disturb it.
func (f *Factory) fireWindowed(p pinned, locked []Input, total int, groupMax int64, hasGroup bool) error {
	var batch *storage.Relation
	if total > 0 {
		batch = &storage.Relation{Schema: p.in.Basket.Schema(), Cols: p.view.CloneColumns()}
		switch p.in.Mode {
		case Owned:
			p.in.Basket.LockedDropPrefix(p.n)
			f.mu.Lock()
			f.seen[0] = p.hseq + bat.OID(p.n)
			f.mu.Unlock()
		case Shared:
			p.in.Basket.LockedSetMark(p.in.ReaderID, p.hseq+bat.OID(p.n))
		}
	}
	unlockInputs(locked)
	return f.runWindows(groupMax, hasGroup, batch)
}

// runWindows admits the group reading taken before the pin, appends
// batch to the runner — or, a firing with no input, advances it to the
// clock — and delivers what closed. The empty pin is what makes a flush's
// group reading safe: every tuple below it that this lane owns was
// already processed.
func (f *Factory) runWindows(groupMax int64, hasGroup bool, batch *storage.Relation) error {
	f.runnerMu.Lock()
	if hasGroup {
		f.runner.ObserveGroup(groupMax)
	}
	var results []window.Result
	var err error
	if batch != nil {
		results, err = f.runner.Append(batch)
	} else {
		results, err = f.runner.Flush(f.clock.Now())
	}
	if err != nil {
		err = fmt.Errorf("factory %s: %w", f.name, err)
	} else if err = f.deliverWindows(results); batch != nil {
		f.mu.Lock()
		f.stats.TuplesIn += int64(batch.NumRows())
		f.mu.Unlock()
	}
	f.unlockRunner()
	return err
}

// unlockRunner republishes closeAt from the runner, releases runnerMu,
// and then tells the query's timer if the close moved.
func (f *Factory) unlockRunner() {
	c, ok := f.runner.OpenClose()
	if !ok {
		c = math.MaxInt64
	}
	moved := f.closeAt.Swap(c) != c
	f.runnerMu.Unlock()
	if moved && f.onClose != nil {
		f.onClose()
	}
}

// deliverWindows appends emitted window results to the outputs and then
// publishes the delivered frontier; the caller holds runnerMu. The
// outputs' listeners run once, after the last append: a firing's windows
// reach a subscriber as one delivery.
func (f *Factory) deliverWindows(results []window.Result) error {
	var err error
	for _, res := range results {
		rel := res.Rel
		if f.tagWindowEnd {
			wend := vector.NewWithCap(vector.Timestamp, rel.NumRows())
			for i := 0; i < rel.NumRows(); i++ {
				wend.AppendInt(res.End)
			}
			rel = &storage.Relation{Schema: rel.Schema, Cols: append(append([]*vector.Vector(nil), rel.Cols...), wend)}
		}
		if err = f.deliver(rel, f.windowTS(res), 0); err != nil {
			break
		}
	}
	notify := len(results) > 0
	// The frontier moves only after the results above are in the output
	// baskets — a windowed merge reading it can rely on every window at
	// or below it being fully appended. A tagged lane's move wakes the
	// merge.
	if wm, ok := f.runner.Watermark(); ok && err == nil && wm > atomic.LoadInt64(&f.frontier) {
		atomic.StoreInt64(&f.frontier, wm)
		notify = notify || f.tagWindowEnd
	}
	if notify {
		f.notifyOutputs()
	}
	return err
}

// windowTS converts a window result boundary into a latency reference:
// arrival-time window ends are clock-domain timestamps. Count-based ends
// are tuple indexes and event-time ends live in the application's event
// domain — neither is comparable to the clock, so they carry no latency
// information.
func (f *Factory) windowTS(res window.Result) int64 {
	if spec := f.runner.Spec(); spec.Kind == sql.WindowRange && !spec.EventTime {
		return res.End
	}
	return 0
}

// State is the serializable image of a factory for checkpoints: the
// counters, the delivered window frontier, the per-input consumption
// watermarks (relative to each basket's content start, so they survive
// the OID reset of a restore), and the window/join operator state.
// Shared-mode marks are not here — they live in the basket image.
type State struct {
	Stats    Stats
	Frontier int64
	SeenRel  []int64
	Window   *window.State
	Join     *exec.JoinState
}

// CaptureState snapshots the factory. The engine holds its consistency
// gate while calling, so no firing is in flight; basket and runner
// locks are still taken for memory-visibility.
func (f *Factory) CaptureState() *State {
	st := &State{Frontier: atomic.LoadInt64(&f.frontier)}
	f.mu.Lock()
	st.Stats = f.stats
	seen := append([]bat.OID(nil), f.seen...)
	f.mu.Unlock()
	st.SeenRel = make([]int64, len(f.inputs))
	for i, in := range f.inputs {
		if in.Mode != Owned {
			continue
		}
		hseq, n := in.Basket.Bounds()
		st.SeenRel[i] = min(max(int64(seen[i]-hseq), 0), int64(n))
	}
	if f.runner != nil {
		f.runnerMu.Lock()
		st.Window = f.runner.Snapshot()
		f.runnerMu.Unlock()
	}
	if f.join != nil {
		st.Join = f.join.Snapshot()
	}
	return st
}

// RestoreState loads a snapshot into a freshly built factory whose input
// baskets have already been restored. The relative watermarks are
// re-anchored to the baskets' current head OIDs — critical for
// predicate-window retention, where tuples below the watermark must not
// re-trigger (or be re-consumed as fresh arrivals) after a restart.
func (f *Factory) RestoreState(st *State) error {
	if len(st.SeenRel) != len(f.inputs) {
		return fmt.Errorf("factory %s: restore image has %d inputs, want %d", f.name, len(st.SeenRel), len(f.inputs))
	}
	// Read basket heads before taking f.mu: Bounds takes Basket.mu, which
	// sits above Factory.mu in the lock hierarchy (basket locks are
	// acquired first on the firing path).
	heads := make([]bat.OID, len(f.inputs))
	for i, in := range f.inputs {
		if in.Mode != Owned {
			continue
		}
		heads[i], _ = in.Basket.Bounds()
	}
	f.mu.Lock()
	f.stats = st.Stats
	for i, in := range f.inputs {
		if in.Mode != Owned {
			continue
		}
		f.seen[i] = heads[i] + bat.OID(st.SeenRel[i])
	}
	f.mu.Unlock()
	atomic.StoreInt64(&f.frontier, st.Frontier)
	if st.Window != nil {
		if f.runner == nil {
			return fmt.Errorf("factory %s: restore image has window state but no runner", f.name)
		}
		f.runnerMu.Lock()
		err := f.runner.Restore(st.Window)
		f.unlockRunner()
		if err != nil {
			return fmt.Errorf("factory %s: %w", f.name, err)
		}
	}
	if st.Join != nil {
		if f.join == nil {
			return fmt.Errorf("factory %s: restore image has join state but no join", f.name)
		}
		if err := f.join.Restore(st.Join); err != nil {
			return fmt.Errorf("factory %s: %w", f.name, err)
		}
	}
	return nil
}

// deliver appends one result batch to the outputs and counts it. It
// leaves the outputs' listeners to the caller (notifyOutputs), which runs
// them once per firing.
func (f *Factory) deliver(rel *storage.Relation, maxTS int64, tuplesIn int) error {
	if maxTS > 0 {
		f.Latency.Observe(f.clock.Now() - maxTS)
	}
	if f.onResult != nil && rel.NumRows() > 0 {
		f.onResult(rel, maxTS)
	}
	for _, out := range f.outputs {
		out.Lock()
		err := out.LockedAppendRelation(rel)
		out.Unlock()
		if err != nil {
			return fmt.Errorf("factory %s: output %s: %w", f.name, out.Name(), err)
		}
	}
	// Counters move only after the outputs hold the emission, so a reader
	// observing TuplesIn == ingested knows every result has left the
	// factory (completion detection in benches and drain monitors).
	f.mu.Lock()
	f.stats.Firings++
	f.stats.TuplesIn += int64(tuplesIn)
	f.stats.TuplesOut += int64(rel.NumRows())
	f.mu.Unlock()
	return nil
}

// notifyOutputs runs the output baskets' append listeners: the
// transitions an emission wakes, and a subscription's delivery.
func (f *Factory) notifyOutputs() {
	for _, out := range f.outputs {
		out.NotifyAppend()
	}
}
