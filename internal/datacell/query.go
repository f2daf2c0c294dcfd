package datacell

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/scheduler"
	"repro/internal/sql"
	"repro/internal/vector"
	"repro/internal/window"
)

// Query is a registered continuous query: the installed form of its
// topology. On a partitioned stream a partitionable query runs as N lane
// factories whose emissions a merge transition recombines into the
// output basket; a routed query has no factory of its own (it is a member
// of the stream's shared scan); otherwise there is exactly one factory.
type Query struct {
	Name     string
	SQL      string
	Strategy Strategy

	topo   *topology
	engine *Engine
	// live is set once install completes and cleared by whoever wins the
	// right to drop the query; lookups skip queries that are not live.
	live atomic.Bool
	undo []func() // inverse of every install side effect, in install order

	inputs  []*basket.Basket // input places, query-owned (replicas) or not
	places  []*basket.Basket // query-owned places: <q>_out, replicas, lane sinks
	sinks   []*basket.Basket // lane sinks <q>_out#i, by lane; empty without a merge
	facts   []*factory.Factory
	merge   *partition.Merge // nil when unpartitioned
	out     *basket.Basket
	sub     *Subscription // nil when the query polls via SQL
	timer   *laneTimer    // windowed queries only
	routed  *routedQuery  // routed strategy only (shared-scan attachment)
	durable bool          // state captured by checkpoints (durable engines only)

	// trace is the bounded ring of the query's last-K pipeline firings
	// (SHOW TRACE).
	trace *obs.TraceRing
}

// Subscription returns the query's result subscription, or nil when the
// query was registered for SQL polling (results then accumulate in the
// <name>_out basket until a one-time SELECT consumes them).
func (q *Query) Subscription() *Subscription { return q.sub }

// Out returns the query's output basket (queryable by one-time SQL under
// the name <query>_out).
func (q *Query) Out() *basket.Basket { return q.out }

// Stats returns the factory counters, summed across shard pipelines.
// Late additionally includes partials a windowed merge had to discard
// because their window was already merged (stragglers beyond the
// declared lateness). JoinState/JoinEvictions aggregate the streaming
// join state of all pipelines (0 for join-free queries).
func (q *Query) Stats() factory.Stats {
	if q.routed != nil {
		m := q.routed.member
		return factory.Stats{
			Firings:   m.firings.Load(),
			TuplesIn:  m.tuplesIn.Load(),
			TuplesOut: m.tuplesOut.Load(),
		}
	}
	var total factory.Stats
	for _, f := range q.facts {
		st := f.Stats()
		total.Firings += st.Firings
		total.TuplesIn += st.TuplesIn
		total.TuplesOut += st.TuplesOut
		total.Late += st.Late
		total.JoinState += st.JoinState
		total.JoinEvictions += st.JoinEvictions
	}
	if q.merge != nil {
		total.Late += q.merge.Late()
	}
	return total
}

// JoinState returns the number of rows the query's streaming join
// currently retains across all shard pipelines: both hash sides of a
// stream-stream join, the materialized table of a stream-table join. 0
// for join-free queries.
func (q *Query) JoinState() int64 { return q.Stats().JoinState }

// JoinEvictions returns the cumulative number of join-state rows expired
// behind the watermark (WITHIN-bounded joins only).
func (q *Query) JoinEvictions() int64 { return q.Stats().JoinEvictions }

// LateTuples returns the number of tuples dropped as too late across the
// query's pipelines — arrivals behind an already-emitted window boundary
// (and, for partitioned windowed queries, shard partials that surfaced
// after their window was merged). 0 for unwindowed queries.
func (q *Query) LateTuples() int64 { return q.Stats().Late }

// Watermark returns the query's event-time watermark — the boundary up
// to which window content is final, the minimum across shard pipelines.
// ok is false for unwindowed queries and before any timestamp was seen.
func (q *Query) Watermark() (int64, bool) {
	wm := int64(math.MaxInt64)
	for _, f := range q.facts {
		wm = min(wm, f.WindowFrontier())
	}
	return wm, wm != math.MinInt64 && len(q.facts) > 0
}

// Latency returns the per-batch latency histogram. Shard pipelines of a
// partitioned query share one histogram, so this is always the whole
// query's distribution.
func (q *Query) Latency() *obs.Histogram {
	if q.routed != nil {
		return q.routed.member.latency
	}
	return q.facts[0].Latency
}

// Shards returns the number of parallel shard pipelines executing the
// query (1 for an unpartitioned query).
func (q *Query) Shards() int { return max(len(q.facts), 1) }

// Partitioned reports whether the query runs as shard pipelines with a
// merge transition.
func (q *Query) Partitioned() bool { return q.merge != nil }

// arrangement names the input arrangement in effect: sharded queries
// consume the stream's shard baskets by watermark whatever strategy they
// declared.
func (q *Query) arrangement() string {
	if q.Partitioned() {
		return "partitioned"
	}
	return q.Strategy.String()
}

// MergeLag returns the number of shard-emitted tuples not yet merged
// into the output basket (0 for unpartitioned queries).
func (q *Query) MergeLag() int {
	if q.merge == nil {
		return 0
	}
	return q.merge.Lag()
}

// Inputs returns the query's input places: the private replica(s) under
// the separate strategy, the stream's shard baskets when partitioned, or
// the shared basket(s) otherwise.
func (q *Query) Inputs() []*basket.Basket { return q.inputs }

// Shed returns the number of tuples load shedding evicted from this
// query's private input basket(s).
func (q *Query) Shed() int64 {
	var n int64
	for _, b := range q.inputs {
		n += b.Shed()
	}
	return n
}

// InputBacklog returns the number of tuples currently buffered in the
// query's input places: the private replica(s) under the separate
// strategy, the stream's shard baskets when partitioned, or the whole
// shared basket(s) otherwise. Retained predicate-window tuples show up
// here.
func (q *Query) InputBacklog() int {
	n := 0
	for _, b := range q.inputs {
		n += b.Len()
	}
	return n
}

// queryConfig is a continuous query's WITH (...) settings.
type queryConfig struct {
	strategy   Strategy
	minTuples  int
	windowMode window.Mode
	forceMode  bool
	subDepth   int
	priority   int
	shedAt     int
	policy     Backpressure
	lateness   int64  // out-of-order tolerance of WINDOW RANGE, ns
	tsCol      string // event-time column for WINDOW RANGE ("" = arrival ts)
	durable    bool   // include operator state in checkpoints (default true)
	ckptEvery  int64  // requested checkpoint cadence, ns (0 = engine default)
}

// withOption is one key of CREATE CONTINUOUS QUERY ... WITH (...): its
// accepted spellings and how a value sets it. The table is the only place
// a WITH key is named.
type withOption struct {
	keys  []string
	parse func(c *queryConfig, s sql.OptionSpec) error
}

var withOptions = []withOption{
	// strategy selects the basket arrangement (default separate, the
	// paper's first strategy).
	enumOption("strategy", "separate, shared, or routed", map[string]Strategy{
		"separate": SeparateBaskets,
		"shared":   SharedBaskets,
		"routed":   RoutedScan,
	}, func(c *queryConfig, s Strategy) { c.strategy = s }),
	// min_tuples is the factory's firing threshold.
	intOption(func(c *queryConfig, n int) { c.minTuples = n }, "min_tuples"),
	// window_mode pins the window evaluation strategy; without it, windowed
	// queries are incremental when the plan shape allows and re-evaluated
	// otherwise.
	enumOption("window_mode", "incremental or reeval", map[string]window.Mode{
		"incremental": window.Incremental,
		"reeval":      window.ReEvaluate,
		"re_evaluate": window.ReEvaluate,
		"reevaluate":  window.ReEvaluate,
	}, func(c *queryConfig, m window.Mode) { c.windowMode, c.forceMode = m, true }),
	// priority schedules the query's factory ahead of lower-priority
	// transitions (default 0), the paper's "different query priorities".
	intOption(func(c *queryConfig, n int) { c.priority = n }, "priority"),
	// shed_limit bounds the query's private input basket: arrivals beyond
	// it evict the oldest unprocessed tuples (separate strategy only).
	intOption(func(c *queryConfig, n int) { c.shedAt = n }, "shed_limit"),
	// depth sizes the result channel (default 64).
	intOption(func(c *queryConfig, n int) { c.subDepth = n }, "depth", "subscription_depth"),
	// polling = true drops the subscription: results accumulate in
	// <name>_out until a one-time SELECT or another continuous query
	// consumes them, the paper's network of queries.
	enumOption("polling", "true or false", boolValues, func(c *queryConfig, on bool) {
		if on {
			c.subDepth = 0
		}
	}),
	// backpressure is what the subscription does when its consumer falls
	// behind (default block).
	enumOption("backpressure", "block or drop_oldest", map[string]Backpressure{
		"block":       BackpressureBlock,
		"drop_oldest": BackpressureDropOldest,
	}, func(c *queryConfig, p Backpressure) { c.policy = p }),
	// lateness is the out-of-order tolerance of a time-based window: the
	// watermark trails the maximum seen timestamp by it.
	durationOption("lateness", "a non-negative duration like '250ms'", 0,
		func(c *queryConfig, ns int64) { c.lateness = ns }),
	// timestamp slices a time-based window by an INT or TIMESTAMP stream
	// column instead of the arrival stamp; such windows advance on data
	// only.
	{
		keys: []string{"timestamp"},
		parse: func(c *queryConfig, s sql.OptionSpec) error {
			if s.Val == "" {
				return fmt.Errorf("%w: timestamp needs a column name", ErrInvalidOption)
			}
			c.tsCol = s.Val
			return nil
		},
	},
	// durable = false leaves the query's operator state out of checkpoints:
	// DDL replay re-creates it with empty state and no delivery
	// suppression.
	enumOption("durable", "true or false", boolValues, func(c *queryConfig, on bool) { c.durable = on }),
	// checkpoint_interval tightens the engine's background checkpoint
	// cadence while the query is registered.
	durationOption("checkpoint_interval", "a positive duration like '5s'", 1,
		func(c *queryConfig, ns int64) { c.ckptEvery = ns }),
}

var boolValues = map[string]bool{"true": true, "false": false}

// intOption is an integer-valued key.
func intOption(set func(*queryConfig, int), keys ...string) withOption {
	return withOption{
		keys: keys,
		parse: func(c *queryConfig, s sql.OptionSpec) error {
			n, err := strconv.Atoi(s.Val)
			if err != nil {
				return fmt.Errorf("%w: %s = %q wants an integer", ErrInvalidOption, s.Key, s.Val)
			}
			set(c, n)
			return nil
		},
	}
}

// enumOption is a key with a closed set of (case-insensitive) values.
func enumOption[T any](key, want string, vals map[string]T, set func(*queryConfig, T)) withOption {
	return withOption{
		keys: []string{key},
		parse: func(c *queryConfig, s sql.OptionSpec) error {
			v, ok := vals[strings.ToLower(s.Val)]
			if !ok {
				return fmt.Errorf("%w: %s = %q (want %s)", ErrInvalidOption, key, s.Val, want)
			}
			set(c, v)
			return nil
		},
	}
}

// durationOption is a key taking a duration of at least lo nanoseconds.
func durationOption(key, want string, lo int64, set func(*queryConfig, int64)) withOption {
	return withOption{
		keys: []string{key},
		parse: func(c *queryConfig, s sql.OptionSpec) error {
			ns, err := parseDurationNS(s.Val)
			if err != nil || ns < lo {
				return fmt.Errorf("%w: %s = %q (want %s or nanoseconds)", ErrInvalidOption, key, s.Val, want)
			}
			set(c, ns)
			return nil
		},
	}
}

// configFromSpecs applies a DDL WITH (...) list, in order, to the default
// configuration.
func configFromSpecs(specs []sql.OptionSpec) (queryConfig, error) {
	cfg := queryConfig{strategy: SeparateBaskets, minTuples: 1, subDepth: 64, durable: true}
	for _, s := range specs {
		k := slices.IndexFunc(withOptions, func(w withOption) bool {
			return slices.Contains(w.keys, strings.ToLower(s.Key))
		})
		if k < 0 {
			return cfg, fmt.Errorf("%w: unknown option %q", ErrInvalidOption, s.Key)
		}
		if err := withOptions[k].parse(&cfg, s); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// parseDurationNS reads a WITH duration value: a bare integer is
// nanoseconds, anything else goes through time.ParseDuration (quoted in
// DDL, e.g. lateness = '250ms').
func parseDurationNS(val string) (int64, error) {
	if ns, err := strconv.ParseInt(val, 10, 64); err == nil {
		return ns, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	return d.Nanoseconds(), nil
}

// CheckpointInfo reports a query's durability posture (see
// Query.Checkpoint).
type CheckpointInfo struct {
	// Durable reports whether checkpoints capture this query's state.
	Durable bool
	// LastCheckpoint is when the engine last checkpointed (zero before
	// the first checkpoint or on a non-durable engine).
	LastCheckpoint time.Time
	// ReplayLag is the number of WAL records a crash right now would
	// replay (engine-wide, 0 when not durable).
	ReplayLag int64
	// Delivered is the cumulative number of result tuples the query's
	// subscription has delivered.
	Delivered int64
}

// Checkpoint returns the query's durability posture: whether its state
// is checkpointed, when the last checkpoint ran, the replay lag a crash
// would incur, and the delivery frontier.
func (q *Query) Checkpoint() CheckpointInfo {
	snap := q.engine.dur.snapshot()
	info := CheckpointInfo{
		Durable:        q.durable,
		LastCheckpoint: snap.ckptTime,
		ReplayLag:      snap.replayLag(),
	}
	if q.sub != nil {
		info.Delivered = q.sub.em.Delivered()
	}
	return info
}

// windowSpec resolves the window clause plus the timestamp/lateness
// options against the buffered schema.
func windowSpec(bufSchema *catalog.Schema, w *sql.WindowClause, cfg queryConfig) (window.Spec, error) {
	spec := window.Spec{
		Kind:     w.Kind,
		Size:     w.Size,
		Slide:    w.Slide,
		TSIndex:  bufSchema.Index(catalog.TimestampColumn),
		Lateness: cfg.lateness,
	}
	if cfg.tsCol != "" {
		idx := bufSchema.Index(cfg.tsCol)
		if idx < 0 {
			return window.Spec{}, fmt.Errorf("%w: timestamp column %q not in schema %s", ErrInvalidOption, cfg.tsCol, bufSchema)
		}
		switch bufSchema.Columns[idx].Type {
		case vector.Int64, vector.Timestamp:
		default:
			return window.Spec{}, fmt.Errorf("%w: timestamp column %q must be INT or TIMESTAMP, is %s",
				ErrInvalidOption, cfg.tsCol, bufSchema.Columns[idx].Type)
		}
		spec.TSIndex = idx
		spec.EventTime = !strings.EqualFold(cfg.tsCol, catalog.TimestampColumn)
	}
	return spec, nil
}

// buildWindowRunner assembles the window layer for a windowed query.
// bufSchema is the input basket's full schema (including ts); sourceName
// is the scan source the window content overrides during re-evaluation.
func (e *Engine) buildWindowRunner(p plan.Node, bufSchema *catalog.Schema, sourceName string, w *sql.WindowClause, cfg queryConfig) (*window.Runner, error) {
	spec, err := windowSpec(bufSchema, w, cfg)
	if err != nil {
		return nil, err
	}
	mode := window.ReEvaluate
	paneEval, recognized := window.RecognizeIncremental(p)
	if cfg.forceMode {
		mode = cfg.windowMode
		if mode == window.Incremental && !recognized {
			return nil, fmt.Errorf("datacell: plan shape does not support incremental windows")
		}
	} else if recognized && spec.Size%spec.Slide == 0 {
		mode = window.Incremental
	}
	if mode == window.Incremental {
		return window.NewRunner(spec, mode, nil, paneEval, bufSchema)
	}
	reEval := &window.PlanEvaluator{Plan: p, Catalog: e.cat, Source: sourceName}
	return window.NewRunner(spec, mode, reEval, nil, bufSchema)
}

// buildPartialWindowRunner assembles the window layer for one lane of a
// partitioned windowed query whose grouping is not partition-aligned: p
// is the bare partial-aggregation plan, emitting per-window mergeable
// partials.
func (e *Engine) buildPartialWindowRunner(p plan.Node, bufSchema *catalog.Schema, sourceName string, w *sql.WindowClause, cfg queryConfig) (*window.Runner, error) {
	spec, err := windowSpec(bufSchema, w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.forceMode && cfg.windowMode == window.ReEvaluate {
		reEval := &window.PlanEvaluator{Plan: p, Catalog: e.cat, Source: sourceName}
		return window.NewRunner(spec, window.ReEvaluate, reEval, nil, bufSchema)
	}
	paneEval, ok := window.RecognizePartial(p)
	if !ok {
		// AnalyzeWindowed only accepts recognizable shapes, so this is a
		// bug guard, not a user-reachable path.
		return nil, fmt.Errorf("datacell: partial plan not recognizable for incremental windows")
	}
	return window.NewRunner(spec, window.Incremental, nil, paneEval, bufSchema)
}

// unregisterContinuous removes a continuous query (DROP CONTINUOUS
// QUERY). The query's undo stack runs in reverse: every transition
// detaches from the scheduler, shared readers release their watermarks,
// the query-owned places are freed, and the subscription closes.
func (e *Engine) unregisterContinuous(name string) error {
	q, err := e.Query(name)
	if err != nil {
		return err
	}
	e.mu.Lock()
	err = e.checkUnread(q.out.Name())
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if !q.live.CompareAndSwap(true, false) {
		return fmt.Errorf("%w: %q", ErrUnknownQuery, name) // lost to a concurrent drop
	}
	q.unwind()
	return nil
}

// basketExprStreams locates the basket expressions in the query and
// returns the streams they read: one for an ordinary continuous query,
// two for a stream-stream join.
func basketExprStreams(sel *sql.SelectStmt) ([]string, error) {
	var found []string
	var walk func(s *sql.SelectStmt)
	walk = func(s *sql.SelectStmt) {
		for _, f := range s.From {
			if f.Basket && f.Sub != nil && len(f.Sub.From) == 1 {
				found = append(found, f.Sub.From[0].Table)
			} else if f.Sub != nil {
				walk(f.Sub)
			}
		}
	}
	walk(sel)
	if len(found) < 1 || len(found) > 2 {
		return nil, fmt.Errorf("datacell: continuous queries need one basket expression (two for a stream-stream join), found %d", len(found))
	}
	return found, nil
}

// laneTimer brings time to a windowed query's lanes as wake-ups. For
// arrival-time windows it is one runtime timer, armed at the earliest
// close (window end plus lateness, on the engine clock) any lane holds
// open, that wakes every lane when it fires; the lanes it closes for
// report their moved closes, which re-arms it. Lanes that share a
// watermark group are also woken by each other (Runner.WakeOnEnds
// calls wake). No open window, no timer.
type laneTimer struct {
	e *Engine

	mu    sync.Mutex
	lanes []*factory.Factory  // nil before start and after stop: nothing to arm for
	hs    []*scheduler.Handle // the lanes' handles, which wake wakes
	t     *time.Timer         // armed for at; nil while no lane holds a window open
	at    int64
}

// start hands the timer the scheduled lanes, wakes them once — a group
// wake raised before the handles were known reached nobody — and arms
// it for what they already hold open; stop disarms it for good (a drop,
// or Stop).
func (w *laneTimer) start(lanes []*factory.Factory, hs []*scheduler.Handle) {
	w.mu.Lock()
	w.lanes, w.hs = lanes, hs
	w.mu.Unlock()
	w.wake(-1)
	w.rearm()
}

func (w *laneTimer) stop() {
	w.mu.Lock()
	w.lanes = nil
	w.mu.Unlock()
	w.rearm()
}

// wake wakes every lane but from: the watermark group's call, made by
// the lane whose raise crossed a window end (the timer's is from -1).
func (w *laneTimer) wake(from int) {
	w.mu.Lock()
	hs := w.hs
	w.mu.Unlock()
	for i, h := range hs {
		if i != from {
			h.Wake()
		}
	}
}

// rearm arms the timer at the earliest lane close, or disarms it when
// there is none; a lane calls it when its close moves. A timer that
// fired is not re-armed for the same close: the lanes it woke re-arm it
// as their closes move.
func (w *laneTimer) rearm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	next := int64(math.MaxInt64)
	for _, f := range w.lanes {
		if c, ok := f.NextClose(); ok {
			next = min(next, c)
		}
	}
	if w.t != nil && next == w.at {
		return
	}
	if w.t != nil {
		w.t.Stop()
		w.t = nil
	}
	if next != math.MaxInt64 {
		w.arm(next)
	}
}

// arm starts the timer for the engine-clock reading at; the caller holds
// mu. The runtime timer counts monotonic time, so a timer can fire while
// the engine clock still reads before at — the wall clock stepped back.
// It then re-arms for what is left instead of waking the lanes, for
// nothing would close. A clock that has not moved since the arming (a
// manual one) wakes them as if it had.
func (w *laneTimer) arm(at int64) {
	armed := w.e.clock.Now()
	var t *time.Timer
	t = time.AfterFunc(time.Duration(at-armed), func() {
		w.mu.Lock()
		now := w.e.clock.Now()
		early := w.t == t && now < at && now != armed
		if early {
			armed = now
			t.Reset(time.Duration(at - now))
		}
		w.mu.Unlock()
		if !early {
			w.wake(-1)
		}
	})
	w.t, w.at = t, at
}
