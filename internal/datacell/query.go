package datacell

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/plan"
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
	routed  *routedQuery  // routed strategy only (shared-scan attachment)
	durable bool          // state captured by checkpoints (durable engines only)

	// trace is the bounded ring of the query's last-K pipeline firings
	// (SHOW TRACE). Nil when the engine's metrics are disabled.
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
		v, vok := f.WindowWatermark()
		if !vok {
			return 0, false
		}
		if v < wm {
			wm = v
		}
	}
	return wm, len(q.facts) > 0
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

// QueryOption configures RegisterContinuous.
type QueryOption func(*queryConfig)

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

// WithStrategy selects the basket arrangement (default SeparateBaskets,
// the paper's first strategy).
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithMinTuples sets the factory's firing threshold.
func WithMinTuples(n int) QueryOption {
	return func(c *queryConfig) { c.minTuples = n }
}

// WithWindowMode pins the window evaluation strategy; without it, windowed
// queries use incremental evaluation when the plan shape allows and fall
// back to re-evaluation otherwise.
func WithWindowMode(m window.Mode) QueryOption {
	return func(c *queryConfig) { c.windowMode = m; c.forceMode = true }
}

// WithSubscriptionDepth sizes the result channel (default 64).
func WithSubscriptionDepth(n int) QueryOption {
	return func(c *queryConfig) { c.subDepth = n }
}

// WithSQLPolling disables the subscription emitter: results accumulate in
// the <name>_out basket until a one-time SELECT (or another continuous
// query) consumes them — the paper's network-of-queries usage, where one
// query's output basket is another's input.
func WithSQLPolling() QueryOption {
	return func(c *queryConfig) { c.subDepth = 0 }
}

// WithPriority schedules this query's factory ahead of lower-priority
// transitions (default 0) — the paper's "different query priorities".
func WithPriority(p int) QueryOption {
	return func(c *queryConfig) { c.priority = p }
}

// WithLoadShedding bounds the query's private input basket to n tuples:
// arrivals beyond it evict the oldest unprocessed tuples (the paper's
// load-shedding requirement under overload). Only meaningful with the
// separate-baskets strategy, where the query owns its basket.
func WithLoadShedding(n int) QueryOption {
	return func(c *queryConfig) { c.shedAt = n }
}

// WithBackpressure selects what the subscription does when its consumer
// falls behind (default BackpressureBlock).
func WithBackpressure(p Backpressure) QueryOption {
	return func(c *queryConfig) { c.policy = p }
}

// WithLateness sets the out-of-order tolerance of a time-based window
// (lateness = ...): the watermark trails the maximum seen timestamp by
// d, so tuples up to d behind the stream's progress still land in their
// windows; anything older is counted late and dropped.
func WithLateness(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.lateness = d.Nanoseconds() }
}

// WithDurable includes or excludes the query's operator state from
// checkpoints (durable = true | false; default true). A non-durable
// query on a durable engine is re-created by DDL replay but restarts
// with empty state and no delivery suppression.
func WithDurable(durable bool) QueryOption {
	return func(c *queryConfig) { c.durable = durable }
}

// WithCheckpointInterval tightens the engine's background checkpoint
// cadence to at most d while this query is registered
// (checkpoint_interval = ...). Zero keeps the engine default.
func WithCheckpointInterval(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.ckptEvery = d.Nanoseconds() }
}

// WithEventTimeColumn slices a time-based window by the named stream
// column (timestamp = ...) instead of the implicit arrival stamp. The
// column must be INT or TIMESTAMP. Event-time windows advance on data
// only: the wall clock never closes them.
func WithEventTimeColumn(col string) QueryOption {
	return func(c *queryConfig) { c.tsCol = col }
}

// withOption is one key of CREATE CONTINUOUS QUERY ... WITH (...): its
// accepted spellings (the first is the journal spelling), how a value
// parses into a QueryOption, and how a config's setting is spelled back
// for the DDL journal ("" = nothing to spell). The table is the only place
// a WITH key is named, so every QueryOption has a WITH equivalent and the
// replayed DDL reconstructs the same topology — a requirement for
// checkpoint images to load.
type withOption struct {
	keys    []string
	parse   func(s sql.OptionSpec) (QueryOption, error)
	journal func(c queryConfig) string
}

var withOptions = []withOption{
	enumOption("strategy", "separate, shared, or routed", map[string]QueryOption{
		"separate": WithStrategy(SeparateBaskets),
		"shared":   WithStrategy(SharedBaskets),
		"routed":   WithStrategy(RoutedScan),
	}, func(c queryConfig) string { return c.strategy.String() }),
	intOption(WithMinTuples, func(c queryConfig) string { return strconv.Itoa(c.minTuples) }, "min_tuples"),
	enumOption("window_mode", "incremental or reeval", map[string]QueryOption{
		"incremental": WithWindowMode(window.Incremental),
		"reeval":      WithWindowMode(window.ReEvaluate),
		"re_evaluate": WithWindowMode(window.ReEvaluate),
		"reevaluate":  WithWindowMode(window.ReEvaluate),
	}, func(c queryConfig) string {
		switch {
		case !c.forceMode:
			return ""
		case c.windowMode == window.Incremental:
			return "incremental"
		}
		return "reeval"
	}),
	intOption(WithPriority, func(c queryConfig) string { return strconv.Itoa(c.priority) }, "priority"),
	intOption(WithLoadShedding, func(c queryConfig) string { return strconv.Itoa(c.shedAt) }, "shed_limit"),
	// A polling query (depth <= 0) is journaled as polling = true instead.
	intOption(WithSubscriptionDepth, func(c queryConfig) string { return positive(int64(c.subDepth)) }, "depth", "subscription_depth"),
	enumOption("polling", "true or false", map[string]QueryOption{
		"true":  WithSQLPolling(),
		"false": func(*queryConfig) {},
	}, func(c queryConfig) string { return strconv.FormatBool(c.subDepth <= 0) }),
	enumOption("backpressure", "block or drop_oldest", map[string]QueryOption{
		"block":       WithBackpressure(BackpressureBlock),
		"drop_oldest": WithBackpressure(BackpressureDropOldest),
	}, func(c queryConfig) string { return c.policy.String() }),
	durationOption("lateness", "a non-negative duration like '250ms'", 0,
		func(ns int64) QueryOption { return func(c *queryConfig) { c.lateness = ns } },
		func(c queryConfig) string { return strconv.FormatInt(c.lateness, 10) }),
	{
		keys: []string{"timestamp"},
		parse: func(s sql.OptionSpec) (QueryOption, error) {
			if s.Val == "" {
				return nil, fmt.Errorf("%w: timestamp needs a column name", ErrInvalidOption)
			}
			return WithEventTimeColumn(s.Val), nil
		},
		journal: func(c queryConfig) string { return c.tsCol },
	},
	enumOption("durable", "true or false", map[string]QueryOption{
		"true":  WithDurable(true),
		"false": WithDurable(false),
	}, func(c queryConfig) string { return strconv.FormatBool(c.durable) }),
	// A non-positive interval keeps the engine default and is not journaled.
	durationOption("checkpoint_interval", "a positive duration like '5s'", 1,
		func(ns int64) QueryOption { return WithCheckpointInterval(time.Duration(ns)) },
		func(c queryConfig) string { return positive(c.ckptEvery) }),
}

// intOption is an integer-valued key.
func intOption(set func(int) QueryOption, journal func(queryConfig) string, keys ...string) withOption {
	return withOption{
		keys: keys,
		parse: func(s sql.OptionSpec) (QueryOption, error) {
			n, err := strconv.Atoi(s.Val)
			if err != nil {
				return nil, fmt.Errorf("%w: %s = %q wants an integer", ErrInvalidOption, s.Key, s.Val)
			}
			return set(n), nil
		},
		journal: journal,
	}
}

// enumOption is a key with a closed set of (case-insensitive) values.
func enumOption(key, want string, vals map[string]QueryOption, journal func(queryConfig) string) withOption {
	return withOption{
		keys: []string{key},
		parse: func(s sql.OptionSpec) (QueryOption, error) {
			if o, ok := vals[strings.ToLower(s.Val)]; ok {
				return o, nil
			}
			return nil, fmt.Errorf("%w: %s = %q (want %s)", ErrInvalidOption, key, s.Val, want)
		},
		journal: journal,
	}
}

// durationOption is a key taking a duration of at least lo nanoseconds
// (journaled as integer nanoseconds).
func durationOption(key, want string, lo int64, set func(ns int64) QueryOption, journal func(queryConfig) string) withOption {
	return withOption{
		keys: []string{key},
		parse: func(s sql.OptionSpec) (QueryOption, error) {
			ns, err := parseDurationNS(s.Val)
			if err != nil || ns < lo {
				return nil, fmt.Errorf("%w: %s = %q (want %s or nanoseconds)", ErrInvalidOption, key, s.Val, want)
			}
			return set(ns), nil
		},
		journal: journal,
	}
}

// positive spells n for the journal, or nothing when n is not positive.
func positive(n int64) string {
	if n <= 0 {
		return ""
	}
	return strconv.FormatInt(n, 10)
}

// optionsFromSpecs translates a DDL WITH (...) list into QueryOptions —
// the bridge that lets CREATE CONTINUOUS QUERY express everything the Go
// option API can.
func optionsFromSpecs(specs []sql.OptionSpec) ([]QueryOption, error) {
	opts := make([]QueryOption, len(specs))
	for i, s := range specs {
		k := slices.IndexFunc(withOptions, func(w withOption) bool {
			return slices.Contains(w.keys, strings.ToLower(s.Key))
		})
		if k < 0 {
			return nil, fmt.Errorf("%w: unknown option %q", ErrInvalidOption, s.Key)
		}
		var err error
		if opts[i], err = withOptions[k].parse(s); err != nil {
			return nil, err
		}
	}
	return opts, nil
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

// RegisterContinuous compiles and installs a continuous query — the Go
// equivalent of CREATE CONTINUOUS QUERY (both run the same registration
// path). The query must contain exactly one basket expression (the paper's
// continuous marker); the referenced basket must be a stream created with
// CreateStream. The query's results land in a basket named <name>_out and
// on the subscription.
func (e *Engine) RegisterContinuous(name, text string, opts ...QueryOption) (*Query, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	cfg := newQueryConfig(opts)
	q, err := e.registerParsed(name, text, sel, cfg)
	if err != nil || e.dur == nil {
		return q, err
	}
	return q, e.dur.logStmt(context.Background(), continuousDDL(name, text, cfg), true)
}

func defaultQueryConfig() queryConfig {
	return queryConfig{strategy: SeparateBaskets, minTuples: 1, subDepth: 64, durable: true}
}

func newQueryConfig(opts []QueryOption) queryConfig {
	cfg := defaultQueryConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// continuousDDL synthesizes the journal spelling of a Go-registered
// continuous query: every setting that differs from the default, in
// options-table order.
func continuousDDL(name, text string, cfg queryConfig) string {
	def := defaultQueryConfig()
	var opts []string
	for _, w := range withOptions {
		if v := w.journal(cfg); v != "" && v != w.journal(def) {
			opts = append(opts, w.keys[0]+" = "+v)
		}
	}
	s := "CREATE CONTINUOUS QUERY " + name
	if len(opts) > 0 {
		s += " WITH (" + strings.Join(opts, ", ") + ")"
	}
	return s + " AS " + text
}

// registerParsed is the single registration path behind both
// RegisterContinuous and CREATE CONTINUOUS QUERY: plan the topology,
// install it.
func (e *Engine) registerParsed(name, text string, sel *sql.SelectStmt, cfg queryConfig) (*Query, error) {
	if err := e.guard(nil); err != nil {
		return nil, err
	}
	t, err := e.planTopology(name, text, sel, cfg)
	if err != nil {
		return nil, err
	}
	return e.install(t)
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

// UnregisterContinuous removes a continuous query — the Go equivalent of
// DROP CONTINUOUS QUERY. The query's undo stack runs in reverse: every
// transition detaches from the scheduler, shared readers release their
// watermarks, the query-owned places are freed, and the subscription
// closes.
func (e *Engine) UnregisterContinuous(name string) error {
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	if err := e.unregisterContinuous(name); err != nil {
		return err
	}
	return e.dur.logStmt(context.Background(), "DROP CONTINUOUS QUERY "+name, true)
}

func (e *Engine) unregisterContinuous(name string) error {
	q, err := e.Query(name)
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
