// Topology: the one description of a continuous query's Petri net.
//
// The paper's model is places (baskets) and transitions (factories). A
// registration is therefore two steps: planTopology decides — without
// touching engine state — which places and transitions the query needs,
// and install creates them, pushing the inverse of every side effect on
// the query's undo stack. A failed install and DROP CONTINUOUS QUERY run
// that same stack in reverse; checkpoint capture/restore and EXPLAIN
// ANALYZE walk the installed places and transitions. docs/ARCHITECTURE.md
// tabulates the shapes.
package datacell

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/scheduler"
	"repro/internal/sql"
	"repro/internal/vector"
	"repro/internal/window"
)

// inputKind says which place a lane reads one of its scan sources from.
type inputKind uint8

const (
	// inReplica: a private copy of the stream (<q>_in), fed by the ingest
	// fan-out and consumed exclusively — the separate-baskets strategy.
	inReplica inputKind = iota
	// inPrimary: the stream's primary basket, read by watermark.
	inPrimary
	// inShard: shard basket #lane of a partitioned stream, read by
	// watermark (shard baskets are shared by the stream's sharded queries).
	inShard
	// inChained: another query's output basket (a network of queries).
	inChained
)

// inputSpec binds one scan source of the lane plan to a place.
type inputSpec struct {
	kind   inputKind
	mode   factory.InputMode
	bind   string         // scan source name the place satisfies
	stream *stream        // nil for inChained
	basket *basket.Basket // inChained only
}

// mergeKind says whether a partition.Merge stands between the lanes and
// <q>_out, and whether it is window-aligned. Without a merge the single
// lane appends straight to <q>_out; with one every lane appends to its
// own sink basket <q>_out#i.
type mergeKind uint8

const (
	mergeNone     mergeKind = iota
	mergePlain              // concat, or mergePlan over the union, per firing
	mergeWindowed           // lanes tag partials with their window end; merged per window
)

// topology is the planner's verdict on one CREATE CONTINUOUS QUERY:
// either a routed attachment to the stream's shared scan, or `lanes`
// identical factory pipelines (1 flat, N on a partitioned stream) with an
// optional merge in front of <q>_out.
type topology struct {
	name, text string
	cfg        queryConfig // cfg.strategy is the effective strategy
	streams    []string    // source names the basket expressions read
	plan       plan.Node   // whole-query plan: output schema, EXPLAIN shape

	routed *routedInfo // non-nil: shared-scan member, no lanes

	lanes    int
	lanePlan plan.Node   // what each lane's factory runs
	inputs   []inputSpec // per lane; inShard resolves to shard #lane
	// window and join build one lane's operator state (nil when the
	// query has none). Lanes of one install share a watermark group.
	window func() (*window.Runner, error)
	join   func() (*exec.StreamJoin, error)

	merge       mergeKind
	mergeSource string    // scan-override key the merge plan reads
	mergePlan   plan.Node // nil = concatenation
}

// planTopology is the single registration planner. Decision order:
// stream-stream join → routed eligibility → shard decomposition
// (partition.Analyze*) → flat input arrangement per strategy. It reads
// engine state but changes none.
func (e *Engine) planTopology(name, text string, sel *sql.SelectStmt, cfg queryConfig) (*topology, error) {
	if !sel.IsContinuous() {
		return nil, fmt.Errorf("%w: %q; run it with Exec", ErrNotContinuous, name)
	}
	streamNames, err := basketExprStreams(sel)
	if err != nil {
		return nil, err
	}
	t := &topology{name: name, text: text, cfg: cfg, streams: streamNames, lanes: 1}
	if len(streamNames) == 2 {
		err = e.planStreamStream(t, sel)
	} else {
		err = e.planSingleStream(t, sel)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// planSingleStream plans a query with one basket expression, over a
// stream or over another query's output basket.
func (e *Engine) planSingleStream(t *topology, sel *sql.SelectStmt) error {
	cfg, streamName := &t.cfg, t.streams[0]
	s, _ := e.lookupStream(streamName) // nil: not a stream, maybe a chained basket
	in := inputSpec{kind: inReplica, mode: factory.Owned, bind: streamName, stream: s}
	if s == nil {
		// The paper's network of queries: "continuous queries … take their
		// input from other queries". The query is the upstream basket's
		// exclusive consumer unless it asks to share it.
		entry, err := e.cat.Lookup(streamName)
		if err != nil {
			return fmt.Errorf("%w: basket expression reads %q, which is neither a stream nor a basket", ErrUnknownStream, streamName)
		}
		b, ok := entry.Source.(*basket.Basket)
		if !ok || entry.Kind != catalog.KindBasket {
			return fmt.Errorf("%w: basket expression over %q, which is a %s", ErrUnknownStream, streamName, entry.Kind)
		}
		in.kind, in.basket = inChained, b
	}

	p, err := plan.Build(sel, e.cat)
	if err != nil {
		return e.planError(err)
	}
	t.plan, t.lanePlan = p, p
	if cfg.lateness != 0 || cfg.tsCol != "" {
		if sel.Window == nil || sel.Window.Kind != sql.WindowRange {
			return fmt.Errorf("%w: lateness/timestamp apply to WINDOW RANGE queries only", ErrInvalidOption)
		}
		if cfg.lateness < 0 {
			return fmt.Errorf("%w: negative lateness", ErrInvalidOption)
		}
	}
	// A single two-way equi-join with a table gets persistent enrichment
	// state instead of a batch join per firing.
	t.join = e.streamTableJoinBuilder(p, sel, streamName, s == nil)

	// Routed: filter/project pipelines over an unpartitioned stream join
	// the stream's shared scan. Everything else a routed request names
	// (windows, joins, chained baskets, shedding, batching, filtered
	// consuming scans, partitioned streams — whose ingest feeds the shard
	// baskets, so a scan on the primary would duplicate every tuple)
	// degrades to the shared-basket arrangement.
	if cfg.strategy == RoutedScan {
		if info, ok := routedPlanInfo(p, streamName); ok && s != nil && s.router == nil &&
			t.join == nil && sel.Window == nil && cfg.shedAt == 0 && cfg.minTuples == 1 {
			// The non-consuming clone stands in for the plan (same schema), so
			// a member does not retain both copies.
			in.kind, in.mode = inPrimary, factory.Shared
			t.routed, t.lanes, t.plan, t.lanePlan, t.inputs = &info, 0, info.node, info.node, []inputSpec{in}
			return nil
		}
		cfg.strategy = SharedBaskets
	}

	// Sharded: on a partitioned stream a decomposable query runs one lane
	// per shard. A private shedding bound keeps the query flat — shard
	// baskets are shared between the stream's sharded queries.
	if s != nil && s.router != nil && cfg.shedAt == 0 && e.planSharded(t, sel, s) {
		return nil
	}

	if cfg.strategy == SharedBaskets {
		in.mode = factory.Shared
		if s != nil {
			in.kind = inPrimary
		}
	}
	t.inputs = []inputSpec{in}
	if sel.Window != nil {
		buf := in.basket // the window buffers the input place's full (ts-bearing) schema
		if s != nil {
			buf = s.primary
		}
		bufSchema, w := buf.Schema(), sel.Window // not sel: the builder outlives planning
		t.window = func() (*window.Runner, error) {
			return e.buildWindowRunner(p, bufSchema, streamName, w, t.cfg)
		}
	}
	return nil
}

// planSharded tries the shard decomposition of a single-stream query and
// reports whether it applies. Time windows shard when their panes merge
// (aligned groupings concatenate, others re-aggregate per window); count
// windows are defined over the whole stream's arrival order and stay
// flat. A stream-table join shards by broadcasting the table: each stream
// tuple lives in exactly one shard, so the emissions concatenate exactly.
func (e *Engine) planSharded(t *topology, sel *sql.SelectStmt, s *stream) bool {
	p, streamName, by := t.plan, t.streams[0], s.router.Spec().By
	switch {
	case sel.Window != nil:
		wan := partition.AnalyzeWindowed(p, streamName, by, t.name+"#partials", sel.Window)
		if !wan.OK {
			return false
		}
		t.lanePlan, t.merge, t.mergeSource, t.mergePlan = wan.ShardPlan, mergePlain, wan.MergeSource, wan.MergePlan
		if !wan.Aligned {
			t.merge = mergeWindowed
		}
		// Aligned lanes run the whole plan, the others emit per-window
		// mergeable partials. One watermark group: a lagging or empty shard
		// still closes its windows once the stream as a whole has moved on.
		build := e.buildPartialWindowRunner
		if wan.Aligned {
			build = e.buildWindowRunner
		}
		group, bufSchema, w := window.NewWatermarkGroup(), s.primary.Schema(), sel.Window
		t.window = func() (*window.Runner, error) {
			r, err := build(t.lanePlan, bufSchema, streamName, w, t.cfg)
			if err == nil {
				r.ShareWatermark(group)
			}
			return r, err
		}
	case t.join != nil:
		if an := partition.AnalyzeJoin(p, e.partitionLookup); !an.OK || !an.Broadcast {
			return false
		}
		t.merge = mergePlain
	default:
		an := partition.Analyze(p, streamName, by, t.name+"#partials")
		if !an.OK {
			return false
		}
		t.lanePlan, t.merge, t.mergeSource, t.mergePlan = an.ShardPlan, mergePlain, an.MergeSource, an.MergePlan
	}
	t.lanes = len(s.shards)
	t.inputs = []inputSpec{{kind: inShard, mode: factory.Shared, bind: streamName, stream: s}}
	return true
}

// planStreamStream plans a query whose two basket expressions join two
// streams: symmetric hash state in one lane, or in one lane per shard
// when both streams are co-partitioned on the join key.
func (e *Engine) planStreamStream(t *topology, sel *sql.SelectStmt) error {
	cfg := &t.cfg
	a, b := t.streams[0], t.streams[1]
	if strings.EqualFold(a, b) {
		return fmt.Errorf("%w: %q; a stream-stream join needs two distinct streams", ErrSelfJoin, a)
	}
	if sel.Window != nil {
		return fmt.Errorf("%w: WINDOW over a stream-stream join; bound the join with JOIN ... WITHIN instead", ErrUnsupportedJoin)
	}
	for _, name := range t.streams {
		if _, err := e.lookupStream(name); err != nil {
			return err
		}
	}
	// timestamp = col is resolved at plan time, so the WITHIN band, state
	// expiry, and column pruning all agree on the event-time columns.
	p, err := plan.BuildWithEventTime(sel, e.cat, cfg.tsCol)
	if err != nil {
		return e.planError(err)
	}
	shape := partition.InspectJoin(p)
	if shape.Joins != 1 || shape.LeftStream == nil || shape.RightStream == nil {
		return fmt.Errorf("%w: stream-stream queries support exactly one two-way JOIN", ErrUnsupportedJoin)
	}
	if (cfg.lateness != 0 || cfg.tsCol != "") && shape.Join.Within == 0 {
		return fmt.Errorf("%w: lateness/timestamp on a join need a JOIN ... WITHIN bound", ErrInvalidOption)
	}
	if cfg.lateness < 0 {
		return fmt.Errorf("%w: negative lateness", ErrInvalidOption)
	}
	lateness := cfg.lateness
	buildState := func() (*exec.StreamJoin, error) {
		sj, err := exec.NewSymmetricJoin(shape.Join, lateness)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupportedJoin, err)
		}
		return sj, nil
	}
	// Validate the join shape and options once, at plan time.
	if _, err := buildState(); err != nil {
		return err
	}
	lSrc, rSrc := shape.LeftStream.Source, shape.RightStream.Source
	sL, errL := e.lookupStream(lSrc)
	sR, errR := e.lookupStream(rSrc)
	if errL != nil || errR != nil {
		return fmt.Errorf("%w: join scans %q and %q must both be streams", ErrUnknownStream, lSrc, rSrc)
	}
	t.plan, t.lanePlan, t.streams, t.join = p, p, []string{lSrc, rSrc}, buildState
	if cfg.strategy == RoutedScan {
		cfg.strategy = SharedBaskets // joins are not routable
	}
	in := inputSpec{kind: inReplica, mode: factory.Owned}
	if cfg.strategy == SharedBaskets {
		in = inputSpec{kind: inPrimary, mode: factory.Shared}
	}
	// Co-partitioned: both streams hash-sharded on the join key with one
	// shard count — lane i joins lSrc#i with rSrc#i and the emissions
	// concatenate. All lanes share one clock per side, so expiry tracks
	// the whole stream's progress rather than one shard's subsequence.
	if cfg.shedAt == 0 {
		if an := partition.AnalyzeJoin(p, e.partitionLookup); an.OK && !an.Broadcast {
			lClock, rClock := window.NewWatermarkGroup(), window.NewWatermarkGroup()
			t.join = func() (*exec.StreamJoin, error) {
				sj, err := buildState()
				if err == nil {
					sj.ShareClocks(lClock, rClock)
				}
				return sj, err
			}
			t.lanes, t.merge = an.Shards, mergePlain
			in = inputSpec{kind: inShard, mode: factory.Shared}
		}
	}
	inL, inR := in, in
	inL.bind, inL.stream = lSrc, sL
	inR.bind, inR.stream = rSrc, sR
	t.inputs = []inputSpec{inL, inR}
	return nil
}

// install creates the topology's places and transitions. Every side
// effect pushes its inverse on the query's undo stack before the next one
// runs, so a failure at any step unwinds exactly what was done; the same
// stack, kept on the installed query, is DROP CONTINUOUS QUERY.
func (e *Engine) install(t *topology) (*Query, error) {
	q := &Query{Name: t.name, SQL: t.text, Strategy: t.cfg.strategy, topo: t, engine: e}
	if err := q.build(); err != nil {
		q.unwind()
		return nil, err
	}
	q.live.Store(true)
	return q, nil
}

func (q *Query) onUndo(fn func()) { q.undo = append(q.undo, fn) }

// unwind runs the undo stack in reverse. The caller owns the query: it
// either never became live or lost its live flag to this caller.
func (q *Query) unwind() {
	for i := len(q.undo) - 1; i >= 0; i-- {
		q.undo[i]()
	}
	q.undo = nil
}

// build performs the install steps in dataflow-independent safety order:
// claim the name (everything after is keyed by it: catalog entries,
// shared-reader ids, transition names), create the places, create the
// transitions, and only then schedule them.
func (q *Query) build() error {
	e, t, cfg, name := q.engine, q.topo, q.topo.cfg, q.Name
	key := strings.ToLower(name)

	// The claim is the publication: the check and the insert share one
	// e.mu hold, so of N concurrent CREATEs of one name exactly one
	// proceeds. Readers skip the query until live is set.
	e.mu.Lock()
	_, dup := e.queries[key]
	if !dup {
		e.queries[key] = q
	}
	e.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: %q", ErrDuplicateQuery, name)
	}
	q.onUndo(func() {
		e.mu.Lock()
		delete(e.queries, key)
		e.mu.Unlock()
	})

	q.out = basket.New(name+"_out", t.plan.Schema(), e.clock)
	if err := q.expose(q.out, -1); err != nil {
		return err
	}

	if t.routed != nil {
		s := t.inputs[0].stream
		q.routed = e.attachRouted(s, name, *t.routed, q.out, cfg.priority)
		q.inputs = []*basket.Basket{s.primary}
		q.onUndo(func() { e.dropRouted(q) })
	}

	if t.window != nil {
		q.timer = &laneTimer{e: e}
	}
	var latency *obs.Histogram // nil: a single lane keeps the factory's own
	if t.lanes > 1 {
		latency = obs.NewHistogram() // shared, so it is the whole query's distribution
	}
	for lane := 0; lane < t.lanes; lane++ {
		if err := q.addLane(lane, latency); err != nil {
			return err
		}
	}
	// Shard routing starts only once the lanes' readers are registered,
	// so shard baskets never accumulate tuples nobody will consume.
	for _, in := range t.inputs {
		if s := in.stream; in.kind == inShard {
			e.mu.Lock()
			s.shardReaders++
			e.mu.Unlock()
			q.onUndo(func() {
				e.mu.Lock()
				s.shardReaders--
				e.mu.Unlock()
			})
		}
	}

	if t.merge != mergeNone {
		var frontiers []func() int64
		if t.merge == mergeWindowed {
			for _, f := range q.facts {
				frontiers = append(frontiers, f.WindowFrontier)
			}
		}
		q.merge = partition.NewMerge(name+"_merge", t.mergeSource, q.sinks, q.out, t.mergePlan, e.cat, frontiers)
	}

	if cfg.subDepth > 0 {
		q.sub = newSubscription(e, name+"_emit", q.out, cfg.subDepth, cfg.policy)
		q.onUndo(func() { q.sub.closeWith(ErrSubscriptionClosed) })
	}

	// Durability wiring: the delivery-frontier hook for exactly-once
	// resumption, plus any checkpoint-cadence tightening.
	q.durable = cfg.durable && e.dur != nil
	if q.durable {
		if q.sub != nil {
			q.sub.em.OnDeliver(func(n int64) { e.dur.logFrontier(key, n) })
		}
		e.dur.tighten(time.Duration(cfg.ckptEvery))
	}
	// Observability arming must precede scheduling: hooks are not
	// synchronized with firings once a transition is registered.
	e.armQueryObservers(q)
	lanes := make([]*scheduler.Handle, len(q.facts))
	for i, f := range q.facts {
		lanes[i] = q.schedule(f, stageFire, factoryDelta(f), f.InputBaskets())
	}
	if q.merge != nil {
		q.schedule(q.merge, stageMerge, counterDelta(q.merge.Merged), q.sinks)
	}
	if q.sub != nil {
		// Every append to <q>_out delivers from here on; the undo pushed
		// with the subscription detaches the listener.
		q.sub.listen()
		if q.routed != nil {
			// From here on the shared scan hands this member's rows to the
			// subscription; <q>_out is the overflow path.
			q.routed.member.emit.Store(q.sub.em)
		}
	}
	// Last, so time wakes only fully scheduled lanes, and first to go on
	// a drop.
	if q.timer != nil {
		q.timer.start(q.facts, lanes)
		q.onUndo(q.timer.stop)
	}
	return nil
}

// expose registers a query-owned place in the catalog (SHOW BASKETS,
// one-time SELECTs over <q>_out); lane is the index of a lane sink, -1
// for <q>_out itself.
func (q *Query) expose(b *basket.Basket, lane int) error {
	cat, pname := q.engine.cat, b.Name()
	var err error
	if lane < 0 {
		err = cat.Register(pname, catalog.KindBasket, b)
	} else {
		err = cat.RegisterShard(pname, catalog.KindBasket, b, q.Name+"_out", lane)
	}
	if err != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateName, pname)
	}
	q.places = append(q.places, b)
	q.onUndo(func() { _ = cat.Drop(pname) })
	return nil
}

// addLane builds one pipeline: its sink place (when a merge follows),
// its input places, its operator state, and the factory transition.
func (q *Query) addLane(lane int, latency *obs.Histogram) error {
	e, t, cfg := q.engine, q.topo, q.topo.cfg
	laneName, sink := q.Name, q.out
	if t.merge != mergeNone {
		laneName = fmt.Sprintf("%s#%d", q.Name, lane)
		schema := t.lanePlan.Schema()
		if t.merge == mergeWindowed {
			// Partials carry the window end so the merge can align pane
			// grids across shards.
			schema = schema.Clone()
			schema.Columns = append(schema.Columns, catalog.Column{Name: partition.WindowEndColumn, Type: vector.Timestamp})
		}
		sink = basket.New(fmt.Sprintf("%s_out#%d", q.Name, lane), schema, e.clock)
		if err := q.expose(sink, lane); err != nil {
			return err
		}
		q.sinks = append(q.sinks, sink)
	}
	ins := make([]factory.Input, len(t.inputs))
	for i, spec := range t.inputs {
		ins[i] = q.attachInput(spec, lane, i)
	}
	fopts := []factory.Option{
		factory.WithMinTuples(cfg.minTuples),
		factory.WithClock(e.clock),
		factory.WithLatency(latency),
	}
	if t.window != nil {
		runner, err := t.window()
		if err != nil {
			return err
		}
		runner.WakeOnEnds(lane, q.timer.wake)
		fopts = append(fopts, factory.WithWindow(runner), factory.WithCloseHook(q.timer.rearm))
		if t.merge == mergeWindowed {
			// Tagged lanes also notify their sink, whose listener is the
			// merge, whenever their window frontier moves.
			fopts = append(fopts, factory.WithWindowEndTag())
		}
	}
	if t.join != nil {
		sj, err := t.join()
		if err != nil {
			return err
		}
		fopts = append(fopts, factory.WithStreamJoin(sj))
	}
	f, err := factory.New(laneName, t.lanePlan, e.cat, ins, []*basket.Basket{sink}, fopts...)
	if err != nil {
		return err
	}
	q.facts = append(q.facts, f)
	// Close releases shared-reader watermarks, so shared (or shard)
	// baskets compact tuples only this query was retaining.
	q.onUndo(f.Close)
	return nil
}

// attachInput resolves one input spec for a lane, creating and
// publishing the private replica when the spec asks for one.
func (q *Query) attachInput(spec inputSpec, lane, idx int) factory.Input {
	e, s := q.engine, spec.stream
	in := factory.Input{Mode: spec.mode, ReaderID: q.Name, Bind: spec.bind}
	switch spec.kind {
	case inPrimary:
		in.Basket = s.primary
	case inShard:
		in.Basket = s.shards[lane]
	case inChained:
		in.Basket = spec.basket
	case inReplica:
		rname := q.Name + "_in"
		if len(q.topo.inputs) > 1 {
			rname = fmt.Sprintf("%s_in%d", q.Name, idx)
		}
		r := basket.New(rname, s.schema, e.clock)
		if shedAt := q.topo.cfg.shedAt; shedAt > 0 {
			r.SetCapacity(shedAt)
		}
		// Copy-on-write: the ingest fan-out reads the slice outside e.mu,
		// so published slices are never extended or reordered in place.
		e.mu.Lock()
		s.replicas = append(slices.Clone(s.replicas), r)
		e.mu.Unlock()
		q.places = append(q.places, r)
		q.onUndo(func() {
			e.mu.Lock()
			s.replicas = slices.DeleteFunc(slices.Clone(s.replicas), func(x *basket.Basket) bool { return x == r })
			e.mu.Unlock()
		})
		in.Basket = r
	}
	q.inputs = append(q.inputs, in.Basket)
	return in
}

// schedule registers a transition — gate-wrapped on a durable engine, so
// checkpoints cut between firings — and subscribes its handle to the
// places whose appends make it fireable: an append wakes exactly the
// transitions it can enable instead of rescanning the net. The undo
// detaches the wake-ups first, so nothing re-enqueues the transition
// while Remove fences its last firing.
func (q *Query) schedule(t scheduler.Transition, stage string, delta func() (int64, int64), wakeOn []*basket.Basket) *scheduler.Handle {
	e := q.engine
	h := e.addTransition(t, q.topo.cfg.priority)
	e.observeStage(q.trace, h, stage, t.Name(), delta)
	ids := make([]uint64, len(wakeOn))
	for i, b := range wakeOn {
		ids[i] = b.Subscribe(h.Wake)
	}
	q.onUndo(func() {
		for i, b := range wakeOn {
			b.Unsubscribe(ids[i])
		}
		e.sched.Remove(t.Name())
	})
	return h
}
