package datacell

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adapters"
	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/route"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/vector"
)

// sharedScan is the shared routing layer of the routed-scan strategy:
// one scheduler transition per stream that consumes the primary basket
// exactly once per firing on behalf of every routed query registered on
// the stream. Each firing takes one chunk-view snapshot of the unseen
// suffix, advances the single shared reader frontier (so the basket
// compacts at O(one reader) instead of O(queries)), pushes the batch
// through the predicate index, and evaluates each matched plan group
// once — handing the group's result to each member's subscription, or,
// when the emitter declines it, appending it to the member's output
// basket. Queries whose predicates cannot match the batch cost nothing.
//
// Concurrency: regMu serializes membership changes (attach/detach and
// predicate-index writes); fireMu serializes firings and doubles as the
// drop fence — detach cycles it after unpublishing a member, so no
// in-flight firing can still reach a dropped query's output basket. The
// firing path itself reads membership through atomics only (the
// copy-on-write members slice and the index's snapshot pointer), so
// registration never blocks routing.
type sharedScan struct {
	eng     *Engine
	stream  string
	source  string // lower-cased exec.Context override key
	name    string // scheduler transition name + basket reader id
	primary *basket.Basket
	idx     *route.Index
	h       *scheduler.Handle
	subID   uint64

	dirty  atomic.Bool
	closed atomic.Bool

	// fireMu (lock level 46) is held for the whole firing; see above.
	fireMu sync.Mutex
	probe  route.Scratch // hit and candidate-row buffers, reused across firings (under fireMu)

	// regMu (lock level 44) guards groups/nextID and all writes to
	// memberCount and the members slices.
	regMu  sync.Mutex
	groups map[string]*scanGroup // by plan fingerprint

	nextID      uint64
	memberCount atomic.Int64
	consumed    atomic.Int64 // OID one past the newest consumed batch
	batches     atomic.Int64
	rows        atomic.Int64
	evaluated   atomic.Int64 // rows handed to member plans
}

// scanGroup is one shared subplan: every routed query whose compiled
// plan fingerprints identically shares one evaluation per firing.
type scanGroup struct {
	id          uint64
	fingerprint string
	node        plan.Node  // non-consuming clone of the shared plan
	pred        route.Pred // routing anchor, for EXPLAIN
	members     atomic.Pointer[[]*scanMember]
	evals       atomic.Int64
}

// scanMember is one routed query's attachment point: its output basket
// plus per-query counters so SHOW QUERIES / EXPLAIN ANALYZE / metrics
// stay per-query under sharing.
type scanMember struct {
	name    string
	out     *basket.Basket
	joinSeq bat.OID // deliver only batches starting at or after this OID
	// emit is the subscription's emitter once install has scheduled it
	// (nil for a polling query): the firing offers it the member's rows
	// and appends to out only what it declines.
	emit      atomic.Pointer[adapters.ChannelEmitter]
	firings   atomic.Int64
	tuplesIn  atomic.Int64
	tuplesOut atomic.Int64
	latency   *obs.Histogram
}

// routedQuery ties a Query to its shared-scan attachment.
type routedQuery struct {
	scan   *sharedScan
	group  *scanGroup
	member *scanMember
}

// routedImage is a routed query's checkpoint image. OIDs die with the
// process, so both frontiers are offsets from the primary basket's
// content start — the same convention basket reader marks use. The scan
// frontier is shared by the stream's routed queries; every member's
// image carries it and restores it to the same value.
type routedImage struct {
	Consumed int64 // scan frontier: rows of the captured content already routed
	Join     int64 // member admission: rows of the captured content it predates
}

// CaptureState snapshots the attachment. The engine holds its
// consistency gate while calling, so no firing is in flight.
func (r *routedQuery) CaptureState() routedImage {
	sc := r.scan
	sc.fireMu.Lock()
	defer sc.fireMu.Unlock()
	hseq, n := sc.primary.Bounds()
	rel := func(oid bat.OID) int64 { return min(max(int64(oid)-int64(hseq), 0), int64(n)) }
	return routedImage{Consumed: rel(bat.OID(sc.consumed.Load())), Join: rel(r.member.joinSeq)}
}

// RestoreState re-anchors the frontiers to the restored primary basket:
// the scan resumes exactly past what it had routed (a lagging shared
// reader may retain that prefix in the basket), whatever name this
// incarnation of the scan registered its reader mark under.
func (r *routedQuery) RestoreState(img routedImage) error {
	sc := r.scan
	sc.fireMu.Lock()
	defer sc.fireMu.Unlock()
	b := sc.primary
	b.Lock()
	defer b.Unlock()
	_, n := b.LockedSnapshot()
	if img.Consumed < 0 || img.Consumed > int64(n) || img.Join < 0 || img.Join > img.Consumed {
		return fmt.Errorf("routed frontier %d/%d outside the %d restored rows of %s", img.Join, img.Consumed, n, sc.stream)
	}
	hseq := b.LockedHseq()
	sc.consumed.Store(int64(hseq) + img.Consumed)
	r.member.joinSeq = hseq + bat.OID(img.Join)
	b.LockedSetMark(sc.name, hseq+bat.OID(img.Consumed))
	return nil
}

// scanGen disambiguates scan incarnations: a stream whose last routed
// query is dropped and which then gains a new one must not reuse the
// torn-down transition's scheduler name or reader id.
var scanGen atomic.Uint64

// routedInfo is the outcome of routedPlanInfo: the shareable plan and
// the routing predicate in stream-schema column space.
type routedInfo struct {
	node plan.Node
	pred expr.Expr
}

// routedPlanInfo decides routed-scan eligibility from the plan shape:
// any chain of Project/Select nodes over exactly one consume-all scan of
// the stream. A filtered scan (predicate-window retention keeps
// non-matching tuples buffered) is incompatible with the shared frontier,
// and stateful operators (windows, joins, aggregates) are per-query. The
// returned plan is a clone with Consuming cleared — the shared frontier
// already consumed the batch — and the returned predicate is the
// conjunction of the Select filters remapped through the scan's column
// projection into stream-schema space for the predicate index.
func routedPlanInfo(p plan.Node, streamName string) (routedInfo, bool) {
	var scan *plan.Scan
	var preds []expr.Expr
	ok := true
	// clone additionally reports whether the subtree contains a Project:
	// a Select with no Project below it reads the scan's output frame, so
	// its predicate is routable; above a Project the column indexes are in
	// the projected frame and the predicate (conservatively) stays
	// plan-only.
	var clone func(n plan.Node) (plan.Node, bool)
	clone = func(n plan.Node) (plan.Node, bool) {
		switch t := n.(type) {
		case *plan.Project:
			c := *t
			c.Child, _ = clone(t.Child)
			return &c, true
		case *plan.Select:
			c := *t
			var projected bool
			c.Child, projected = clone(t.Child)
			if !projected {
				preds = append(preds, t.Pred)
			}
			return &c, projected
		case *plan.Scan:
			if scan != nil {
				ok = false
				return t, false
			}
			scan = t
			c := *t
			c.Consuming = false
			return &c, false
		default:
			ok = false
			return n, false
		}
	}
	node, _ := clone(p)
	if !ok || scan == nil || !scan.Consuming || scan.Filter != nil ||
		!strings.EqualFold(scan.Source, streamName) {
		return routedInfo{}, false
	}
	pred := expr.JoinConjuncts(preds)
	if pred != nil {
		mapping := make(map[int]int, len(scan.Cols))
		for i, src := range scan.Cols {
			mapping[i] = src
		}
		pred = expr.Remap(pred, mapping)
	}
	return routedInfo{node: node, pred: pred}, true
}

// attachRouted joins the stream's shared scan (creating it on first
// use), retrying when it loses the race against a concurrent teardown of
// the scan's last member.
func (e *Engine) attachRouted(s *stream, name string, info routedInfo, out *basket.Basket, priority int) *routedQuery {
	for {
		sc := e.ensureScan(s, priority)
		if g, m, ok := sc.addMember(name, info, out); ok {
			return &routedQuery{scan: sc, group: g, member: m}
		}
	}
}

// ensureScan returns the stream's live shared scan, creating (or
// replacing a closed) one under e.mu.
func (e *Engine) ensureScan(s *stream, priority int) *sharedScan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.scan != nil && !s.scan.closed.Load() {
		return s.scan
	}
	sc := &sharedScan{
		eng:     e,
		stream:  s.name,
		source:  strings.ToLower(s.name),
		name:    fmt.Sprintf("~scan:%s#%d", s.name, scanGen.Add(1)),
		primary: s.primary,
		idx:     route.NewIndex(),
		groups:  map[string]*scanGroup{},
	}
	sc.consumed.Store(int64(s.primary.Hseq()))
	s.primary.RegisterReader(sc.name)
	sc.h = e.addTransition(sc, priority)
	e.observeStage(nil, sc.h, stageFire, sc.name, nil)
	sc.subID = s.primary.Subscribe(func() {
		sc.dirty.Store(true)
		sc.h.Wake()
	})
	// Catch any backlog already buffered for other shared readers.
	sc.dirty.Store(true)
	sc.h.Wake()
	s.scan = sc
	return sc
}

// addMember attaches a query to its plan group, creating the group (and
// its predicate-index entry) when this fingerprint is new. Returns
// ok=false when the scan was concurrently closed.
func (sc *sharedScan) addMember(name string, info routedInfo, out *basket.Basket) (*scanGroup, *scanMember, bool) {
	fp := plan.Explain(info.node)
	sc.regMu.Lock()
	defer sc.regMu.Unlock()
	if sc.closed.Load() {
		return nil, nil, false
	}
	// Publish under fireMu (regMu 44 < fireMu 46): with no firing in
	// flight, the consumed frontier cannot advance between the joinSeq
	// read and the member/group publication, so the first batch the
	// member's joinSeq admits is one a later firing will actually deliver.
	// Without the fence, an in-flight Fire could advance the frontier and
	// load the membership after joinSeq was read but before the member was
	// published — the member would permanently miss a batch its joinSeq
	// says it covers, with no replay possible.
	sc.fireMu.Lock()
	defer sc.fireMu.Unlock()
	g := sc.groups[fp]
	if g == nil {
		g = &scanGroup{
			id:          sc.nextID,
			fingerprint: fp,
			node:        info.node,
			pred:        route.Analyze(info.pred),
		}
		sc.nextID++
		none := []*scanMember{}
		g.members.Store(&none)
		sc.groups[fp] = g
		sc.idx.Add(g.id, g.pred, g)
	}
	m := &scanMember{
		name:    name,
		out:     out,
		joinSeq: bat.OID(sc.consumed.Load()),
		latency: obs.NewHistogram(),
	}
	next := append(slices.Clone(*g.members.Load()), m)
	g.members.Store(&next)
	sc.memberCount.Add(1)
	return g, m, true
}

// dropRouted detaches a routed query: unpublish the member (and its
// group, when it was the last member) under regMu, cycle the fire mutex
// as the drop fence, and — when the scan lost its last member — close
// and tear the scan transition down.
func (e *Engine) dropRouted(q *Query) {
	r := q.routed
	sc := r.scan
	sc.regMu.Lock()
	next := slices.DeleteFunc(slices.Clone(*r.group.members.Load()), func(m *scanMember) bool { return m == r.member })
	r.group.members.Store(&next)
	if len(next) == 0 {
		sc.idx.Remove(r.group.id)
		delete(sc.groups, r.group.fingerprint)
	}
	last := sc.memberCount.Add(-1) == 0
	if last {
		// No member can attach past this point: addMember checks closed
		// under regMu.
		sc.closed.Store(true)
	}
	sc.regMu.Unlock()
	sc.fireMu.Lock()
	//lint:ignore SA2001 drop fence: cycling the firing mutex guarantees any in-flight firing that captured the old membership snapshot has finished before the caller tears the query's baskets down.
	sc.fireMu.Unlock()
	if !last {
		return
	}
	e.mu.Lock()
	if s := e.streams[sc.source]; s != nil && s.scan == sc {
		s.scan = nil
	}
	e.mu.Unlock()
	e.sched.Remove(sc.name)
	sc.primary.Unsubscribe(sc.subID)
	sc.primary.UnregisterReader(sc.name)
}

// Name implements scheduler.Transition.
func (sc *sharedScan) Name() string { return sc.name }

// Ready implements scheduler.Transition.
func (sc *sharedScan) Ready() bool { return sc.dirty.Load() }

// Fire implements scheduler.Transition: consume the unseen suffix of
// the primary basket once, probe the predicate index for the candidate
// rows of each plan group, evaluate each matched group over its
// candidates only, and fan the result out to the group's members —
// offered to each subscription first, appended to <q>_out when declined.
func (sc *sharedScan) Fire() error {
	sc.fireMu.Lock()
	defer sc.fireMu.Unlock()
	sc.dirty.Store(false)
	sc.idx.FlushIfDirty()

	b := sc.primary
	b.Lock()
	// UnseenLocked returns (offset, total rows): off rows of the snapshot
	// were already consumed by this reader (another shared reader on the
	// primary can retain a prefix this scan has seen), the unseen suffix
	// is rows [off, n).
	off, n := b.UnseenLocked(sc.name)
	unseen := n - off
	if unseen == 0 {
		b.Unlock()
		return nil
	}
	view, _ := b.LockedSnapshot()
	hseq := b.LockedHseq()
	base := hseq + bat.OID(off)
	batch := view.Slice(off, n)
	// Advance the shared frontier before evaluation: chunk snapshots are
	// immutable, so the views stay valid after the prefix compacts.
	b.LockedSetMark(sc.name, hseq+bat.OID(n))
	b.Unlock()
	sc.consumed.Store(int64(hseq) + int64(n))
	sc.batches.Add(1)
	sc.rows.Add(int64(unseen))

	// Flatten once per firing: every all-rows group then shares the
	// columns, and candidate gathers index one segment.
	if len(batch.Chunks) > 1 {
		batch = bat.ViewOf(batch.Columns()...)
	}
	hits := sc.idx.Probe(batch, &sc.probe)
	defer sc.probe.Release() // a dropped group must not stay pinned by the scratch

	e := sc.eng
	ctx := exec.NewContext(e.cat)
	ctx.Overrides[sc.source] = batch
	ctx.Restrict = map[string]bat.Candidates{}
	var delivered, groupEvals, evaluated int64
	var firstErr error
	last := e.clock.Now()
	for _, hit := range hits {
		g := hit.Payload.(*scanGroup)
		members := *g.members.Load()
		active := 0
		for _, m := range members {
			if m.joinSeq <= base {
				active++
			}
		}
		if active == 0 {
			continue
		}
		// The group's own plan decides what matches (and what NULL means);
		// the index only narrowed the rows it has to look at.
		ctx.Restrict[sc.source] = hit.Rows
		rel, err := exec.Run(g.node, ctx)
		g.evals.Add(1)
		groupEvals++
		if hit.Rows == nil {
			evaluated += int64(unseen)
		} else {
			evaluated += int64(len(hit.Rows))
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("routed scan %s: %w", sc.stream, err)
		}
		outRows := 0
		if err == nil && len(rel.Cols) > 0 {
			outRows = rel.Cols[0].Len()
		}
		var stamped []*vector.Vector // rel.Cols plus a ts column: <q>_out's schema, shared by the group's hand-offs
		for _, m := range members {
			if m.joinSeq > base {
				continue // registered after this batch was consumed
			}
			delivered++
			m.firings.Add(1)
			m.tuplesIn.Add(int64(unseen))
			if outRows == 0 {
				continue
			}
			m.tuplesOut.Add(int64(outRows))
			// Hand-off: straight to the subscription, unless another
			// transition (a chained query) consumes <q>_out too.
			if em := m.emit.Load(); em != nil && m.out.Listeners() == 1 {
				if stamped == nil {
					stamped = withTimestamps(rel.Cols, outRows, e.clock.Now())
				}
				if em.Offer(&storage.Relation{Schema: m.out.Schema(), Cols: stamped}, outRows) {
					continue
				}
			}
			// Overflow: the basket append copies values, so the column
			// vectors are shared safely.
			if aerr := m.out.AppendRelation(rel); aerr != nil && firstErr == nil {
				firstErr = aerr
			}
		}
		if err == nil {
			// One clock read per group: its members share the evaluation,
			// so they share the latency sample (evaluation plus fan-out).
			now := e.clock.Now()
			for _, m := range members {
				if m.joinSeq <= base {
					m.latency.Observe(now - last)
				}
			}
			last = now
		}
	}
	sc.evaluated.Add(evaluated)
	o := e.obs
	o.routeBatches.Inc()
	o.routeMatched.Add(delivered)
	if skipped := sc.memberCount.Load() - delivered; skipped > 0 {
		o.routeSkipped.Add(skipped)
	}
	o.routeEvals.Add(groupEvals)
	o.routeRowsEvaluated.Add(evaluated)
	return firstErr
}

// withTimestamps returns cols plus a timestamp column holding now n
// times: a result in its output basket's schema, as an append would stamp
// it.
func withTimestamps(cols []*vector.Vector, n int, now int64) []*vector.Vector {
	ts := vector.NewWithCap(vector.Timestamp, n)
	for range n {
		ts.AppendInt(now)
	}
	return append(cols[:len(cols):len(cols)], ts)
}

// groupCount returns the number of live plan groups (diagnostics).
func (sc *sharedScan) groupCount() int {
	sc.regMu.Lock()
	defer sc.regMu.Unlock()
	return len(sc.groups)
}
