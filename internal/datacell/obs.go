package datacell

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// traceRingDepth is K in "last-K firings per query" (SHOW TRACE).
const traceRingDepth = 32

// e2eSampleEvery is N in "stamp ~1/N result batches" for the end-to-end
// tuple-latency histogram: every Nth non-empty result batch of a
// subscribed query carries a latency stamp from ingest to delivery.
const e2eSampleEvery = 64

// engineObs is the engine's metrics surface: the registry behind
// /metrics, the direct hot-path instruments, and the scrape-time
// collectors that walk live engine state. Every engine has one.
type engineObs struct {
	reg *obs.Registry

	// Hot-path instruments (direct atomic updates).
	ingestBatches *obs.Counter
	ingestTuples  *obs.Counter
	walCommitNS   *obs.Histogram
	walFsyncNS    *obs.Histogram
	walFsyncs     *obs.Counter
	checkpoints   *obs.Counter
	checkpointNS  *obs.Histogram

	// Per-stage pipeline latency: firing duration and wake→run queue
	// delay, labeled by stage (fire = shard factory, merge = merge
	// transition). Delivery runs inside the firing that appends.
	fireNS  map[string]*obs.Histogram
	queueNS map[string]*obs.Histogram

	// Sampled subscriber-delivery and end-to-end tuple latency.
	deliveryNS *obs.Histogram
	e2eNS      *obs.Histogram

	// Shared-scan routing (routed strategy): batches routed, member
	// queries matched vs. skipped by the predicate index, and shared
	// subplan evaluations (one per matched plan group per batch), and the
	// rows those evaluations were handed (the index's candidates — against
	// batches × rows × evals, the work row-level routing saved).
	routeBatches       *obs.Counter
	routeMatched       *obs.Counter
	routeSkipped       *obs.Counter
	routeEvals         *obs.Counter
	routeRowsEvaluated *obs.Counter
}

const (
	stageFire  = "fire"
	stageMerge = "merge"
)

// newEngineObs builds the registry, the direct instruments, and the
// collectors closing over e. The collectors read live engine state
// (scheduler counters, basket depths, query stats, WAL posture) only
// when /metrics is scraped.
func newEngineObs(e *Engine) *engineObs {
	reg := obs.NewRegistry()
	o := &engineObs{
		reg:           reg,
		ingestBatches: reg.Counter("dc_ingest_batches_total", "Ingest batches accepted across all streams.", nil),
		ingestTuples:  reg.Counter("dc_ingest_tuples_total", "Tuples accepted across all streams.", nil),
		walCommitNS:   reg.Histogram("dc_wal_commit_ns", "Ingest group-commit wait (WAL append to durable ack), ns.", nil),
		walFsyncNS:    reg.Histogram("dc_wal_fsync_ns", "Physical WAL fsync duration, ns.", nil),
		walFsyncs:     reg.Counter("dc_wal_fsync_rounds_total", "Physical fsync rounds (group commits).", nil),
		checkpoints:   reg.Counter("dc_checkpoint_total", "Completed operator-state checkpoints.", nil),
		checkpointNS:  reg.Histogram("dc_checkpoint_ns", "Checkpoint capture-to-install duration, ns.", nil),
		deliveryNS:    reg.Histogram("dc_delivery_latency_ns", "Subscriber delivery latency (result emission to channel handoff), sampled, ns.", nil),
		e2eNS:         reg.Histogram("dc_e2e_latency_ns", "End-to-end tuple latency (ingest to subscriber delivery), sampled, ns.", nil),
		fireNS:        map[string]*obs.Histogram{},
		queueNS:       map[string]*obs.Histogram{},
		routeBatches:  reg.Counter("dc_route_batches_total", "Batches pushed through shared-scan predicate routing.", nil),
		routeMatched:  reg.Counter("dc_route_matched_queries_total", "Per-batch routed-query matches (query received the batch).", nil),
		routeSkipped:  reg.Counter("dc_route_skipped_queries_total", "Per-batch routed-query skips (predicate index proved no match).", nil),
		routeEvals:    reg.Counter("dc_route_shared_evals_total", "Shared subplan evaluations (one per matched plan group per batch).", nil),

		routeRowsEvaluated: reg.Counter("dc_route_rows_evaluated_total", "Rows handed to member plans by shared-scan routing (candidate rows per evaluated plan group).", nil),
	}
	for _, st := range []string{stageFire, stageMerge} {
		o.fireNS[st] = reg.Histogram("dc_stage_fire_ns", "Transition firing duration by pipeline stage, ns.", obs.Labels{"stage": st})
		o.queueNS[st] = reg.Histogram("dc_stage_queue_ns", "Wake-to-execution queue delay by pipeline stage, ns.", obs.Labels{"stage": st})
	}

	// Scrape-time collectors: each reads one of the row walks SHOW reads
	// (introspect.go), or the durability cut SHOW QUERIES reads.
	collectRows(reg, func() []scheduler.Stats { return []scheduler.Stats{e.sched.Stats()} }, nil, []metricFamily[scheduler.Stats]{
		{"dc_scheduler_fired_total", "Total transition firings.", obs.KindCounter, func(st scheduler.Stats) float64 { return float64(st.Fired) }},
		{"dc_scheduler_claim_misses_total", "Transitions dequeued while not ready.", obs.KindCounter, func(st scheduler.Stats) float64 { return float64(st.ClaimMisses) }},
		{"dc_scheduler_coalesced_wakes_total", "Wakes absorbed by queued/running transitions.", obs.KindCounter, func(st scheduler.Stats) float64 { return float64(st.CoalescedWakes) }},
	})
	collectRows(reg, func() []scheduler.WorkerStats { return e.sched.Stats().Workers }, func(i int, _ scheduler.WorkerStats) obs.Labels {
		return obs.Labels{"worker": fmt.Sprint(i)}
	}, []metricFamily[scheduler.WorkerStats]{
		{"dc_worker_busy_ns_total", "Per-worker time spent firing transitions, ns.", obs.KindCounter, func(w scheduler.WorkerStats) float64 { return float64(w.BusyNS) }},
		{"dc_worker_idle_ns_total", "Per-worker time spent parked, ns.", obs.KindCounter, func(w scheduler.WorkerStats) float64 { return float64(w.IdleNS) }},
	})
	collectRows(reg, e.streamRows, func(_ int, r streamRow) obs.Labels { return obs.Labels{"stream": r.name} }, []metricFamily[streamRow]{
		{"dc_stream_ingested_total", "Tuples routed into each stream.", obs.KindCounter, func(r streamRow) float64 { return float64(r.ingested) }},
		{"dc_stream_backlog", "Unconsumed tuples in each stream's primary basket.", obs.KindGauge, func(r streamRow) float64 { return float64(r.primary.Len()) }},
	})
	collectRows(reg, e.basketRows, func(_ int, r basketRow) obs.Labels {
		if r.shard < 0 {
			return obs.Labels{"basket": r.name}
		}
		return obs.Labels{"basket": r.name, "shard": fmt.Sprint(r.shard)}
	}, []metricFamily[basketRow]{
		{"dc_basket_tuples", "Resident tuples per basket (shard baskets and lane sinks included).", obs.KindGauge, func(r basketRow) float64 { return float64(r.resident) }},
		{"dc_basket_dropped_total", "Tuples consumed or dropped per basket.", obs.KindCounter, func(r basketRow) float64 { return float64(r.dropped) }},
		{"dc_basket_shed_total", "Tuples shed under overload per basket.", obs.KindCounter, func(r basketRow) float64 { return float64(r.shed) }},
	})
	// The exposition orders samples itself, so the query walk skips the
	// name sort SHOW QUERIES applies.
	collectRows(reg, e.Queries, func(_ int, q *Query) obs.Labels { return obs.Labels{"query": q.Name} }, []metricFamily[*Query]{
		{"dc_query_firings_total", "Factory firings per query (summed across shard pipelines).", obs.KindCounter, func(q *Query) float64 { return float64(q.Stats().Firings) }},
		{"dc_query_tuples_in_total", "Tuples consumed per query.", obs.KindCounter, func(q *Query) float64 { return float64(q.Stats().TuplesIn) }},
		{"dc_query_tuples_out_total", "Result tuples produced per query.", obs.KindCounter, func(q *Query) float64 { return float64(q.Stats().TuplesOut) }},
		{"dc_query_late_tuples_total", "Tuples dropped as too late per query.", obs.KindCounter, func(q *Query) float64 { return float64(q.Stats().Late) }},
		{"dc_query_delivered_total", "Result tuples delivered to the query's subscriber.", obs.KindCounter, func(q *Query) float64 {
			if q.sub == nil {
				return 0
			}
			return float64(q.sub.em.Delivered())
		}},
		{"dc_query_merge_lag", "Shard emissions not yet merged into the output basket.", obs.KindGauge, func(q *Query) float64 { return float64(q.MergeLag()) }},
		{"dc_query_join_state", "Rows retained by the query's streaming join state.", obs.KindGauge, func(q *Query) float64 { return float64(q.Stats().JoinState) }},
		{"dc_query_watermark_lag_ns", "Engine-clock distance behind the query's event-time watermark, ns (-1 when unwindowed).", obs.KindGauge, func(q *Query) float64 {
			wm, ok := q.Watermark()
			if !ok {
				return -1
			}
			return float64(e.clock.Now() - wm)
		}},
		{"dc_query_backlog", "Unconsumed tuples in the query's output basket.", obs.KindGauge, func(q *Query) float64 { return float64(q.out.Len()) }},
	})
	collectRows(reg, func() []durSnapshot { return []durSnapshot{e.dur.snapshot()} }, nil, []metricFamily[durSnapshot]{
		{"dc_wal_segments", "Live WAL segments (0 when not durable).", obs.KindGauge, func(d durSnapshot) float64 { return float64(d.wal.Segments) }},
		{"dc_wal_bytes", "Total bytes across WAL segments.", obs.KindGauge, func(d durSnapshot) float64 { return float64(d.wal.Bytes) }},
		{"dc_wal_last_seq", "Last appended WAL sequence number.", obs.KindGauge, func(d durSnapshot) float64 { return float64(d.wal.LastSeq) }},
		{"dc_wal_synced_seq", "Last WAL sequence known durable.", obs.KindGauge, func(d durSnapshot) float64 { return float64(d.wal.SyncedSeq) }},
		{"dc_replay_lag", "WAL records a crash right now would replay.", obs.KindGauge, func(d durSnapshot) float64 { return float64(d.replayLag()) }},
		{"dc_last_checkpoint_unix_ns", "Wall-clock time of the newest checkpoint (0 when none).", obs.KindGauge, func(d durSnapshot) float64 {
			if d.ckptTime.IsZero() {
				return 0
			}
			return float64(d.ckptTime.UnixNano())
		}},
	})
	return o
}

// metricFamily is one scrape-time /metrics family over a row walk: its
// name, help, kind (counter or gauge), and the sample value of one row.
type metricFamily[R any] struct {
	name, help string
	kind       obs.Kind
	value      func(R) float64
}

// collectRows registers fams as collectors over rows: each scrape walks
// rows once per family and emits one sample per row, labelled by labels
// (nil for an unlabelled family).
func collectRows[R any](reg *obs.Registry, rows func() []R, labels func(i int, r R) obs.Labels, fams []metricFamily[R]) {
	for _, f := range fams {
		collect := func() []obs.Sample {
			rs := rows()
			out := make([]obs.Sample, len(rs))
			for i, r := range rs {
				out[i].Value = f.value(r)
				if labels != nil {
					out[i].Labels = labels(i, r)
				}
			}
			return out
		}
		if f.kind == obs.KindCounter {
			reg.CollectCounter(f.name, f.help, collect)
		} else {
			reg.CollectGauge(f.name, f.help, collect)
		}
	}
}

// observeStage arms the scheduler observer of one pipeline-stage handle:
// every firing lands in the per-stage duration/queue-delay histograms
// and — when the transition belongs to one query (ring non-nil; a shared
// scan has none) — in that query's bounded trace ring, with the in/out
// tuples the firing moved as reported by tuples.
func (e *Engine) observeStage(ring *obs.TraceRing, h *scheduler.Handle, stage, name string, tuples func() (int64, int64)) {
	fireH, queueH := e.obs.fireNS[stage], e.obs.queueNS[stage]
	clock := e.clock
	h.Observe(func(queueNS, fireNS int64, err error) {
		fireH.Observe(fireNS)
		if queueNS > 0 {
			queueH.Observe(queueNS)
		}
		if ring == nil {
			return
		}
		var in, out int64
		if tuples != nil {
			in, out = tuples()
		}
		ev := obs.TraceEvent{
			Stage:      stage,
			Transition: name,
			Start:      clock.Now() - fireNS,
			QueueNS:    queueNS,
			FireNS:     fireNS,
			TuplesIn:   in,
			TuplesOut:  out,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		ring.Add(ev)
	})
}

// factoryDelta returns a closure reporting the tuples a firing moved:
// the difference of the factory's cumulative counters since the last
// call. The pool fires a transition on one worker at a time, but a
// deterministic Step may overlap a pool firing (tests drive Drain against
// a started engine), so the cursors are atomics: overlapping firings may
// split a delta between them, never corrupt it.
func factoryDelta(f *factory.Factory) func() (int64, int64) {
	var lastIn, lastOut atomic.Int64
	return func() (int64, int64) {
		st := f.Stats()
		return st.TuplesIn - lastIn.Swap(st.TuplesIn), st.TuplesOut - lastOut.Swap(st.TuplesOut)
	}
}

// counterDelta adapts a single cumulative counter (the merge's merged
// rows) the same way; the count appears as both in and out.
func counterDelta(read func() int64) func() (int64, int64) {
	var last atomic.Int64
	return func() (int64, int64) {
		v := read()
		d := v - last.Swap(v)
		return d, d
	}
}

// armQueryObservers instruments one query's pipeline at install time:
// per-stage scheduler observers feeding the histograms and the trace
// ring, plus — when the query has a subscription — delivery/e2e latency
// sampling via the factory result hook and the emitter. The hook runs
// before the factory appends, and the append delivers, so a stamp
// always describes the batch being delivered.
func (e *Engine) armQueryObservers(q *Query) {
	q.trace = obs.NewTraceRing(traceRingDepth)
	if q.sub != nil {
		em := q.sub.em
		em.SetLatencyObserver(e.clock.Now, func(deliveryNS, e2eNS int64, rows int) {
			e.obs.deliveryNS.Observe(deliveryNS)
			if e2eNS >= 0 {
				e.obs.e2eNS.Observe(e2eNS)
			}
		})
		var sampleCounter atomic.Int64
		stamp := func(rel *storage.Relation, maxInputTS int64) {
			if sampleCounter.Add(1)%e2eSampleEvery == 1 {
				em.StampE2E(maxInputTS)
			}
		}
		for _, f := range q.facts {
			f.SetResultHook(stamp)
		}
	}
}

// metricsHealth is the /healthz probe: healthy unless the engine
// stopped or a transition reported an unrecovered error.
func (e *Engine) metricsHealth() error {
	e.mu.Lock()
	stopped := e.state == stateStopped
	e.mu.Unlock()
	if stopped {
		return ErrEngineStopped
	}
	return nil
}

// MetricsHandler returns the engine's observability HTTP handler
// (/metrics, /healthz, /debug/pprof/). Server front ends mount it on
// their own listeners.
func (e *Engine) MetricsHandler() http.Handler {
	return obs.Handler(e.obs.reg, e.metricsHealth)
}

// MetricsAddr returns the bound address of the metrics endpoint, or ""
// when Config.MetricsAddr was empty. Useful with a ":0" listen address.
func (e *Engine) MetricsAddr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.metricsLn == nil {
		return ""
	}
	return e.metricsLn.Addr().String()
}

// startMetricsServer binds Config.MetricsAddr and serves the handler
// until Stop. Called by Open.
func (e *Engine) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("datacell: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: e.MetricsHandler(), ReadHeaderTimeout: 5 * time.Second}
	e.mu.Lock()
	e.metricsLn = ln
	e.metricsSrv = srv
	e.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// stopMetricsServer closes the metrics endpoint; idempotent.
func (e *Engine) stopMetricsServer() {
	e.mu.Lock()
	srv := e.metricsSrv
	e.metricsSrv = nil
	e.metricsLn = nil
	e.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}
