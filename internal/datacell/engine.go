// Package datacell wires the kernel and the stream layer into the
// DataCell engine: a catalog of tables and baskets, a Petri-net scheduler,
// receptor-style ingestion, factories for continuous queries, and emitters
// for result delivery. It implements the paper's processing strategies —
// separate baskets, shared baskets, and the cascade of disjoint predicates
// (§2.5) — as per-query options on one shared substrate.
//
// The whole continuous-query lifecycle is SQL: CREATE CONTINUOUS QUERY,
// DROP CONTINUOUS QUERY, and SHOW QUERIES/BASKETS all execute through
// Exec, the same entry point as one-time statements.
package datacell

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/scheduler"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// Strategy selects how a continuous query's input is arranged (§2.5).
type Strategy uint8

// Processing strategies.
const (
	// SeparateBaskets gives the query a private input basket; every
	// incoming tuple is copied into it. Maximum independence, at the cost
	// of replicating the stream.
	SeparateBaskets Strategy = iota
	// SharedBaskets lets all queries read one basket; a tuple is removed
	// once every registered query has seen it. No replication.
	SharedBaskets
	// RoutedScan attaches eligible queries on the same stream to one
	// shared scan transition: a single consumption frontier on the
	// primary basket, a predicate index that routes each batch only to
	// the queries whose filters can match it, and one evaluation per
	// distinct subplan fanned out to the member queries. Opt-in via
	// `strategy = routed`; queries whose shape is ineligible (windows,
	// joins, shedding, filtered consuming scans) fall back to
	// SharedBaskets.
	RoutedScan
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SharedBaskets:
		return "shared"
	case RoutedScan:
		return "routed"
	}
	return "separate"
}

// Config parameterizes an Engine.
type Config struct {
	// Clock drives basket timestamps and latency accounting; nil means the
	// wall clock.
	Clock metrics.Clock
	// Workers sizes the concurrent scheduler pool for Start (default 2).
	Workers int
	// DataDir, when non-empty, makes the engine durable: ingests and DDL
	// are written to a segmented WAL under it, operator state is
	// checkpointed periodically, and Open replays the log tail so a
	// crashed engine resumes without losing acknowledged batches or
	// re-emitting delivered results.
	DataDir string
	// CheckpointInterval paces the background checkpointer (default 10s;
	// negative disables it, leaving only Stop's final checkpoint).
	CheckpointInterval time.Duration
	// WALSegmentBytes caps one log segment (default 64 MiB).
	WALSegmentBytes int64
	// MetricsAddr, when non-empty, serves the observability HTTP
	// endpoint (/metrics Prometheus text, /healthz, /debug/pprof/) on
	// the given listen address. ":0" picks a free port (see
	// Engine.MetricsAddr).
	MetricsAddr string
}

// Engine lifecycle states.
const (
	stateIdle int = iota
	stateRunning
	stateStopped
)

// Engine is the DataCell instance.
type Engine struct {
	clock metrics.Clock
	cat   *catalog.Catalog
	sched *scheduler.Scheduler

	// gate is the durability consistency gate: mutating entry points and
	// transition firings hold it in read mode, checkpoint capture in
	// write mode, so every checkpoint is a transaction-consistent cut.
	// Unused (never contended) on a non-durable engine. Lock order:
	// gate, then e.mu, then basket locks.
	gate sync.RWMutex
	dur  *durability // nil unless opened with Config.DataDir

	// obs is the metrics/tracing surface behind /metrics and SHOW TRACE.
	obs *engineObs

	mu         sync.Mutex
	metricsLn  net.Listener // bound metrics endpoint (nil unless served)
	metricsSrv *http.Server
	streams    map[string]*stream
	tables     map[string]*storage.Table
	queries    map[string]*Query
	cascades   map[string]*Cascade
	subs       []*Subscription
	workers    int
	state      int
	flushStop  chan struct{}
	// done is closed exactly once, as the last act of the Stop that shut
	// the engine down; context watchers and every other Stop wait on it.
	done chan struct{}

	// The tick's work list — everything the passage of time, rather than
	// an append, can make fireable. install and its undo maintain both
	// sets, so a tick costs nothing per query that is in neither.
	// windowed holds the factories that own a window runner: time may
	// close their windows with no arrival. rewakes holds the transitions
	// that can become ready with no append to wake them.
	windowed tickSet[*factory.Factory]
	rewakes  tickSet[*rewake]
}

// tickSet is a copy-on-write list: writers hold e.mu, the tick goroutine
// reads it with one atomic load.
type tickSet[T comparable] struct{ p atomic.Pointer[[]T] }

func (s *tickSet[T]) list() []T {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *tickSet[T]) add(x T) {
	next := append(slices.Clone(s.list()), x)
	s.p.Store(&next)
}

func (s *tickSet[T]) remove(x T) {
	next := slices.DeleteFunc(slices.Clone(s.list()), func(y T) bool { return y == x })
	s.p.Store(&next)
}

// rewake is a transition whose firing condition can turn true without an
// append to any of its input places, so no listener wakes it: a blocking
// subscription's emitter parked on a full channel (the consumer's receive
// makes room), and a windowed merge (a shard's window frontier can pass a
// buffered window without that shard emitting anything). The tick wakes
// the handle when due reports the condition.
type rewake struct {
	h   *scheduler.Handle
	due func() bool
}

// tickRewake enrols a transition in the tick's re-wake set and returns
// the inverse.
func (e *Engine) tickRewake(h *scheduler.Handle, due func() bool) (undo func()) {
	rw := &rewake{h: h, due: due}
	e.mu.Lock()
	e.rewakes.add(rw)
	e.mu.Unlock()
	return func() {
		e.mu.Lock()
		e.rewakes.remove(rw)
		e.mu.Unlock()
	}
}

// stream is one ingestion point: the primary (shared) basket plus the
// private replicas created by separate-strategy queries. A partitioned
// stream additionally owns N shard baskets; the fan-out routes each
// tuple to exactly one of them (hash of the partition column, or
// round-robin) once at least one partitioned query reads them.
type stream struct {
	name     string
	schema   *catalog.Schema // user schema, no ts
	primary  *basket.Basket
	replicas []*basket.Basket
	ingested int64

	// scan is the stream's shared routed-scan transition; nil until the
	// first routed-strategy query registers, nil again after the last one
	// drops (a closed scan is replaced on the next registration).
	scan *sharedScan

	// Partitioned streams only. shardReaders counts the registered
	// partitioned queries; routing is skipped while it is zero so shard
	// baskets do not accumulate unread tuples. The inbox is the
	// ingest→shard handoff: the fan-out stages each batch's shard slices
	// under one inbox mutex instead of locking every shard basket; each
	// shard basket drains its inbox feed on demand.
	router       *partition.Router
	shards       []*basket.Basket
	inbox        *partition.Inbox
	shardReaders int
}

// newCore builds the volatile engine; Open adds the durability and
// metrics-endpoint halves of cfg on top of it.
func newCore(cfg Config) *Engine {
	clock := cfg.Clock
	if clock == nil {
		clock = metrics.WallClock{}
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 2
	}
	e := &Engine{
		clock:    clock,
		cat:      catalog.New(),
		sched:    scheduler.New(),
		streams:  map[string]*stream{},
		tables:   map[string]*storage.Table{},
		queries:  map[string]*Query{},
		cascades: map[string]*Cascade{},
		workers:  workers,
		done:     make(chan struct{}),
	}
	e.obs = newEngineObs(e)
	return e
}

// Open creates an engine whose lifetime is bounded by ctx: when ctx is
// cancelled the engine shuts down as if Stop had been called. It fails
// fast on an already-cancelled context or an invalid configuration.
func Open(ctx context.Context, cfg Config) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("datacell: negative worker count %d", cfg.Workers)
	}
	e := newCore(cfg)
	if cfg.DataDir != "" {
		if err := e.initDurability(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.MetricsAddr != "" {
		if err := e.startMetricsServer(cfg.MetricsAddr); err != nil {
			if e.dur != nil {
				_ = e.dur.wal.Close()
			}
			return nil, err
		}
	}
	e.watchContext(ctx)
	return e, nil
}

// watchContext stops the engine when ctx ends; the watcher goroutine is
// released when the engine stops first.
func (e *Engine) watchContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			_ = e.Stop(context.Background())
		case <-e.done:
		}
	}()
}

// Catalog exposes the engine's catalog (diagnostics and tests).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Scheduler exposes the engine's scheduler (deterministic driving).
func (e *Engine) Scheduler() *scheduler.Scheduler { return e.sched }

// guard rejects calls on a stopped engine or under a cancelled context.
func (e *Engine) guard(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	stopped := e.state == stateStopped
	e.mu.Unlock()
	if stopped {
		return ErrEngineStopped
	}
	return nil
}

// Start launches the concurrent scheduler pool, plus a background ticker
// that advances time-based windows so they close even when their stream
// pauses. Cancelling ctx stops the engine. Start on a running engine is a
// no-op; after Stop it returns ErrEngineStopped.
func (e *Engine) Start(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// The state transition and its checks share one mu acquisition: a
	// concurrent Stop must not be overwritten by a resurrecting Start.
	e.mu.Lock()
	switch e.state {
	case stateStopped:
		e.mu.Unlock()
		return ErrEngineStopped
	case stateRunning:
		e.mu.Unlock()
		return nil
	}
	e.state = stateRunning
	w := e.workers
	stop := make(chan struct{})
	e.flushStop = stop
	e.mu.Unlock()
	e.sched.Start(w)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				e.tick()
			}
		}
	}()
	if e.dur != nil {
		go e.checkpointLoop(stop)
	}
	e.watchContext(ctx)
	return nil
}

// Stop shuts the engine down: the window ticker stops, in-flight work is
// drained gracefully (bounded by ctx), the scheduler pool terminates, and
// every subscription closes with ErrEngineStopped. Stop is idempotent and
// safe before Start; once stopped, the engine rejects further work. Every
// call returns only once the shutdown has completed — the clean-shutdown
// checkpoint included — or its own ctx ends, whichever caller performs it.
func (e *Engine) Stop(ctx context.Context) error {
	e.mu.Lock()
	if e.state == stateStopped {
		e.mu.Unlock()
		var cancelled <-chan struct{}
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-e.done: // a completed shutdown is success whatever ctx says
			return nil
		default:
		}
		select {
		case <-e.done:
			return nil
		case <-cancelled:
			return ctx.Err()
		}
	}
	wasRunning := e.state == stateRunning
	e.state = stateStopped
	stop := e.flushStop
	e.flushStop = nil
	e.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	var drainErr error
	if wasRunning {
		drainErr = e.drainRunning(ctx)
	}
	e.sched.Stop()
	// With the scheduler quiescent, write the final clean-shutdown
	// checkpoint: it covers the whole log, so the next Open skips replay.
	if e.dur != nil {
		if err := e.checkpoint(true); err != nil && drainErr == nil {
			drainErr = err
		}
		if err := e.dur.wal.Close(); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	e.stopMetricsServer()
	e.mu.Lock()
	subs := append([]*Subscription(nil), e.subs...)
	e.mu.Unlock()
	for _, s := range subs {
		s.closeWith(ErrEngineStopped)
	}
	close(e.done)
	return drainErr
}

// drainRunning waits for the concurrent scheduler to go quiescent: every
// transition unready, or no firing progress for a grace period (a blocked
// emitter must not wedge shutdown), or ctx done.
func (e *Engine) drainRunning(ctx context.Context) error {
	const stallLimit = 50 * time.Millisecond
	idleSince := time.Time{}
	last := e.sched.Fired()
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ready := false
		for _, t := range e.sched.Transitions() {
			if t.Ready() {
				ready = true
				break
			}
		}
		if !ready {
			return nil
		}
		if now := e.sched.Fired(); now != last {
			last = now
			idleSince = time.Time{}
		} else if idleSince.IsZero() {
			idleSince = time.Now()
		} else if time.Since(idleSince) > stallLimit {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// Step runs one deterministic scheduler pass (test/bench mode).
func (e *Engine) Step() int { return e.sched.Step() }

// Drain runs scheduler passes until the Petri net is quiescent.
func (e *Engine) Drain() int { return e.sched.Drain(1_000_000) }

// CreateStream declares a stream: a named basket fed by Ingest. The schema
// must not include the implicit ts column.
func (e *Engine) CreateStream(name string, schema *catalog.Schema) error {
	return e.CreatePartitionedStream(name, schema, partition.Spec{})
}

// CreatePartitionedStream declares a stream with a sharding declaration —
// the Go equivalent of CREATE BASKET ... WITH (partitions = N,
// partition_by = col). With spec.Shards > 1 the stream owns N shard
// baskets (named <name>#i, visible in SHOW BASKETS) and the ingest
// fan-out hash-routes each tuple to one of them; partitionable
// continuous queries over the stream then run as N parallel shard
// pipelines. A zero spec declares an ordinary stream.
func (e *Engine) CreatePartitionedStream(name string, schema *catalog.Schema, spec partition.Spec) error {
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	if err := e.createPartitionedStream(name, schema, spec); err != nil {
		return err
	}
	return e.dur.logStmt(context.Background(), createBasketDDL(name, schema, spec), true)
}

func (e *Engine) createPartitionedStream(name string, schema *catalog.Schema, spec partition.Spec) error {
	// partition_by is validated even for the degenerate partitions = 1
	// declaration, so a typo'd column never silently disables routing.
	if spec.By != "" && schema.Index(spec.By) < 0 {
		return fmt.Errorf("%w: partition_by column %q not in schema %s", ErrInvalidOption, spec.By, schema)
	}
	var router *partition.Router
	if spec.Enabled() {
		var err error
		router, err = partition.NewRouter(schema, spec)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOption, err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := e.streams[key]; dup {
		return fmt.Errorf("%w: stream %q", ErrDuplicateName, name)
	}
	b := basket.New(name, schema, e.clock)
	regErr := func() error {
		if router == nil {
			return e.cat.Register(name, catalog.KindBasket, b)
		}
		return e.cat.RegisterPartitioned(name, catalog.KindBasket, b, spec.Shards, spec.By)
	}()
	if regErr != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	s := &stream{name: name, schema: schema, primary: b, router: router}
	if router != nil {
		s.inbox = partition.NewInbox(spec.Shards)
		for i := 0; i < spec.Shards; i++ {
			sh := basket.New(fmt.Sprintf("%s#%d", name, i), schema, e.clock)
			sh.SetFeed(s.inbox.Shard(i))
			if err := e.cat.RegisterShard(sh.Name(), catalog.KindBasket, sh, name, i); err != nil {
				// Roll back: '#' is not a legal identifier, so a collision
				// means a previous partitioned stream's leftovers — impossible
				// after the duplicate check above, but keep the catalog clean.
				for j := 0; j < i; j++ {
					_ = e.cat.Drop(fmt.Sprintf("%s#%d", name, j))
				}
				_ = e.cat.Drop(name)
				return fmt.Errorf("%w: %q", ErrDuplicateName, sh.Name())
			}
			s.shards = append(s.shards, sh)
		}
	}
	e.streams[key] = s
	return nil
}

// CreateTable declares a static relational table.
func (e *Engine) CreateTable(name string, schema *catalog.Schema) error {
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	if err := e.createTable(name, schema); err != nil {
		return err
	}
	return e.dur.logStmt(context.Background(), createTableDDL(name, schema), true)
}

func (e *Engine) createTable(name string, schema *catalog.Schema) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := storage.NewTable(name, schema)
	if err := e.cat.Register(name, catalog.KindTable, t); err != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	e.tables[strings.ToLower(name)] = t
	return nil
}

// columnsDDL renders a schema as a DDL column list.
func columnsDDL(schema *catalog.Schema) string {
	var b strings.Builder
	for i, c := range schema.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	return b.String()
}

// createBasketDDL and createTableDDL synthesize journal spellings for
// the Go registration APIs, so Go-declared objects recover exactly like
// DDL-declared ones.
func createBasketDDL(name string, schema *catalog.Schema, spec partition.Spec) string {
	s := fmt.Sprintf("CREATE BASKET %s (%s)", name, columnsDDL(schema))
	var opts []string
	if spec.Shards > 0 {
		opts = append(opts, fmt.Sprintf("partitions = %d", spec.Shards))
	}
	if spec.By != "" {
		opts = append(opts, fmt.Sprintf("partition_by = %s", spec.By))
	}
	if len(opts) > 0 {
		s += " WITH (" + strings.Join(opts, ", ") + ")"
	}
	return s
}

func createTableDDL(name string, schema *catalog.Schema) string {
	return fmt.Sprintf("CREATE TABLE %s (%s)", name, columnsDDL(schema))
}

// Stream returns the primary basket of a stream.
func (e *Engine) Stream(name string) (*basket.Basket, error) {
	s, err := e.lookupStream(name)
	if err != nil {
		return nil, err
	}
	return s.primary, nil
}

// Ingest routes rows into a stream: to the primary basket when shared
// consumers (or no queries at all) read it, and to every private replica
// created by separate-strategy queries — the receptor's replication step.
// It honors ctx cancellation and fails after Stop. Rows are transposed to
// columns once, then fanned out (appending copies, so targets never share
// storage).
func (e *Engine) Ingest(ctx context.Context, streamName string, rows [][]vector.Value) error {
	if err := e.guard(ctx); err != nil {
		return err
	}
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	return e.ingestRows(ctx, streamName, rows)
}

// ingestRows is the core behind Ingest and basket INSERTs; the caller
// holds the consistency gate on a durable engine.
func (e *Engine) ingestRows(ctx context.Context, streamName string, rows [][]vector.Value) error {
	s, err := e.lookupStream(streamName)
	if err != nil {
		return err
	}
	cols, err := rowsToCols(s.schema, rows)
	if err != nil {
		return fmt.Errorf("basket %s: %w", streamName, err)
	}
	return e.ingest(ctx, s, len(rows), cols)
}

// IngestColumns is the bulk variant of Ingest: one vector per user column
// of the stream, all of one length.
//
// The vectors stay the caller's. Every target — the primary basket, each
// separate-strategy replica, the shard inbox, the WAL record — takes a
// copy of the values before the call returns and nothing keeps a
// reference, so the caller may truncate and refill the same vectors for
// its next batch (server.ServeIngest does). The engine may complete a
// vector's lazily allocated null mask during the call; it changes no
// value. TestIngestColumnsLeavesTheCallersVectorsAlone holds every target
// to this.
func (e *Engine) IngestColumns(ctx context.Context, streamName string, cols []*vector.Vector) error {
	if err := e.guard(ctx); err != nil {
		return err
	}
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	s, err := e.lookupStream(streamName)
	if err != nil {
		return err
	}
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	return e.ingest(ctx, s, n, cols)
}

// ingest logs the batch to the WAL (waiting for the group commit, so an
// acknowledged batch survives a crash) and fans it out. The log append
// and the fan-out share one gate hold, so the log order matches the
// apply order.
func (e *Engine) ingest(ctx context.Context, s *stream, n int, cols []*vector.Vector) error {
	if e.dur != nil {
		start := time.Now()
		if err := e.dur.logIngest(ctx, s.name, cols); err != nil {
			return err
		}
		e.obs.walCommitNS.Observe(time.Since(start).Nanoseconds())
	}
	return e.fanout(s, n, cols)
}

func (e *Engine) lookupStream(name string) (*stream, error) {
	e.mu.Lock()
	s, ok := e.streams[strings.ToLower(name)]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	return s, nil
}

// fanout is the shared receptor step behind Ingest and IngestColumns: it
// charges the stream's arrival counter and appends the batch to the
// primary basket (when shared consumers, or nobody, read it), to every
// separate-strategy replica, and — on a partitioned stream with
// registered shard readers — routes each tuple to its shard basket. The
// replica slice is copy-on-write (see Query.attachInput), so the snapshot
// taken under e.mu is used as-is instead of being recloned on every call.
func (e *Engine) fanout(s *stream, n int, cols []*vector.Vector) error {
	e.obs.ingestBatches.Inc()
	e.obs.ingestTuples.Add(int64(n))
	e.mu.Lock()
	s.ingested += int64(n)
	primary := s.primary
	replicas := s.replicas
	shardReaders := s.shardReaders
	e.mu.Unlock()

	if primary.Readers() > 0 || (len(replicas) == 0 && shardReaders == 0) {
		if err := primary.Append(cols); err != nil {
			return err
		}
	}
	for _, r := range replicas {
		if err := r.Append(cols); err != nil {
			return err
		}
	}
	if shardReaders > 0 {
		parts, err := s.router.Split(cols)
		if err != nil {
			return err
		}
		for i, part := range parts {
			if len(part) > 0 && part[0] == cols[0] {
				// Split hands a one-shard batch through uncopied and the
				// inbox holds its slices until the shard drains them; the
				// vectors are the caller's to reuse (see IngestColumns).
				parts[i] = vector.CloneColumns(cols)
			}
		}
		// The whole batch must become visible to every shard atomically:
		// shard window runners share a watermark group raised while
		// PROCESSING a batch, and a shard's pre-pin group reading assumes
		// every tuple below it was already routed to its input. Per-shard
		// appends break that — a fast shard can fire on its slice and
		// raise the group clock while a sibling's slice is still in
		// flight, and the sibling then seals windows those tuples belong
		// to and mislabels them late. The inbox preserves the invariant
		// without locking every shard basket: all slices are staged on
		// per-shard rings, then published together with one atomic epoch
		// store; a shard basket admits only published epochs when it
		// drains its feed. The append itself is therefore lock-free on
		// the shard baskets — only the targeted wake below touches them.
		s.inbox.Publish(parts, e.clock.Now())
		for i, part := range parts {
			if len(part) > 0 && part[0].Len() > 0 {
				s.shards[i].NotifyAppend()
			}
		}
	}
	return nil
}

// rowsToCols transposes user rows into per-column vectors of the stream's
// user schema (no ts column).
func rowsToCols(schema *catalog.Schema, rows [][]vector.Value) ([]*vector.Vector, error) {
	w := schema.Len()
	cols := make([]*vector.Vector, w)
	for i := 0; i < w; i++ {
		cols[i] = vector.NewWithCap(schema.Columns[i].Type, len(rows))
	}
	for _, row := range rows {
		if len(row) != w {
			return nil, fmt.Errorf("row has %d values, want %d", len(row), w)
		}
		for i, v := range row {
			cols[i].AppendValue(v)
		}
	}
	return cols, nil
}

// Ingested returns the number of tuples routed into the stream so far.
func (e *Engine) Ingested(streamName string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.streams[strings.ToLower(streamName)]; ok {
		return s.ingested
	}
	return 0
}

// Exec runs one SQL statement: DDL (including the continuous-query
// lifecycle), INSERT, a one-time SELECT, or SHOW introspection. It honors
// ctx cancellation and fails after Stop. Every front end — the embedding
// API, script execution, and the TCP control listener — routes through
// this single entry point.
func (e *Engine) Exec(ctx context.Context, text string) (*storage.Relation, error) {
	if err := e.guard(ctx); err != nil {
		return nil, err
	}
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	// logDDL records a schema-shaping statement after it succeeds: in
	// the WAL and in the DDL journal every checkpoint embeds.
	logDDL := func(err error) error {
		if err != nil {
			return err
		}
		return e.dur.logStmt(ctx, text, true)
	}
	switch x := st.(type) {
	case *sql.CreateStmt:
		schema := &catalog.Schema{}
		for _, c := range x.Cols {
			schema.Columns = append(schema.Columns, catalog.Column{Name: c.Name, Type: c.Type})
		}
		if x.Basket {
			spec, rest, err := partition.FromOptions(x.Options)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvalidOption, err)
			}
			if len(rest) > 0 {
				return nil, fmt.Errorf("%w: unknown option %q", ErrInvalidOption, rest[0].Key)
			}
			return nil, logDDL(e.createPartitionedStream(x.Name, schema, spec))
		}
		// The parser rejects WITH on CREATE TABLE, so x.Options is empty here.
		return nil, logDDL(e.createTable(x.Name, schema))
	case *sql.CreateContinuousStmt:
		opts, err := optionsFromSpecs(x.Options)
		if err != nil {
			return nil, err
		}
		_, err = e.registerParsed(x.Name, x.SelectText, x.Select, newQueryConfig(opts))
		return nil, logDDL(err)
	case *sql.DropContinuousStmt:
		return nil, logDDL(e.unregisterContinuous(x.Name))
	case *sql.DropStmt:
		return nil, logDDL(e.drop(x.Name))
	case *sql.ShowStmt:
		return e.show(x)
	case *sql.ExplainStmt:
		return e.explainAnalyze(x.Target)
	case *sql.InsertStmt:
		selfLogged, err := e.insert(ctx, x)
		if err != nil {
			return nil, err
		}
		if !selfLogged {
			// Table INSERTs are WAL-only (table contents live in the
			// checkpoint image, not the DDL journal).
			err = e.dur.logStmt(ctx, text, false)
		}
		return nil, err
	case *sql.SelectStmt:
		if x.IsContinuous() {
			return nil, fmt.Errorf("%w: %s", ErrContinuousViaExec, sql.StmtString(x))
		}
		p, err := plan.Build(x, e.cat)
		if err != nil {
			return nil, e.planError(err)
		}
		return exec.Run(p, exec.NewContext(e.cat))
	default:
		return nil, fmt.Errorf("datacell: unsupported statement")
	}
}

func (e *Engine) drop(name string) error {
	e.mu.Lock()
	key := strings.ToLower(name)
	if _, ok := e.streams[key]; ok {
		for _, q := range e.queries {
			for _, streamName := range q.topo.streams {
				if strings.ToLower(streamName) == key {
					e.mu.Unlock()
					return fmt.Errorf("%w: %q is read by %q", ErrStreamInUse, name, q.Name)
				}
			}
		}
		for _, c := range e.cascades {
			if strings.ToLower(c.stream) == key {
				e.mu.Unlock()
				return fmt.Errorf("%w: %q is read by cascade %q", ErrStreamInUse, name, c.Name)
			}
		}
		s := e.streams[key]
		delete(e.streams, key)
		e.mu.Unlock()
		for i := range s.shards {
			_ = e.cat.Drop(fmt.Sprintf("%s#%d", s.name, i))
		}
		return e.cat.Drop(name)
	}
	if _, ok := e.tables[key]; ok {
		delete(e.tables, key)
		e.mu.Unlock()
		return e.cat.Drop(name)
	}
	e.mu.Unlock()
	return fmt.Errorf("%w: no table or stream %q", ErrUnknownStream, name)
}

// insert applies an INSERT. The returned bool reports whether the
// statement already logged itself durably (a basket INSERT routes
// through the ingest core, which writes an 'I' record); a table INSERT
// leaves logging to Exec.
func (e *Engine) insert(ctx context.Context, ins *sql.InsertStmt) (bool, error) {
	entry, err := e.cat.Lookup(ins.Table)
	if err != nil {
		return false, fmt.Errorf("%w: %q", ErrUnknownStream, ins.Table)
	}
	userW := entry.Source.Schema().Len()
	if entry.Kind == catalog.KindBasket {
		userW-- // implicit ts is never inserted
	}
	rows := make([][]vector.Value, 0, len(ins.Rows))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != userW {
			return false, fmt.Errorf("datacell: INSERT into %s needs %d values, got %d",
				ins.Table, userW, len(exprRow))
		}
		row := make([]vector.Value, len(exprRow))
		for i, ex := range exprRow {
			v, err := literalValue(ex, entry.Source.Schema().Columns[i].Type)
			if err != nil {
				return false, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if entry.Kind == catalog.KindBasket {
		// The gate is already held by Exec on a durable engine.
		return true, e.ingestRows(ctx, ins.Table, rows)
	}
	e.mu.Lock()
	tbl := e.tables[strings.ToLower(ins.Table)]
	e.mu.Unlock()
	if tbl == nil {
		return false, fmt.Errorf("datacell: %q is not writable", ins.Table)
	}
	for _, row := range rows {
		if err := tbl.AppendRow(row); err != nil {
			return false, err
		}
	}
	return false, nil
}

// literalValue reduces an INSERT expression (literal, possibly negated) to
// a value of the target column type.
func literalValue(ex sql.Expr, want vector.Type) (vector.Value, error) {
	switch x := ex.(type) {
	case *sql.Lit:
		return coerce(x.Val, want)
	case *sql.UnaryExpr:
		if x.Op != "-" {
			return vector.Value{}, fmt.Errorf("datacell: INSERT values must be literals")
		}
		inner, err := literalValue(x.E, want)
		if err != nil {
			return vector.Value{}, err
		}
		switch inner.Typ {
		case vector.Int64, vector.Timestamp:
			inner.I = -inner.I
		case vector.Float64:
			inner.F = -inner.F
		default:
			return vector.Value{}, fmt.Errorf("datacell: cannot negate %s", inner.Typ)
		}
		return inner, nil
	default:
		return vector.Value{}, fmt.Errorf("datacell: INSERT values must be literals")
	}
}

func coerce(v vector.Value, want vector.Type) (vector.Value, error) {
	if v.Null {
		return vector.NullValue(want), nil
	}
	if v.Typ == want {
		return v, nil
	}
	switch {
	case want == vector.Float64 && v.Typ == vector.Int64:
		return vector.NewFloat(float64(v.I)), nil
	case want == vector.Timestamp && v.Typ == vector.Int64:
		return vector.NewTimestamp(v.I), nil
	case want == vector.Int64 && v.Typ == vector.Float64 && v.F == float64(int64(v.F)):
		return vector.NewInt(int64(v.F)), nil
	default:
		return vector.Value{}, fmt.Errorf("datacell: cannot store %s into %s column", v.Typ, want)
	}
}

// Queries lists the registered continuous queries. A query mid-install
// or mid-drop holds its name in e.queries but is not listed.
func (e *Engine) Queries() []*Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Query, 0, len(e.queries))
	for _, q := range e.queries {
		if q.live.Load() {
			out = append(out, q)
		}
	}
	return out
}

// Query returns a registered continuous query by name.
func (e *Engine) Query(name string) (*Query, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.queries[strings.ToLower(name)]
	if !ok || !q.live.Load() {
		return nil, fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	return q, nil
}

// FlushWindows advances every windowed query to the current clock,
// emitting time-based windows that closed without new arrivals.
func (e *Engine) FlushWindows() error {
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	for _, f := range e.windowed.list() {
		if err := f.FlushWindows(); err != nil {
			return err
		}
	}
	return nil
}

// tick is one beat of the running engine's 5 ms timer: close the windows
// time has closed, then wake the transitions that became ready with no
// append. It touches only the two tick sets, never the query table.
func (e *Engine) tick() {
	_ = e.FlushWindows()
	for _, rw := range e.rewakes.list() {
		if rw.due() {
			rw.h.Wake()
		}
	}
}
