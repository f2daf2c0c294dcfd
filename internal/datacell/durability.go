// Durability: a segmented write-ahead log plus periodic operator-state
// checkpoints, giving the engine crash recovery with exactly-once
// resumption of continuous queries.
//
// The WAL records three kinds of events, framed by walcodec.go:
//
//   - 'S' statements: DDL (CREATE/DROP of baskets, tables, and continuous
//     queries) and INSERTs into tables. DDL is additionally kept in an
//     in-memory journal that every checkpoint image embeds, so recovery
//     can rebuild the catalog before restoring operator state.
//   - 'I' ingests: one record per Ingest/IngestColumns batch (and per
//     INSERT into a basket), appended to the log *before* the fan-out so
//     an acknowledged batch is always recoverable. Ingest returns only
//     after the record is group-committed (fsync batching in the WAL).
//   - 'F' delivery frontiers: the cumulative count of result tuples a
//     query's subscription has delivered. Logged asynchronously after
//     delivery, so recovery suppresses re-emission of everything at or
//     below the highest frontier on disk (exactly-once with respect to
//     the durable frontier; the tail of in-flight deliveries whose
//     frontier record was lost is re-delivered at-least-once).
//
// A checkpoint is a consistent cut: the engine's consistency gate (a
// write lock all mutating entry points and transition firings take in
// read mode) is held while the image — basket contents and reader marks,
// window panes, symmetric-join state, watermarks, windowed-merge
// pendings, per-query delivery counts, table contents, and the DDL
// journal — is captured; the image is then encoded, fsynced, and
// atomically installed outside the gate, after which the WAL prefix it
// covers is pruned. Captures clone the columns they take, so the encoder
// can run outside the gate; columns are encoded by the vector package's
// column codec, the same bytes an 'I' record carries (see encodeImage).
//
// Recovery (Engine.Open with Config.DataDir) replays the newest valid
// checkpoint whose sequence number is covered by the durable WAL prefix,
// re-executes the DDL journal, restores operator state, replays the WAL
// tail past the checkpoint, and arms each durable query's emitter with
// the delivery frontier so already-delivered results are not re-emitted.
// A final clean-shutdown checkpoint written by Stop makes clean restarts
// skip the replay entirely.
//
// Known caveats, by design: arrival timestamps of replayed tuples are
// re-stamped at replay time (event-time queries, which order by a user
// column, are unaffected); Go-only registrations that have no DDL
// spelling (cascades, filter groups, custom QueryOptions) are not
// journaled and must be re-registered after a restart; consumption of a
// polling query's output basket via one-time SELECTs is not logged, so
// such reads may reappear after a crash.
package datacell

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/basket"
	"repro/internal/checkpoint"
	"repro/internal/factory"
	"repro/internal/partition"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Typed durability errors, re-exported from the subsystem packages so
// callers can errors.Is against the engine package alone.
var (
	// ErrCorruptWAL reports an unrecoverable write-ahead-log corruption
	// (a bad frame before the final torn tail, or a sequence gap).
	ErrCorruptWAL = wal.ErrCorruptWAL
	// ErrCheckpointMismatch reports a checkpoint image that fails
	// validation or does not match the recovered catalog.
	ErrCheckpointMismatch = checkpoint.ErrCheckpointMismatch
	// ErrNotDurable reports a durability operation on an engine opened
	// without Config.DataDir.
	ErrNotDurable = fmt.Errorf("datacell: engine has no data directory")
)

// WAL record kinds.
const (
	recStmt     byte = 'S'
	recIngest   byte = 'I'
	recFrontier byte = 'F'
)

const (
	walSubdir       = "wal"
	ckptSubdir      = "checkpoint"
	keepCheckpoints = 2
	// defaultCheckpointInterval paces the background checkpointer when
	// Config.CheckpointInterval is zero.
	defaultCheckpointInterval = 10 * time.Second
)

// durability is the engine-side state of the subsystem. Nil on a
// non-durable engine; every method tolerates a nil receiver so call
// sites need no guards.
type durability struct {
	dir string
	wal *wal.WAL

	mu           sync.Mutex
	ckptEvery    time.Duration // background checkpoint cadence; < 0 disables
	ddl          []string      // DDL journal since engine birth
	delivered    map[string]int64
	lastCkptSeq  int64
	lastCkptTime time.Time

	// ckptMu serializes whole checkpoints (ticker vs Stop vs explicit).
	ckptMu sync.Mutex
	// retime tells checkpointLoop that ckptEvery tightened while it was
	// waiting out the previous cadence.
	retime chan struct{}

	// Recovery-time switches; set only while Open replays, before the
	// engine is visible to any other goroutine.
	noWAL     bool // suppress all WAL appends (records are already on disk)
	noJournal bool // suppress the DDL journal too (journal is pre-seeded)

	recoveredRecords int64
	recoveredClean   bool
}

func (d *durability) ckptDir() string { return filepath.Join(d.dir, ckptSubdir) }

// logStmt journals and WAL-appends one statement. Schema-shaping
// statements (journal=true) enter the DDL journal embedded in every
// checkpoint; data statements (INSERT into a table) are WAL-only — the
// checkpoint image carries table contents directly.
func (d *durability) logStmt(ctx context.Context, text string, journal bool) error {
	if d == nil {
		return nil
	}
	if journal && !d.noJournal {
		d.mu.Lock()
		d.ddl = append(d.ddl, text)
		d.mu.Unlock()
	}
	if d.noWAL {
		return nil
	}
	p, err := encodeRecord(nil, &walRecord{Kind: recStmt, Stmt: text})
	if err != nil {
		return err
	}
	seq, err := d.wal.Append(p)
	if err != nil {
		return err
	}
	return d.wal.Commit(ctx, seq)
}

// walBufPool recycles ingest-record encode buffers: the WAL copies the
// payload into its write buffer during Append, so the encode buffer is
// reusable the moment Append returns.
var walBufPool = sync.Pool{New: func() any { return new([]byte) }}

// logIngest appends one ingest batch and waits for the group commit.
// Called before the fan-out, under the consistency gate, so the log
// order matches the apply order and an acknowledged batch is durable.
func (d *durability) logIngest(ctx context.Context, stream string, cols []*vector.Vector) error {
	if d == nil || d.noWAL {
		return nil
	}
	bp := walBufPool.Get().(*[]byte)
	p, err := encodeRecord((*bp)[:0], &walRecord{Kind: recIngest, Stream: stream, Cols: cols})
	if err != nil {
		walBufPool.Put(bp)
		return err
	}
	seq, err := d.wal.Append(p)
	*bp = p[:0]
	walBufPool.Put(bp)
	if err != nil {
		return err
	}
	return d.wal.Commit(ctx, seq)
}

// logFrontier records a query's cumulative delivery count. Append-only
// (no commit wait): losing the tail frontier record downgrades those
// deliveries to at-least-once, never to lost.
func (d *durability) logFrontier(query string, delivered int64) {
	if d == nil || d.noWAL {
		return
	}
	d.mu.Lock()
	if delivered <= d.delivered[query] {
		d.mu.Unlock()
		return
	}
	d.delivered[query] = delivered
	d.mu.Unlock()
	if p, err := encodeRecord(nil, &walRecord{Kind: recFrontier, Query: query, Count: delivered}); err == nil {
		_, _ = d.wal.Append(p)
	}
}

// tighten lowers the background checkpoint cadence to at most every.
func (d *durability) tighten(every time.Duration) {
	if d == nil || every <= 0 {
		return
	}
	d.mu.Lock()
	tightened := d.ckptEvery <= 0 || every < d.ckptEvery
	if tightened {
		d.ckptEvery = every
	}
	d.mu.Unlock()
	if tightened {
		select {
		case d.retime <- struct{}{}:
		default: // a re-arm is already pending; it will read the new cadence
		}
	}
}

// gatedTransition wraps a scheduler transition so its firing holds the
// engine's consistency gate in read mode: checkpoints (write mode) see
// either all or none of each firing's effects.
type gatedTransition struct {
	scheduler.Transition
	gate *sync.RWMutex
}

func (g gatedTransition) Fire() error {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.Transition.Fire()
}

// addTransition registers a transition, gated on a durable engine, and
// returns its scheduler handle so callers can wire targeted wake-ups.
func (e *Engine) addTransition(t scheduler.Transition, priority int) *scheduler.Handle {
	if e.dur != nil {
		t = gatedTransition{Transition: t, gate: &e.gate}
	}
	return e.sched.Register(t, priority)
}

// basketImage is one basket's captured content plus shared-reader marks
// (relative to the content start).
type basketImage struct {
	Cols  []*vector.Vector
	Marks map[string]int64
}

func captureBasket(b *basket.Basket) basketImage {
	cols, marks := b.CaptureState()
	return basketImage{Cols: cols, Marks: marks}
}

func restoreBasket(b *basket.Basket, img basketImage) error {
	return b.RestoreState(img.Cols, img.Marks)
}

// ckptStream is one stream's captured state: the arrival counter, the
// primary basket, and the shard baskets of a partitioned stream.
// Separate-strategy replicas are captured under their owning query.
type ckptStream struct {
	Ingested int64
	Primary  basketImage
	Shards   []basketImage
}

// ckptQuery is one durable continuous query's captured state, in the
// order the installed topology lists its places and transitions. Baskets
// is deliberately not the name an earlier layout used for its
// basket-or-tail union ("Places"): gob drops fields it does not know, so
// such an image decodes to no baskets here and restoreState refuses it
// instead of restoring empty lane sinks.
type ckptQuery struct {
	Delivered int64 // emitter's cumulative delivery count
	Baskets   []basketImage
	Facts     []*factory.State
	Merge     *partition.MergeState
	Routed    *routedImage
}

// ckptImage is a full checkpoint: everything needed to restart the
// engine at WAL sequence WALSeq.
type ckptImage struct {
	WALSeq  int64
	Clean   bool // written by Stop after the scheduler quiesced
	DDL     []string
	Tables  map[string][]*vector.Vector
	Streams map[string]ckptStream
	Queries map[string]ckptQuery // durable queries only, keyed lower-cased
}

// encodeImage serializes an image: gob is the envelope for the structs,
// maps and counters; every column inside is the vector codec's bytes,
// which gob reaches through Vector.MarshalBinary.
func encodeImage(img *ckptImage) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(img)
	return buf.Bytes(), err
}

func decodeImage(payload []byte) (*ckptImage, error) {
	img := &ckptImage{}
	return img, gob.NewDecoder(bytes.NewReader(payload)).Decode(img)
}

// captureImage builds the checkpoint cut. Caller holds e.gate (write).
func (e *Engine) captureImage(clean bool) *ckptImage {
	d := e.dur
	img := &ckptImage{
		WALSeq:  d.wal.LastSeq(),
		Clean:   clean,
		Tables:  map[string][]*vector.Vector{},
		Streams: map[string]ckptStream{},
		Queries: map[string]ckptQuery{},
	}
	d.mu.Lock()
	img.DDL = append([]string(nil), d.ddl...)
	d.mu.Unlock()

	e.mu.Lock()
	tables := make(map[string]*storage.Table, len(e.tables))
	for k, t := range e.tables {
		tables[k] = t
	}
	streams := make(map[string]*stream, len(e.streams))
	ingested := make(map[string]int64, len(e.streams))
	for k, s := range e.streams {
		streams[k], ingested[k] = s, s.ingested
	}
	e.mu.Unlock()

	for name, tbl := range tables {
		img.Tables[name] = tbl.Snapshot().CloneColumns()
	}
	for name, s := range streams {
		cs := ckptStream{Ingested: ingested[name], Primary: captureBasket(s.primary)}
		for _, sh := range s.shards {
			cs.Shards = append(cs.Shards, captureBasket(sh))
		}
		img.Streams[name] = cs
	}
	for _, q := range e.Queries() {
		if q.durable {
			img.Queries[strings.ToLower(q.Name)] = q.captureState()
		}
	}
	return img
}

// restoreImage loads a checkpoint image into a freshly journal-replayed
// engine. Any shape mismatch between the image and the rebuilt catalog
// is reported as ErrCheckpointMismatch.
func (e *Engine) restoreImage(img *ckptImage) error {
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrCheckpointMismatch, fmt.Sprintf(format, args...))
	}
	for name, cols := range img.Tables {
		e.mu.Lock()
		tbl := e.tables[name]
		e.mu.Unlock()
		if tbl == nil {
			return mismatch("table %q in image but not in journal", name)
		}
		if len(cols) > 0 && cols[0].Len() > 0 {
			if err := tbl.AppendBatch(cols); err != nil {
				return mismatch("table %q: %v", name, err)
			}
		}
	}
	for name, cs := range img.Streams {
		s, err := e.lookupStream(name)
		if err != nil {
			return mismatch("stream %q in image but not in journal", name)
		}
		e.mu.Lock()
		s.ingested = cs.Ingested
		e.mu.Unlock()
		if err := restoreBasket(s.primary, cs.Primary); err != nil {
			return mismatch("stream %q: %v", name, err)
		}
		if len(cs.Shards) != len(s.shards) {
			return mismatch("stream %q has %d shards, image has %d", name, len(s.shards), len(cs.Shards))
		}
		for i, sh := range cs.Shards {
			if err := restoreBasket(s.shards[i], sh); err != nil {
				return mismatch("stream %q shard %d: %v", name, i, err)
			}
		}
	}
	for name, cq := range img.Queries {
		q, err := e.Query(name)
		if err != nil {
			return mismatch("query %q in image but not in journal", name)
		}
		if err := q.restoreState(&cq); err != nil {
			return mismatch("query %q: %v", name, err)
		}
	}
	return nil
}

// captureState walks the installed topology: every query-owned place,
// every lane factory, the merge's window buckets, the routed frontier.
func (q *Query) captureState() ckptQuery {
	var st ckptQuery
	if q.sub != nil {
		st.Delivered = q.sub.em.Delivered()
	}
	for _, b := range q.places {
		st.Baskets = append(st.Baskets, captureBasket(b))
	}
	for _, f := range q.facts {
		st.Facts = append(st.Facts, f.CaptureState())
	}
	if q.merge != nil {
		st.Merge = q.merge.Snapshot()
	}
	if q.routed != nil {
		img := q.routed.CaptureState()
		st.Routed = &img
	}
	return st
}

// restoreState is captureState's inverse over the same walk; an image
// taken from a differently shaped topology is an error.
func (q *Query) restoreState(st *ckptQuery) error {
	if len(st.Baskets) != len(q.places) {
		return fmt.Errorf("%d places, image has %d", len(q.places), len(st.Baskets))
	}
	for i, img := range st.Baskets {
		if err := restoreBasket(q.places[i], img); err != nil {
			return err
		}
	}
	if len(st.Facts) != len(q.facts) {
		return fmt.Errorf("%d factories, image has %d", len(q.facts), len(st.Facts))
	}
	for i, fs := range st.Facts {
		if fs == nil {
			continue
		}
		if err := q.facts[i].RestoreState(fs); err != nil {
			return err
		}
	}
	if (st.Merge != nil) != (q.merge != nil) || (st.Routed != nil) != (q.routed != nil) {
		return fmt.Errorf("image and query disagree on merge or routed state")
	}
	if q.merge != nil {
		if err := q.merge.Restore(st.Merge); err != nil {
			return err
		}
	}
	if q.routed != nil {
		return q.routed.RestoreState(*st.Routed)
	}
	return nil
}

// Checkpoint captures a consistent snapshot of all durable state,
// installs it atomically, and prunes the WAL prefix it covers. The
// background ticker calls this on the configured cadence; explicit
// calls are safe any time the engine is not stopped.
func (e *Engine) Checkpoint(ctx context.Context) error {
	if e.dur == nil {
		return ErrNotDurable
	}
	if err := e.guard(ctx); err != nil {
		return err
	}
	return e.checkpoint(false)
}

func (e *Engine) checkpoint(clean bool) error {
	d := e.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()
	defer func() {
		e.obs.checkpoints.Inc()
		e.obs.checkpointNS.Observe(time.Since(start).Nanoseconds())
	}()

	e.gate.Lock()
	img := e.captureImage(clean)
	e.gate.Unlock()

	// Everything the image covers must be durable before the image
	// claims it: records <= WALSeq were appended before the capture.
	if err := d.wal.Sync(); err != nil {
		return err
	}
	payload, err := encodeImage(img)
	if err != nil {
		return err
	}
	if err := checkpoint.Write(d.ckptDir(), img.WALSeq, payload); err != nil {
		return err
	}
	d.mu.Lock()
	d.lastCkptSeq = img.WALSeq
	d.lastCkptTime = time.Now()
	d.mu.Unlock()
	if err := d.wal.Prune(img.WALSeq); err != nil {
		return err
	}
	return checkpoint.Prune(d.ckptDir(), keepCheckpoints)
}

// initDurability opens the WAL, loads the newest covered checkpoint,
// replays the DDL journal and the WAL tail, and arms delivery
// suppression — the whole crash-recovery path. Called by Open before
// the engine is visible to any other goroutine.
func (e *Engine) initDurability(cfg Config) error {
	w, err := wal.Open(filepath.Join(cfg.DataDir, walSubdir), wal.Options{
		SegmentBytes: cfg.WALSegmentBytes,
		OnSync: func(d time.Duration) {
			e.obs.walFsyncs.Inc()
			e.obs.walFsyncNS.Observe(d.Nanoseconds())
		},
	})
	if err != nil {
		return err
	}
	every := cfg.CheckpointInterval
	if every == 0 {
		every = defaultCheckpointInterval
	}
	e.dur = &durability{
		dir:       cfg.DataDir,
		wal:       w,
		ckptEvery: every,
		retime:    make(chan struct{}, 1),
		delivered: map[string]int64{},
	}
	if err := e.recoverDurable(); err != nil {
		_ = w.Close()
		e.dur = nil
		return err
	}
	return nil
}

// recoverDurable rebuilds engine state from the checkpoint + WAL tail.
func (e *Engine) recoverDurable() error {
	d := e.dur
	durable := d.wal.DurableSeq()
	seq, payload, err := checkpoint.Latest(d.ckptDir(), durable)
	if err != nil {
		return err
	}
	d.noWAL = true
	defer func() { d.noWAL = false; d.noJournal = false }()

	var img *ckptImage
	if payload != nil {
		if img, err = decodeImage(payload); err != nil {
			return fmt.Errorf("%w: checkpoint %d undecodable: %v", ErrCheckpointMismatch, seq, err)
		}
		// Rebuild the catalog from the journal, then load operator state.
		d.mu.Lock()
		d.ddl = append([]string(nil), img.DDL...)
		d.mu.Unlock()
		d.noJournal = true
		for _, stmt := range img.DDL {
			if _, err := e.Exec(context.Background(), stmt); err != nil {
				return fmt.Errorf("datacell: recovery: journal statement %q: %w", stmt, err)
			}
		}
		d.noJournal = false
		if err := e.restoreImage(img); err != nil {
			return err
		}
		d.mu.Lock()
		d.lastCkptSeq = img.WALSeq
		d.lastCkptTime = time.Now()
		d.mu.Unlock()
	}

	base := int64(0)
	if img != nil {
		base = img.WALSeq
	}
	frontiers := map[string]int64{}
	if img != nil && img.Clean && img.WALSeq == durable {
		// Clean shutdown: the final checkpoint covers the whole log.
		d.recoveredClean = true
	} else {
		n := int64(0)
		err := d.wal.Replay(base+1, func(_ int64, p []byte) error {
			rec, err := decodeRecord(p)
			if err != nil {
				return err
			}
			n++
			switch rec.Kind {
			case recStmt:
				if _, err := e.Exec(context.Background(), rec.Stmt); err != nil {
					return fmt.Errorf("datacell: recovery: replaying %q: %w", rec.Stmt, err)
				}
			case recIngest:
				s, err := e.lookupStream(rec.Stream)
				if err != nil {
					return fmt.Errorf("datacell: recovery: %w", err)
				}
				rows := 0
				if len(rec.Cols) > 0 {
					rows = rec.Cols[0].Len()
				}
				if err := e.fanout(s, rows, rec.Cols); err != nil {
					return fmt.Errorf("datacell: recovery: replaying ingest into %q: %w", rec.Stream, err)
				}
			case recFrontier:
				key := strings.ToLower(rec.Query)
				if rec.Count > frontiers[key] {
					frontiers[key] = rec.Count
				}
			default:
				return fmt.Errorf("%w: unknown record kind %q", ErrCorruptWAL, rec.Kind)
			}
			return nil
		})
		if err != nil {
			return err
		}
		d.recoveredRecords = n
	}

	// Arm exactly-once resumption: each durable query's emitter restarts
	// at the checkpointed delivery count and suppresses re-emission up to
	// the highest logged frontier.
	for _, q := range e.Queries() {
		if !q.durable || q.sub == nil {
			continue
		}
		key := strings.ToLower(q.Name)
		var d0 int64
		if img != nil {
			if cq, ok := img.Queries[key]; ok {
				d0 = cq.Delivered
			}
		}
		front := max(frontiers[key], d0)
		q.sub.em.SetDelivered(d0)
		q.sub.em.SetSuppress(front - d0)
		d.delivered[key] = front
	}
	return nil
}

// checkpointLoop is the background checkpointer, launched by Start and
// stopped with the flush ticker. The cadence is re-read every round, and
// a query's checkpoint_interval option tightening it after Start re-arms
// the round in progress, so the first checkpoint under the new cadence
// lands one new interval after the registration, not one old one.
func (e *Engine) checkpointLoop(stop chan struct{}) {
	d := e.dur
	for {
		d.mu.Lock()
		every := d.ckptEvery
		d.mu.Unlock()
		// A nil channel never fires: with the cadence disabled only Stop's
		// final checkpoint runs, until a query turns it on.
		var due <-chan time.Time
		if every > 0 {
			due = time.After(every)
		}
		select {
		case <-stop:
			return
		case <-d.retime:
		case <-due:
			_ = e.checkpoint(false)
		}
	}
}

// EngineStats reports the engine's durability posture and the
// scheduler's activity counters.
type EngineStats struct {
	// Scheduler snapshots the execution core: per-transition fired /
	// claim-miss / coalesced-wake counters and per-worker busy/idle
	// time. Populated on every engine, durable or not.
	Scheduler scheduler.Stats
	// Durable reports whether the engine was opened with a DataDir.
	Durable bool
	// WALSegments and WALBytes size the live log; WALLastSeq is the last
	// appended record.
	WALSegments int
	WALBytes    int64
	WALLastSeq  int64
	// CheckpointSeq is the WAL sequence the newest checkpoint covers;
	// LastCheckpoint is when it was written (zero before the first).
	CheckpointSeq  int64
	LastCheckpoint time.Time
	// RecoveredRecords counts WAL records replayed by the last Open;
	// CleanStart reports that the replay was skipped because the final
	// clean-shutdown checkpoint covered the whole log.
	RecoveredRecords int64
	CleanStart       bool
}

// durSnapshot is one consistent cut through the durability state: the
// WAL's physical stats and the checkpoint bookkeeping are captured under
// a single d.mu hold, so no reader can pair a fresh log sequence with a
// stale checkpoint sequence (or vice versa). Every read-side consumer —
// Engine.Stats, SHOW QUERIES, Query.Checkpoint, the metrics collectors —
// goes through this one accessor.
type durSnapshot struct {
	durable          bool
	wal              wal.Stats
	ckptSeq          int64
	ckptTime         time.Time
	recoveredRecords int64
	recoveredClean   bool
}

// snapshot captures a consistent durability cut. Safe on a nil receiver
// (non-durable engine): all fields stay zero.
func (d *durability) snapshot() durSnapshot {
	if d == nil {
		return durSnapshot{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Lock order d.mu → wal's internal mutex; the WAL never calls back
	// into durability, so the order cannot invert.
	return durSnapshot{
		durable:          true,
		wal:              d.wal.Stats(),
		ckptSeq:          d.lastCkptSeq,
		ckptTime:         d.lastCkptTime,
		recoveredRecords: d.recoveredRecords,
		recoveredClean:   d.recoveredClean,
	}
}

// replayLag is the number of WAL records past the snapshot's checkpoint.
func (s durSnapshot) replayLag() int64 {
	return max(s.wal.LastSeq-s.ckptSeq, 0)
}

// Stats returns the engine statistics. The durability fields are all
// zero on a non-durable engine.
func (e *Engine) Stats() EngineStats {
	snap := e.dur.snapshot()
	return EngineStats{
		Scheduler:        e.sched.Stats(),
		Durable:          snap.durable,
		WALSegments:      snap.wal.Segments,
		WALBytes:         snap.wal.Bytes,
		WALLastSeq:       snap.wal.LastSeq,
		CheckpointSeq:    snap.ckptSeq,
		LastCheckpoint:   snap.ckptTime,
		RecoveredRecords: snap.recoveredRecords,
		CleanStart:       snap.recoveredClean,
	}
}
