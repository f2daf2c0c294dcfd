package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	datacell "repro"
	"repro/internal/adapters"
	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/route"
	"repro/internal/scheduler"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
	"repro/internal/wal"
	"repro/internal/window"
)

// Source A of the per-layer metrics: the bench links the engine's
// packages, replays a workload's own generated batches (flushRows rows, as
// ServeIngest cuts them) and wraps each public call in a span. Every
// number here is the cost of one layer called alone; none of it happens
// inside the daemon.

// replayBatches is how many batches a probe replays: enough for stable
// per-tuple means, few enough that all probes finish in a few seconds.
const replayBatches = 512

// layerData is one workload's input, decoded once for the probes.
type layerData struct {
	w      *workload
	schema *catalog.Schema // user columns of the stream, no ts
	text   []byte          // the batches as sent on the wire
	lines  [][]string
	rows   [][][]vector.Value
	cols   [][]*vector.Vector
	tuples int
	// outRows are the result rows the reference expects for the replay,
	// outSchema names their columns c0..cN.
	outRows   [][]vector.Value
	outSchema *catalog.Schema
}

// openEngine starts an in-process engine with two workers and runs stmts.
func openEngine(ctx context.Context, dataDir string, stmts ...string) (*datacell.Engine, error) {
	eng, err := datacell.Open(ctx, datacell.Config{Workers: 2, DataDir: dataDir, CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	for _, s := range stmts {
		if _, err := eng.Exec(ctx, s); err != nil {
			_ = eng.Stop(ctx) // the Exec error is the one to report
			return nil, fmt.Errorf("%s: %w", s, err)
		}
	}
	if err := eng.Start(ctx); err != nil {
		_ = eng.Stop(ctx)
		return nil, err
	}
	return eng, nil
}

// loadLayerData generates replayBatches batches of w from seed and decodes
// them against the stream's schema.
func loadLayerData(ctx context.Context, w *workload, seed uint64) (*layerData, error) {
	eng, err := openEngine(ctx, "", w.basketDDL)
	if err != nil {
		return nil, err
	}
	b, err := eng.Stream(w.stream)
	if err == nil {
		err = eng.Stop(ctx)
	}
	if err != nil {
		return nil, err
	}
	d := &layerData{w: w, tuples: replayBatches * flushRows}
	d.schema = &catalog.Schema{Columns: b.Schema().Columns[:b.UserWidth()]}
	in := encodePhase(w.gen(), newRNG(seed), 0, d.tuples, 0)
	d.text = in.data

	ref := w.ref()
	var group []row
	all := strings.Split(strings.TrimSuffix(string(in.data), "\n"), "\n")
	for i := 0; i < len(all); i += flushRows {
		lines := all[i : i+flushRows]
		rows := make([][]vector.Value, len(lines))
		cols := make([]*vector.Vector, d.schema.Len())
		for c := range cols {
			cols[c] = vector.NewWithCap(d.schema.Columns[c].Type, len(lines))
		}
		for j, ln := range lines {
			vals, err := adapters.ParseTuple(d.schema, ln)
			if err != nil {
				return nil, err
			}
			rows[j] = vals
			for c, v := range vals {
				cols[c].AppendValue(v)
			}
			tuple, err := parseRow([]byte(ln), w.inKinds)
			if err != nil {
				return nil, err
			}
			group = ref.feed(tuple, group[:0])
			for _, r := range group {
				out := make([]vector.Value, len(w.outKinds))
				for c, k := range w.outKinds {
					if k == kFloat {
						out[c] = vector.NewFloat(math.Float64frombits(uint64(r[c])))
					} else {
						out[c] = vector.NewInt(r[c])
					}
				}
				d.outRows = append(d.outRows, out)
			}
		}
		d.lines = append(d.lines, lines)
		d.rows = append(d.rows, rows)
		d.cols = append(d.cols, cols)
	}
	outCols := make([]catalog.Column, len(w.outKinds))
	for c, k := range w.outKinds {
		t := vector.Int64
		if k == kFloat {
			t = vector.Float64
		}
		outCols[c] = catalog.Column{Name: fmt.Sprintf("c%d", c), Type: t}
	}
	d.outSchema = catalog.NewSchema(outCols...)
	return d, nil
}

// prober runs the source-A probes. The probes of single packages replay
// the workload that exercises the package (wire_filter for adapters, server
// and exec filters, fanout_1k for route and registration, keyed_window for
// window, partition and grouped exec) whatever workload is being traced, so
// one prober measures them once and every workload of the invocation
// reuses the values; only the in-process end-to-end figure and the ledger
// replay the traced workload itself.
type prober struct {
	ctx  context.Context
	seed uint64
	dir  string // scratch space for WAL and checkpoint files
	data map[string]*layerData
	t    *tracer            // spans of the workload-independent probes
	out  map[string]float64 // their metrics; nil until they have run
}

func newProber(ctx context.Context, seed uint64) (*prober, error) {
	dir, err := os.MkdirTemp(outDir, "layers-")
	if err != nil {
		return nil, err
	}
	return &prober{ctx: ctx, seed: seed, dir: dir, data: map[string]*layerData{}, t: newTracer()}, nil
}

func (p *prober) close() { _ = os.RemoveAll(p.dir) } // best effort; bench/out is scratch space

// dataOf returns (loading once) the replay data of the named workload.
func (p *prober) dataOf(name string) (*layerData, error) {
	if d, ok := p.data[name]; ok {
		return d, nil
	}
	d, err := loadLayerData(p.ctx, findWorkload(name), p.seed)
	if err != nil {
		return nil, fmt.Errorf("replay data of %s: %w", name, err)
	}
	p.data[name] = d
	return d, nil
}

// perSpan reports total duration of the spans called name since mark,
// divided by units.
func (p *prober) perSpan(name string, mark int, units int) float64 {
	return float64(p.t.total(name, mark)) / float64(units)
}

// independent runs, the first time it is called, the probes that do not
// depend on the traced workload, and writes their spans.
func (p *prober) independent() error {
	if p.out != nil {
		return nil
	}
	p.out = map[string]float64{}
	for _, probe := range []func() error{
		p.adapters, p.emit, p.ingest, p.serveIngest, p.serveResults, p.register,
		p.scheduler, p.exec, p.route, p.basket, p.wal, p.checkpoint, p.window, p.partition,
	} {
		if err := probe(); err != nil {
			return err
		}
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	return p.t.writeFile(filepath.Join(outDir, "trace-layers.json"))
}

// forWorkload returns every source-A metric for a traced run of w: the
// independent ones, the in-process end-to-end figure of w and its ledger.
// The spans of w's replay go to trace-<workload>.json.
func (p *prober) forWorkload(w *workload) (map[string]float64, error) {
	if err := p.independent(); err != nil {
		return nil, err
	}
	out := maps.Clone(p.out)
	t := newTracer()
	ns, err := p.inproc(w, t)
	if err != nil {
		return nil, err
	}
	out["datacell.inproc_ns_per_tuple"] = ns
	out["ledger.sum_over_e2e"] = p.ledger(w, out)
	return out, t.writeFile(filepath.Join(outDir, "trace-"+w.name+".json"))
}

// adapters times ParseTuple over wire_filter's lines and FormatTuple over
// the rows that pass.
func (p *prober) adapters() error {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	mark, m0 := p.t.mark(), mallocs()
	for b, lines := range d.lines {
		err := p.t.time(b, "adapters.ParseTuple", -1, func() error {
			for _, ln := range lines {
				if _, err := adapters.ParseTuple(d.schema, ln); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	m1 := mallocs()
	p.out["adapters.parse_ns_per_tuple"] = p.perSpan("adapters.ParseTuple", mark, d.tuples)
	p.out["adapters.parse_allocs_per_tuple"] = float64(m1-m0) / float64(d.tuples)

	mark, m0 = p.t.mark(), mallocs()
	sink := 0
	for b, i := 0, 0; i < len(d.outRows); b, i = b+1, i+flushRows {
		chunk := d.outRows[i:min(i+flushRows, len(d.outRows))]
		_ = p.t.time(b, "adapters.FormatTuple", -1, func() error {
			for _, r := range chunk {
				sink += len(adapters.FormatTuple(r))
			}
			return nil
		})
	}
	m1 = mallocs()
	if sink == 0 {
		return fmt.Errorf("adapters.FormatTuple produced nothing")
	}
	p.out["adapters.format_ns_per_row"] = p.perSpan("adapters.FormatTuple", mark, len(d.outRows))
	p.out["adapters.format_allocs_per_row"] = float64(m1-m0) / float64(len(d.outRows))
	return nil
}

// emit times ChannelEmitter.Fire handing result batches to a reader that
// drains the channel at once.
func (p *prober) emit() error {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	src := basket.New("emit_src", d.outSchema, metrics.WallClock{})
	em := adapters.NewChannelEmitter("emit", src, 1, adapters.BackpressureBlock)
	defer em.Close()
	mark := p.t.mark()
	for b, i := 0, 0; i < len(d.outRows); b, i = b+1, i+flushRows {
		if err := src.AppendRows(d.outRows[i:min(i+flushRows, len(d.outRows))]); err != nil {
			return err
		}
		if err := p.t.time(b, "ChannelEmitter.Fire", -1, em.Fire); err != nil {
			return err
		}
		<-em.C()
	}
	p.out["adapters.emit_ns_per_row"] = p.perSpan("ChannelEmitter.Fire", mark, len(d.outRows))
	return nil
}

// ingest times Engine.Ingest against Engine.IngestColumns on a stream no
// query reads: the difference is the row→column transpose.
func (p *prober) ingest() error {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	eng, err := openEngine(p.ctx, "", d.w.basketDDL)
	if err != nil {
		return err
	}
	mark, m0 := p.t.mark(), mallocs()
	for b, rows := range d.rows {
		if err := p.t.time(b, "Engine.Ingest", -1, func() error { return eng.Ingest(p.ctx, d.w.stream, rows) }); err != nil {
			return err
		}
	}
	m1 := mallocs()
	if err := eng.Stop(p.ctx); err != nil {
		return err
	}
	p.out["datacell.ingest_rows_ns_per_tuple"] = p.perSpan("Engine.Ingest", mark, d.tuples)
	p.out["datacell.ingest_allocs_per_tuple"] = float64(m1-m0) / float64(d.tuples)

	if eng, err = openEngine(p.ctx, "", d.w.basketDDL); err != nil {
		return err
	}
	mark = p.t.mark()
	for b, cols := range d.cols {
		if err := p.t.time(b, "Engine.IngestColumns", -1, func() error { return eng.IngestColumns(p.ctx, d.w.stream, cols) }); err != nil {
			return err
		}
	}
	p.out["datacell.ingest_cols_ns_per_tuple"] = p.perSpan("Engine.IngestColumns", mark, d.tuples)
	return eng.Stop(p.ctx)
}

// memConn is an in-memory connection: reads come from r, writes are
// counted by line and dropped.
type memConn struct {
	r      io.Reader
	lines  atomic.Int64
	target int64
	doneNS atomic.Int64 // when the target-th line was written, ns since base
	base   time.Time
	done   chan struct{}
}

func (c *memConn) Read(b []byte) (int, error) { return c.r.Read(b) }
func (c *memConn) Close() error               { return nil }
func (c *memConn) Write(b []byte) (int, error) {
	n := int64(bytes.Count(b, []byte{'\n'}))
	if before := c.lines.Add(n) - n; before < c.target && before+n >= c.target {
		c.doneNS.Store(int64(time.Since(c.base)))
		close(c.done)
	}
	return len(b), nil
}

// serveIngest times Server.ServeIngest reading wire_filter's bytes from
// memory into a stream no query reads.
func (p *prober) serveIngest() error {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	eng, err := openEngine(p.ctx, "", d.w.basketDDL)
	if err != nil {
		return err
	}
	srv := server.New(eng)
	conn := &memConn{r: io.MultiReader(strings.NewReader(d.w.stream+"\n"), bytes.NewReader(d.text))}
	mark := p.t.mark()
	_ = p.t.time(-1, "Server.ServeIngest", -1, func() error { srv.ServeIngest(conn); return nil })
	if got := eng.Ingested(d.w.stream); got != int64(d.tuples) {
		_ = eng.Stop(p.ctx)
		return fmt.Errorf("Server.ServeIngest ingested %d of %d tuples", got, d.tuples)
	}
	p.out["server.ingest_ns_per_tuple"] = p.perSpan("Server.ServeIngest", mark, d.tuples)
	return eng.Stop(p.ctx)
}

// serveResults times Server.ServeResults draining wire_filter's results,
// all queued in the subscription before it starts, into a discarding
// connection.
func (p *prober) serveResults() (err error) {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	// The subscription must hold every result batch: once the engine idles
	// nothing would wake a blocked emitter again but the 5 ms flush tick.
	stmts := d.w.ddl(fmt.Sprintf("depth = %d", 2*replayBatches))
	eng, err := openEngine(p.ctx, "", stmts[0], stmts[len(stmts)-1])
	if err != nil {
		return err
	}
	var served chan struct{} // closed when ServeResults has returned
	defer func() {
		// Stop closes the subscription, which is what ends ServeResults.
		stopErr := eng.Stop(p.ctx)
		if served != nil {
			<-served
		}
		if err == nil {
			err = stopErr
		}
	}()
	for _, cols := range d.cols {
		if err := eng.IngestColumns(p.ctx, d.w.stream, cols); err != nil {
			return err
		}
	}
	q, err := eng.Query(d.w.query)
	if err != nil {
		return err
	}
	want := int64(len(d.outRows))
	for deadline := time.Now().Add(10 * time.Second); q.Stats().TuplesOut < want; {
		if time.Now().After(deadline) {
			return fmt.Errorf("query %s produced %d of %d rows", d.w.query, q.Stats().TuplesOut, want)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the emitter move the last batch into the channel
	srv := server.New(eng)
	conn := &memConn{r: strings.NewReader(d.w.query + "\n"), target: want, base: time.Now(), done: make(chan struct{})}
	id := p.t.begin(-1, "Server.ServeResults", -1)
	served = make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeResults(conn)
	}()
	select {
	case <-conn.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("Server.ServeResults wrote %d of %d rows", conn.lines.Load(), want)
	}
	p.t.end(id)
	p.out["server.results_ns_per_row"] = float64(conn.doneNS.Load()) / float64(want)
	return nil
}

// register times Engine.Exec of fanout_1k's routed CREATE CONTINUOUS QUERY
// statements, the registration cost that reaches setup_s.
func (p *prober) register() error {
	w := findWorkload("fanout_1k")
	stmts := w.ddl()
	eng, err := openEngine(p.ctx, "", stmts[0])
	if err != nil {
		return err
	}
	defer eng.Stop(p.ctx)
	mark := p.t.mark()
	for i, s := range stmts[1:] {
		err := p.t.time(i, "Engine.Exec(register)", -1, func() error { _, err := eng.Exec(p.ctx, s); return err })
		if err != nil {
			return err
		}
	}
	p.out["datacell.register_ms_per_query"] = p.perSpan("Engine.Exec(register)", mark, len(stmts)-1) / 1e6
	return nil
}

// idleTransition fires as a no-op each time it is armed and woken.
type idleTransition struct {
	armed atomic.Bool
	fired chan struct{}
}

func (t *idleTransition) Name() string { return "bench-idle" }
func (t *idleTransition) Ready() bool  { return t.armed.Load() }
func (t *idleTransition) Fire() error {
	t.armed.Store(false)
	t.fired <- struct{}{}
	return nil
}

// scheduler times Handle.Wake until the woken no-op transition has fired
// on a two-worker pool.
func (p *prober) scheduler() error {
	const wakes = 20000
	s := scheduler.New()
	tr := &idleTransition{fired: make(chan struct{}, 1)}
	h := s.Register(tr, 0)
	s.Start(2)
	defer s.Stop()
	mark := p.t.mark()
	for i := 0; i < wakes; i++ {
		tr.armed.Store(true)
		id := p.t.begin(i, "Handle.Wake→Fire", -1)
		h.Wake()
		<-tr.fired
		p.t.end(id)
	}
	p.out["scheduler.wake_fire_ns"] = p.perSpan("Handle.Wake→Fire", mark, wakes)
	return nil
}

// planOf compiles w's subscribed SELECT against a catalog that holds a
// basket of the stream, filled with the first n batches of d.
func planOf(d *layerData, batches int) (plan.Node, *catalog.Catalog, *basket.Basket, error) {
	cat := catalog.New()
	b := basket.New(d.w.stream, d.schema, metrics.WallClock{})
	if err := cat.Register(d.w.stream, catalog.KindBasket, b); err != nil {
		return nil, nil, nil, err
	}
	for _, cols := range d.cols[:batches] {
		if err := b.Append(cols); err != nil {
			return nil, nil, nil, err
		}
	}
	sel, err := sql.ParseSelect(d.w.selectSQL)
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := plan.Build(sel, cat)
	return pl, cat, b, err
}

// exec times exec.Run of wire_filter's filter plan over 128- and 4096-row
// views and of keyed_window's grouped aggregate over 1024-row views.
func (p *prober) exec() error {
	const runs = 2000
	run := func(name string, d *layerData, rows int) (allocs float64, err error) {
		pl, cat, b, err := planOf(d, rows/flushRows)
		if err != nil {
			return 0, err
		}
		view := b.Snapshot()
		if view.NumRows() != rows {
			return 0, fmt.Errorf("%s: view holds %d rows, want %d", name, view.NumRows(), rows)
		}
		n := runs * flushRows / rows // same tuple count at every view size
		mark, m0 := p.t.mark(), mallocs()
		for i := 0; i < n; i++ {
			ctx := exec.NewContext(cat)
			ctx.Overrides[strings.ToLower(d.w.stream)] = view
			err := p.t.time(i, name, -1, func() error { _, err := exec.Run(pl, ctx); return err })
			if err != nil {
				return 0, err
			}
		}
		m1 := mallocs()
		p.out[name] = p.perSpan(name, mark, n*rows)
		return float64(m1-m0) / float64(n), nil
	}
	filter, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	allocs, err := run("exec.filter_ns_per_tuple_b128", filter, 128)
	if err != nil {
		return err
	}
	p.out["exec.allocs_per_run"] = allocs
	if _, err := run("exec.filter_ns_per_tuple_b4096", filter, 4096); err != nil {
		return err
	}
	agg, err := p.dataOf("keyed_window")
	if err != nil {
		return err
	}
	_, err = run("exec.agg_ns_per_tuple", agg, 1024)
	return err
}

// routingPredicate compiles one routed SELECT and returns its filter in
// stream-schema column space, the form the predicate index is built from.
func routingPredicate(selectSQL string, cat *catalog.Catalog) (expr.Expr, error) {
	sel, err := sql.ParseSelect(selectSQL)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(sel, cat)
	if err != nil {
		return nil, err
	}
	var preds []expr.Expr
	var scan *plan.Scan
	plan.Walk(pl, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Select:
			preds = append(preds, x.Pred)
		case *plan.Scan:
			scan = x
		}
	})
	if scan == nil || len(preds) == 0 {
		return nil, fmt.Errorf("%s: no filter over a scan", selectSQL)
	}
	mapping := make(map[int]int, len(scan.Cols))
	for i, src := range scan.Cols {
		mapping[i] = src
	}
	return expr.Remap(expr.JoinConjuncts(preds), mapping), nil
}

// route times route.Index.Match with fanout_1k's 1000 predicates.
func (p *prober) route() error {
	d, err := p.dataOf("fanout_1k")
	if err != nil {
		return err
	}
	cat := catalog.New()
	if err := cat.Register(d.w.stream, catalog.KindBasket, basket.New(d.w.stream, d.schema, metrics.WallClock{})); err != nil {
		return err
	}
	ix := route.NewIndex()
	for i, sel := range append(fanoutSelects(), d.w.selectSQL) {
		pred, err := routingPredicate(sel, cat)
		if err != nil {
			return err
		}
		ix.Add(uint64(i), route.Analyze(pred), i)
	}
	ix.FlushIfDirty()
	var hits []any
	matched := 0
	mark := p.t.mark()
	for b, cols := range d.cols {
		view := bat.ViewOf(cols...)
		_ = p.t.time(b, "route.Index.Match", -1, func() error { hits = ix.Match(view, hits[:0]); return nil })
		matched += len(hits)
	}
	if matched == 0 {
		return fmt.Errorf("route.Index.Match matched no query")
	}
	p.out["route.match_ns_per_batch"] = p.perSpan("route.Index.Match", mark, len(d.cols))
	return nil
}

// basket times Basket.Append and the consume sequence a firing performs.
func (p *prober) basket() error {
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	b := basket.New("probe", d.schema, metrics.WallClock{})
	mark := p.t.mark()
	for i, cols := range d.cols {
		if err := p.t.time(i, "Basket.Append", -1, func() error { return b.Append(cols) }); err != nil {
			return err
		}
		_ = p.t.time(i, "Basket.Lock+LockedSnapshot+LockedDropPrefix", -1, func() error {
			b.Lock()
			_, n := b.LockedSnapshot()
			b.LockedDropPrefix(n)
			b.Unlock()
			return nil
		})
	}
	p.out["basket.append_ns_per_tuple"] = p.perSpan("Basket.Append", mark, d.tuples)
	p.out["basket.consume_ns_per_tuple"] = p.perSpan("Basket.Lock+LockedSnapshot+LockedDropPrefix", mark, d.tuples)
	return nil
}

// wal measures the log's bytes per tuple and the duration of a checkpoint
// through a durable in-process engine, then times WAL.Append + Commit with
// payloads of that size.
func (p *prober) wal() error {
	const batches = 128
	d, err := p.dataOf("wire_filter")
	if err != nil {
		return err
	}
	eng, err := openEngine(p.ctx, filepath.Join(p.dir, "engine"), d.w.basketDDL)
	if err != nil {
		return err
	}
	before := eng.Stats().WALBytes
	for b, cols := range d.cols[:batches] {
		if err := p.t.time(b, "Engine.IngestColumns(durable)", -1, func() error { return eng.IngestColumns(p.ctx, d.w.stream, cols) }); err != nil {
			return err
		}
	}
	perTuple := float64(eng.Stats().WALBytes-before) / float64(batches*flushRows)
	p.out["wal.bytes_per_tuple"] = perTuple
	// Engine.Checkpoint with those batches resident in the stream, five
	// times with fresh input in between.
	var ckptMS []float64
	for i := 0; i < 5; i++ {
		id := p.t.begin(i, "Engine.Checkpoint", -1)
		err := eng.Checkpoint(p.ctx)
		p.t.end(id)
		if err == nil {
			err = eng.IngestColumns(p.ctx, d.w.stream, d.cols[batches+i])
		}
		if err != nil {
			_ = eng.Stop(p.ctx) // the first error is the one to report
			return err
		}
		ckptMS = append(ckptMS, float64(p.t.spans[id].EndNS-p.t.spans[id].StartNS)/1e6)
	}
	p.out["checkpoint.duration_p50_ms"] = medianFloat(ckptMS)
	if err := eng.Stop(p.ctx); err != nil {
		return err
	}

	log, err := wal.Open(filepath.Join(p.dir, "wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, int(perTuple*flushRows))
	mark := p.t.mark()
	for b := 0; b < batches; b++ {
		err := p.t.time(b, "WAL.Append+Commit", -1, func() error {
			seq, err := log.Append(payload)
			if err != nil {
				return err
			}
			return log.Commit(p.ctx, seq)
		})
		if err != nil {
			return err
		}
	}
	p.out["wal.append_commit_us_per_batch"] = p.perSpan("WAL.Append+Commit", mark, batches) / 1e3
	return nil
}

// checkpoint times checkpoint.Write of an 8 MB image.
func (p *prober) checkpoint() error {
	const size, writes = 8 << 20, 3
	payload := make([]byte, size)
	r := newRNG(p.seed)
	for i := 0; i+8 <= size; i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			payload[i+j] = byte(v >> (8 * j))
		}
	}
	dir := filepath.Join(p.dir, "checkpoint")
	mark := p.t.mark()
	for i := 0; i < writes; i++ {
		if err := p.t.time(i, "checkpoint.Write", -1, func() error { return checkpoint.Write(dir, int64(i+1), payload) }); err != nil {
			return err
		}
	}
	p.out["checkpoint.write_mb_per_s"] = float64(size*writes) / (1 << 20) / (float64(p.t.total("checkpoint.Write", mark)) / 1e9)
	return nil
}

// window times the incremental evaluator of keyed_window's aggregate:
// Summarize per 1024-tuple pane, Merge per window.
func (p *prober) window() error {
	d, err := p.dataOf("keyed_window")
	if err != nil {
		return err
	}
	const paneBatches = windowSize / flushRows
	pl, _, _, err := planOf(d, 0)
	if err != nil {
		return err
	}
	ev, ok := window.RecognizeIncremental(pl)
	if !ok {
		return fmt.Errorf("keyed_window's plan is not incrementally evaluable: %s", plan.Explain(pl))
	}
	panes := len(d.cols) / paneBatches
	mark := p.t.mark()
	for w := 0; w < panes; w++ {
		// A pane is what the window runner buffers: user columns plus ts.
		b := basket.New("pane", d.schema, metrics.WallClock{})
		for _, cols := range d.cols[w*paneBatches : (w+1)*paneBatches] {
			if err := b.Append(cols); err != nil {
				return err
			}
		}
		pane := &storage.Relation{Schema: b.Schema(), Cols: b.Snapshot().Columns()}
		var sum window.Summary
		err := p.t.time(w, "IncrementalAggEvaluator.Summarize", -1, func() (err error) { sum, err = ev.Summarize(pane); return err })
		if err != nil {
			return err
		}
		err = p.t.time(w, "IncrementalAggEvaluator.Merge", -1, func() error { _, err := ev.Merge([]window.Summary{sum}); return err })
		if err != nil {
			return err
		}
	}
	p.out["window.summarize_ns_per_tuple"] = p.perSpan("IncrementalAggEvaluator.Summarize", mark, panes*windowSize)
	p.out["window.merge_us_per_window"] = p.perSpan("IncrementalAggEvaluator.Merge", mark, panes) / 1e3
	return nil
}

// partition times Router.Split of keyed_window's batches into two shards.
func (p *prober) partition() error {
	d, err := p.dataOf("keyed_window")
	if err != nil {
		return err
	}
	r, err := partition.NewRouter(d.schema, partition.Spec{Shards: 2, By: "k"})
	if err != nil {
		return err
	}
	mark := p.t.mark()
	for b, cols := range d.cols {
		if err := p.t.time(b, "Router.Split", -1, func() error { _, err := r.Split(cols); return err }); err != nil {
			return err
		}
	}
	p.out["partition.split_ns_per_tuple"] = p.perSpan("Router.Split", mark, d.tuples)
	return nil
}

// inproc runs w's whole set-up in one process and times IngestColumns of
// every batch until Subscription.Recv has returned the last result row:
// the engine-only share of capacity, no sockets, no text. It returns ns
// per tuple.
func (p *prober) inproc(w *workload, t *tracer) (float64, error) {
	d, err := p.dataOf(w.name)
	if err != nil {
		return 0, err
	}
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(p.dir, "inproc")
	}
	eng, err := openEngine(p.ctx, dataDir, w.ddl()...)
	if err != nil {
		return 0, err
	}
	defer eng.Stop(p.ctx)
	q, err := eng.Query(w.query)
	if err != nil {
		return 0, err
	}
	sub := q.Subscription()
	want := len(d.outRows)
	recvCtx, cancel := context.WithTimeout(p.ctx, 60*time.Second)
	defer cancel()
	recvErr := make(chan error, 1)
	go func() {
		for got := 0; got < want; {
			rel, err := sub.Recv(recvCtx)
			if err != nil {
				recvErr <- fmt.Errorf("received %d of %d result rows: %w", got, want, err)
				return
			}
			got += rel.NumRows()
		}
		recvErr <- nil
	}()
	root := t.begin(-1, "inproc:"+w.name, -1)
	for b, cols := range d.cols {
		if err := t.time(b, "Engine.IngestColumns", root, func() error { return eng.IngestColumns(p.ctx, w.stream, cols) }); err != nil {
			return 0, err
		}
	}
	err = <-recvErr
	t.end(root)
	if err != nil {
		return 0, fmt.Errorf("in-process %s: %w", w.name, err)
	}
	sp := t.spans[root]
	return float64(sp.EndNS-sp.StartNS) / float64(d.tuples), nil
}

// ledger adds up the isolated per-tuple costs of the hops w's tuples take
// inside the engine and divides by the in-process figure. ROADMAP aim 1
// wants the hops to sum to the whole; this reports how far they do.
func (p *prober) ledger(w *workload, o map[string]float64) float64 {
	perBatch := func(v float64) float64 { return v / flushRows }
	pass := float64(len(p.data[w.name].outRows)) / float64(p.data[w.name].tuples)
	sum := o["basket.append_ns_per_tuple"] + o["basket.consume_ns_per_tuple"] + perBatch(o["scheduler.wake_fire_ns"]) +
		pass*(o["basket.append_ns_per_tuple"]+o["basket.consume_ns_per_tuple"]+o["adapters.emit_ns_per_row"])
	switch w.name {
	case "wire_filter":
		sum += o["exec.filter_ns_per_tuple_b128"]
	case "durable_filter":
		sum += o["exec.filter_ns_per_tuple_b128"] + perBatch(o["wal.append_commit_us_per_batch"]*1e3)
	case "fanout_1k":
		sum += o["exec.filter_ns_per_tuple_b128"] + perBatch(o["route.match_ns_per_batch"])
	case "keyed_window":
		sum += o["partition.split_ns_per_tuple"] + o["window.summarize_ns_per_tuple"] + o["window.merge_us_per_window"]*1e3/windowSize
	}
	return sum / o["datacell.inproc_ns_per_tuple"]
}
