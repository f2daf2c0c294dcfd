// Command hotpathbench runs one in-process scenario of the engine —
// `make bench-<scenario>` at full size, `make bench-<scenario>-smoke` in
// CI — and prints a JSON report: one section, named after the scenario,
// of result rows. Every scenario is a row of `table`, and every
// measurement in it goes through the one driver, `drive`. The
// socket-to-socket figures every performance claim cites are not here:
// they come from `go run ./bench` (see BENCHMARK.json).
//
// Scenarios:
//
//   - partitioned: one grouped continuous query over a hash-partitioned
//     stream, driven by the concurrent scheduler at several GOMAXPROCS
//     settings (-cpus) and shard counts — the multicore scaling the
//     partition subsystem buys, reported per (cpus, shards) pair.
//   - windowed: one event-time windowed GROUP BY (aligned with the
//     partition key) over the same sharded stream, with the input either
//     in timestamp order or 10% displaced within the declared lateness —
//     the cost of watermarked out-of-order window maintenance, flat vs
//     sharded.
//   - join: a stream-stream equi-join with a WITHIN band (symmetric hash
//     state, event-time expiry) and a stream-table enrichment join
//     (cached table-side hash), each flat vs co-partitioned/broadcast
//     across 4 shards.
//   - durability: the WAL tax — the same continuous filter with the
//     write-ahead log off vs on (group-committed ingest) — and
//     dirty-crash recovery time (Open + tail replay) vs log size.
//   - multiquery: N continuous filters over one stream — the shared
//     routed scan against the naive per-query replica-basket arrangement
//     at N = 1, 100, 10k — plus a batch-size sweep (128 / 4096 / 16384
//     rows) at 1000 matching queries, whose ns/tuple must not rise as
//     batches fill.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	datacell "repro"
	"repro/internal/vector"
)

// row is one measurement of any scenario. drive fills name, cpus, shards,
// tuples and the two rates; a scenario's after hook fills the rest of its
// shape. Pointer fields are counters a scenario reports even when zero.
type row struct {
	Name            string  `json:"name"`
	Mode            string  `json:"mode,omitempty"`     // join: stream_stream | stream_table; durability: wal_off | wal_on | recovery
	Strategy        string  `json:"strategy,omitempty"` // multiquery: routed | separate
	Workload        string  `json:"workload,omitempty"` // multiquery: mixed | nonmatch | match
	Queries         int     `json:"queries,omitempty"`
	BatchRows       int     `json:"batch_rows,omitempty"`
	Batches         int     `json:"batches,omitempty"`
	Cpus            int     `json:"cpus,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	DisorderPct     *int    `json:"disorder_pct,omitempty"`
	Tuples          int     `json:"tuples"`
	RegisterMs      float64 `json:"register_ms,omitempty"`
	TuplesPerSec    float64 `json:"tuples_per_sec,omitempty"`
	NsPerTuple      float64 `json:"ns_per_tuple,omitempty"`
	NsPerBatch      float64 `json:"ns_per_batch,omitempty"`
	LateTuples      *int64  `json:"late_tuples,omitempty"`
	Matches         *int64  `json:"matches,omitempty"`
	JoinState       *int64  `json:"join_state,omitempty"`
	Evictions       *int64  `json:"join_evictions,omitempty"`
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	ReplayedRecords int64   `json:"replayed_records,omitempty"`
	RowsOut         *int64  `json:"rows_out,omitempty"`
}

// rate is the part of a scenario's stderr line every pool-mode row shares.
func (r row) rate() string {
	return fmt.Sprintf("%12.0f tuples/s %8.1f ns/tuple", r.TuplesPerSec, r.NsPerTuple)
}

type query struct{ name, text string }

// scenario is everything drive needs for one measurement.
type scenario struct {
	name    string          // the row's name
	cpus    int             // GOMAXPROCS and scheduler pool size for the run; 0 leaves both to cfg
	cfg     datacell.Config // the rest of the engine configuration
	ddl     []string
	queries []query
	opts    []datacell.QueryOption
	shards  int // when > 1, every query must run as this many shard pipelines

	// The ingest: each of ingesters goroutines sends its share of tuples,
	// batchRows at a time, batch(i) to every stream in turn. batch runs
	// inside the timed loop; scenarios that measure routing and pipelines
	// rather than row construction hand out prebuilt batches.
	streams   []string
	tuples    int
	batchRows int
	batch     func(i int) []*vector.Vector
	ingesters int

	// drain selects the deterministic mode: no scheduler pool, no
	// subscriber — the ingester calls Engine.Drain after every batch, so
	// the measurement is pure pipeline cost, not wake-up latency. Otherwise
	// the engine is started, every query's subscription is drained by a
	// goroutine, and the clock stops when the first query has consumed
	// everything sent and its merge has caught up.
	drain bool

	// after runs on the still-running engine once the clock has stopped: it
	// checks the run, fills the scenario's own fields of the row, and
	// returns the row's stderr line ("" prints none).
	after func(m *measured) string
}

// measured is what drive hands to a scenario's after hook.
type measured struct {
	row
	eng                         *datacell.Engine
	qs                          []*datacell.Query
	opened, registered, elapsed time.Duration
}

func fatalIf(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// drive runs one scenario start to finish and returns its row.
func drive(sc scenario) row {
	ctx := context.Background()
	if sc.cpus > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sc.cpus))
		sc.cfg.Workers = sc.cpus
	}
	m := measured{row: row{Name: sc.name, Cpus: sc.cpus, Shards: sc.shards}}

	t0 := time.Now()
	eng, err := datacell.Open(ctx, sc.cfg)
	fatalIf(err)
	m.eng, m.opened = eng, time.Since(t0)
	for _, stmt := range sc.ddl {
		_, err := eng.Exec(ctx, stmt)
		fatalIf(err)
	}
	t0 = time.Now()
	for _, qd := range sc.queries {
		q, err := eng.RegisterContinuous(qd.name, qd.text, sc.opts...)
		fatalIf(err)
		if sc.shards > 1 && q.Shards() != sc.shards {
			log.Fatalf("%s: query %s fell back to %d shard(s), want %d", sc.name, qd.name, q.Shards(), sc.shards)
		}
		m.qs = append(m.qs, q)
	}
	m.registered = time.Since(t0)
	var subscribers sync.WaitGroup
	if !sc.drain {
		for _, q := range m.qs {
			subscribers.Add(1)
			go func(q *datacell.Query) {
				defer subscribers.Done()
				for range q.Subscription().C() {
				}
			}(q)
		}
		fatalIf(eng.Start(ctx))
	}

	batches := 0
	if sc.tuples > 0 {
		perRound := sc.ingesters * len(sc.streams) * sc.batchRows
		batches = (sc.tuples + perRound - 1) / perRound
	}
	sent := batches * sc.ingesters * len(sc.streams) * sc.batchRows
	start := time.Now()
	var ingesters sync.WaitGroup
	for w := 0; w < sc.ingesters; w++ {
		ingesters.Add(1)
		go func(w int) {
			defer ingesters.Done()
			for b := 0; b < batches; b++ {
				for _, stream := range sc.streams {
					fatalIf(eng.IngestColumns(ctx, stream, sc.batch(w+b)))
				}
				if sc.drain {
					eng.Drain()
				}
			}
		}(w)
	}
	ingesters.Wait()
	if !sc.drain {
		q := m.qs[0]
		deadline := time.Now().Add(2 * time.Minute)
		for q.Stats().TuplesIn < int64(sent) || q.MergeLag() > 0 {
			if time.Now().After(deadline) {
				log.Fatalf("%s stalled: %d of %d consumed, merge lag %d", sc.name, q.Stats().TuplesIn, sent, q.MergeLag())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	m.elapsed = time.Since(start)

	m.Tuples = sent
	if sent > 0 {
		m.TuplesPerSec = float64(sent) / m.elapsed.Seconds()
		m.NsPerTuple = float64(m.elapsed.Nanoseconds()) / float64(sent)
	}
	if line := sc.after(&m); line != "" {
		fmt.Fprintf(os.Stderr, "%-22s %s\n", sc.name, line)
	}
	fatalIf(eng.Stop(ctx))
	subscribers.Wait()
	return m.row
}

// poolRows is the batch size of every scheduler-pool scenario.
const poolRows = 4096

// poolOpts are the subscription options of every scheduler-pool scenario:
// a shallow channel that drops its oldest batch, so a slow subscriber
// goroutine never stalls the pipeline under measurement.
func poolOpts(more ...datacell.QueryOption) []datacell.QueryOption {
	return append(more, datacell.WithBackpressure(datacell.BackpressureDropOldest), datacell.WithSubscriptionDepth(4))
}

func partitionBy(shards int) string {
	return fmt.Sprintf(" WITH (partitions = %d, partition_by = k)", shards)
}

// keyedBatches prebuilds eight (k, v) batches — k strides over `keys`
// distinct values, spread across shards by hash; v counts rows modulo
// vmod — and returns the generator that cycles through them.
func keyedBatches(keys, vmod int) func(i int) []*vector.Vector {
	batches := make([][]*vector.Vector, 8)
	for b := range batches {
		k := vector.NewWithCap(vector.Int64, poolRows)
		v := vector.NewWithCap(vector.Int64, poolRows)
		for i := 0; i < poolRows; i++ {
			k.AppendInt(int64((b*poolRows + i*7) % keys))
			v.AppendInt(int64(i % vmod))
		}
		batches[b] = []*vector.Vector{k, v}
	}
	return func(i int) []*vector.Vector { return batches[i%len(batches)] }
}

// partitioned is single-query ingest-to-merge throughput of a grouped
// continuous query over a stream sharded `shards` ways. The query groups
// by the partition column, so shard pipelines aggregate independently and
// the merge stage concatenates — the partition-aligned fast path.
func partitioned(cpus, shards, tuples int) scenario {
	return scenario{
		name: "partitioned_throughput", cpus: cpus, shards: shards,
		ddl:     []string{"CREATE BASKET p (k INT, v INT)" + partitionBy(shards)},
		queries: []query{{"agg", "SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv FROM [SELECT * FROM p] AS x GROUP BY x.k"}},
		opts:    poolOpts(),
		streams: []string{"p"}, tuples: tuples, batchRows: poolRows, batch: keyedBatches(4096, poolRows), ingesters: 1,
		after: func(m *measured) string {
			return fmt.Sprintf("cpus=%d shards=%d %s", cpus, shards, m.rate())
		},
	}
}

// windowed is an event-time windowed GROUP BY aligned with the partition
// key (tumbling 4096-tick windows, lateness 512). disorderPct percent of
// the tuples are displaced backward in event time by up to half the
// lateness bound, so the window runners exercise the out-of-order
// insertion path without dropping anything as late.
func windowed(cpus, shards, disorderPct, tuples int) scenario {
	const lateness = 512
	kv := keyedBatches(1024, poolRows)
	rng := newSplitmix(99)
	et := int64(lateness) // start beyond the displacement range
	return scenario{
		name: "windowed_throughput", cpus: cpus, shards: shards,
		ddl:     []string{"CREATE BASKET w (k INT, v INT, et INT)" + partitionBy(shards)},
		queries: []query{{"winagg", "SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv FROM [SELECT * FROM w] AS x GROUP BY x.k WINDOW RANGE 4096 SLIDE 4096"}},
		opts:    poolOpts(datacell.WithEventTimeColumn("et"), datacell.WithLateness(lateness)),
		streams: []string{"w"}, tuples: tuples, batchRows: poolRows, ingesters: 1,
		// The event-time column is built per send because it must advance
		// monotonically for the whole run, one tick per tuple.
		batch: func(i int) []*vector.Vector {
			e := vector.NewWithCap(vector.Int64, poolRows)
			for j := 0; j < poolRows; j++ {
				ts := et
				if disorderPct > 0 && int(rng()%100) < disorderPct {
					ts -= int64(rng() % (lateness / 2))
				}
				e.AppendInt(ts)
				et++
			}
			b := kv(i)
			return []*vector.Vector{b[0], b[1], e}
		},
		after: func(m *measured) string {
			late := m.qs[0].LateTuples()
			if late != 0 {
				// Displacement stays strictly inside the lateness bound, so any
				// late count is a watermark-correctness regression, not noise.
				log.Fatalf("windowed bench dropped %d tuples as late under bounded disorder", late)
			}
			m.DisorderPct, m.LateTuples = &disorderPct, &late
			return fmt.Sprintf("cpus=%d shards=%d disorder=%d%% %s late=%d", cpus, shards, disorderPct, m.rate(), late)
		},
	}
}

// joinAfter fills a join row from the query's state counters.
func joinAfter(mode string) func(m *measured) string {
	return func(m *measured) string {
		st := m.qs[0].Stats()
		m.Mode, m.Matches, m.JoinState, m.Evictions = mode, &st.TuplesOut, &st.JoinState, &st.JoinEvictions
		line := fmt.Sprintf("mode=%-13s cpus=%d shards=%d %s state=%d", mode, m.Cpus, m.Shards, m.rate(), st.JoinState)
		if mode == "stream_stream" {
			line += fmt.Sprintf(" evicted=%d", st.JoinEvictions)
		}
		return line
	}
}

// joinStreams is a stream-stream equi-join with a WITHIN band: both
// streams advance one event-time tick per tuple and share the key
// schedule (7·et mod keys), so each tick yields exactly one band match
// per side pair — bounded match cardinality, non-trivial probe work —
// and the symmetric hash state is expired behind the watermark. With
// shards > 1 both streams are hash-partitioned on the join key, so the
// join runs co-partitioned.
func joinStreams(cpus, shards, tuples int) scenario {
	const within, lateness, keys = 4096, 512, 1 << 16
	with := ""
	if shards > 1 {
		with = partitionBy(shards)
	}
	return scenario{
		name: "join_throughput", cpus: cpus, shards: shards,
		ddl: []string{"CREATE BASKET ja (k INT, v INT, et INT)" + with, "CREATE BASKET jb (k INT, v INT, et INT)" + with},
		queries: []query{{"join", fmt.Sprintf(`SELECT l.k AS k, l.v AS lv, r.v AS rv
			FROM [SELECT * FROM ja] AS l JOIN [SELECT * FROM jb] AS r
			ON l.k = r.k WITHIN %d`, within)}},
		opts:    poolOpts(datacell.WithEventTimeColumn("et"), datacell.WithLateness(lateness)),
		streams: []string{"ja", "jb"}, tuples: tuples, batchRows: poolRows, ingesters: 1,
		batch: func(i int) []*vector.Vector {
			k := vector.NewWithCap(vector.Int64, poolRows)
			v := vector.NewWithCap(vector.Int64, poolRows)
			e := vector.NewWithCap(vector.Int64, poolRows)
			for j := 0; j < poolRows; j++ {
				et := int64(i*poolRows + j)
				k.AppendInt((et * 7) % keys)
				v.AppendInt(int64(j))
				e.AppendInt(et)
			}
			return []*vector.Vector{k, v, e}
		},
		after: joinAfter("stream_stream"),
	}
}

// joinTable is stream-table enrichment: each stream tuple probes a cached
// hash of a 4096-row reference table (rebuilt only when the table
// changes) that every second key matches. With shards > 1 the table is
// broadcast to every shard pipeline.
func joinTable(cpus, shards, tuples int) scenario {
	const refRows, perInsert, keys = 4096, 512, 8192
	with := ""
	if shards > 1 {
		with = partitionBy(shards)
	}
	ddl := []string{"CREATE BASKET js (k INT, v INT)" + with, "CREATE TABLE jref (k INT, name VARCHAR)"}
	for lo := 0; lo < refRows; lo += perInsert {
		vals := make([]string, perInsert)
		for i := range vals {
			vals[i] = fmt.Sprintf("(%d, 'name%d')", (lo+i)*2, lo+i)
		}
		ddl = append(ddl, "INSERT INTO jref VALUES "+strings.Join(vals, ", "))
	}
	return scenario{
		name: "join_throughput", cpus: cpus, shards: shards,
		ddl: ddl,
		queries: []query{{"enrich", `SELECT s.k AS k, s.v AS v, jref.name AS name
			FROM [SELECT * FROM js] AS s JOIN jref ON s.k = jref.k`}},
		opts:    poolOpts(),
		streams: []string{"js"}, tuples: tuples, batchRows: poolRows, batch: keyedBatches(keys, poolRows), ingesters: 1,
		after: joinAfter("stream_table"),
	}
}

// filtered is the durability workload: a consume-all continuous filter
// fed by eight concurrent ingesters — the group-commit shape: committers
// that arrive during an fsync share the next round, so the per-batch
// durability tax amortizes. dir "" runs it volatile.
func filtered(dir string, tuples int, after func(m *measured) string) scenario {
	return scenario{
		name:    "durability",
		cfg:     datacell.Config{Workers: 2, DataDir: dir, CheckpointInterval: -1},
		ddl:     []string{"CREATE BASKET d (k INT, v INT)"},
		queries: []query{{"filt", "SELECT * FROM [SELECT * FROM d] AS x WHERE x.v < 500"}},
		opts:    poolOpts(),
		streams: []string{"d"}, tuples: tuples, batchRows: poolRows, batch: keyedBatches(4096, 1000), ingesters: 8,
		after: after,
	}
}

// durability measures the WAL tax and the recovery path: the filter is
// driven with the WAL off and on, and crash recovery is timed against
// logs of growing size — the engine is "killed" by copying its live data
// directory before Stop, so reopening the copy must replay the whole tail.
func durability(p params) []row {
	// Throughput runs use a 4x longer stream than the recovery points: at
	// the base count a wal_off pass lasts only ~10 ms, so process warm-up
	// and the phase of the GC cycle dominate the reading and the
	// wal_on/wal_off ratio swings run to run. The longer window averages
	// those out; recovery keeps the smaller graded sizes so replay cost vs
	// log length stays visible.
	thr := p.tuples * 4
	rows := []row{drive(filtered("", thr, func(m *measured) string {
		m.Mode = "wal_off"
		return fmt.Sprintf("mode=%-9s %s", m.Mode, m.rate())
	}))}
	for _, n := range []int{p.tuples / 4, p.tuples / 2, thr} {
		dir, err := os.MkdirTemp("", "dcdur-*")
		fatalIf(err)
		image, err := os.MkdirTemp("", "dcrec-*")
		fatalIf(err)
		on := drive(filtered(dir, n, func(m *measured) string {
			m.Mode, m.WALBytes = "wal_on", m.eng.Stats().WALBytes
			fatalIf(copyTree(dir, image))
			if n != thr {
				return ""
			}
			return fmt.Sprintf("mode=%-9s %s wal=%dB", m.Mode, m.rate(), m.WALBytes)
		}))
		if n == thr {
			rows = append(rows, on)
		}
		// Recovery is the degenerate scenario: open the crash image, send
		// nothing, report how long Open took.
		rows = append(rows, drive(scenario{
			name:  "durability",
			cfg:   datacell.Config{DataDir: image, CheckpointInterval: -1},
			drain: true,
			after: func(m *measured) string {
				m.Mode, m.Tuples, m.WALBytes = "recovery", on.Tuples, on.WALBytes
				m.RecoveryMs, m.ReplayedRecords = ms(m.opened), m.eng.Stats().RecoveredRecords
				return fmt.Sprintf("mode=%-9s %8d tuples  wal=%-9dB recovered in %7.2f ms (%d records)",
					m.Mode, m.Tuples, m.WALBytes, m.RecoveryMs, m.ReplayedRecords)
			},
		}))
		os.RemoveAll(dir)
		os.RemoveAll(image)
	}
	return rows
}

// copyTree clones a durability data directory — the crash image a
// recovery run reopens.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// multiquery is the per-batch cost of running many continuous queries
// over one stream: nQueries filters registered with the given strategy,
// then tuples rows ingested in fixed batches, in drain mode.
//
// Workloads:
//   - "mixed": selective equality predicates (WHERE v = i) over a value
//     domain sized so ~1% of them match every batch, plus ~1% always-
//     match residual queries — the paper's many-subscribers shape.
//   - "nonmatch": every query is a selective equality that no batch
//     value ever hits — isolates routing overhead, since a routed scan
//     should do one index probe per batch and evaluate nothing.
//   - "match": every query is a selective equality (WHERE v = i) and the
//     batch values are uniform over twice the query count, so half the
//     rows match exactly one query each and a big batch reaches every
//     query. Swept over batchRows, ns_per_tuple shows whether a fuller
//     batch is cheaper per tuple (cost linear in rows) or dearer (cost
//     rows × matched queries).
func multiquery(strategy datacell.Strategy, workload string, nQueries, tuples, batchRows int) scenario {
	selective := nQueries - nQueries/100
	matchDomain := max(selective/100, 1)
	switch workload {
	case "nonmatch":
		selective, matchDomain = nQueries, 0
	case "match":
		selective, matchDomain = nQueries, 2*nQueries
	}
	queries := make([]query, nQueries)
	for i := range queries {
		queries[i] = query{fmt.Sprintf("mq%d", i), fmt.Sprintf("SELECT x.v FROM [SELECT * FROM mq] AS x WHERE x.v = %d", i)}
		if i >= selective {
			queries[i].text = "SELECT x.v FROM [SELECT * FROM mq] AS x"
		}
	}
	// Prebuild a few distinct ingest batches so the timed loop measures
	// routing + evaluation, not row construction. Mixed batches cycle
	// values through [0, matchDomain); nonmatch batches carry a value no
	// registered predicate accepts; match batches draw uniformly.
	rng := newSplitmix(7)
	prebuilt := make([][]*vector.Vector, 8)
	for b := range prebuilt {
		v := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			switch {
			case matchDomain == 0:
				v.AppendInt(-1)
			case workload == "match":
				v.AppendInt(int64(rng() % uint64(matchDomain)))
			default:
				v.AppendInt(int64((b*batchRows + i) % matchDomain))
			}
		}
		prebuilt[b] = []*vector.Vector{v}
	}
	return scenario{
		name:    "multiquery",
		ddl:     []string{"CREATE BASKET mq (v INT)"},
		queries: queries,
		opts:    []datacell.QueryOption{datacell.WithStrategy(strategy), datacell.WithSQLPolling()},
		streams: []string{"mq"}, tuples: tuples, batchRows: batchRows, ingesters: 1,
		batch: func(i int) []*vector.Vector { return prebuilt[i%len(prebuilt)] },
		drain: true,
		after: func(m *measured) string {
			var rowsOut int64
			for _, q := range m.qs {
				if q.Strategy != strategy {
					log.Fatalf("%s fell back to strategy %s, want %s", q.Name, q.Strategy, strategy)
				}
				rowsOut += q.Stats().TuplesOut
			}
			m.Strategy, m.Workload, m.Queries = strategy.String(), workload, nQueries
			m.BatchRows, m.Batches = batchRows, m.Tuples/batchRows
			m.RegisterMs, m.RowsOut = ms(m.registered), &rowsOut
			m.NsPerBatch = float64(m.elapsed.Nanoseconds()) / float64(m.Batches)
			return fmt.Sprintf("strategy=%-8s workload=%-8s queries=%-6d batch=%-6d %12.0f tuples/s %10.0f ns/batch rows_out=%d reg=%.0fms",
				m.Strategy, workload, nQueries, batchRows, m.TuplesPerSec, m.NsPerBatch, rowsOut, m.RegisterMs)
		},
	}
}

// newSplitmix is a tiny deterministic PRNG so batch construction does
// not depend on math/rand ordering across Go versions.
func newSplitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// params is what the command line contributes to a scenario.
type params struct {
	tuples int
	cpus   []int
	smoke  bool
}

// entry is one scenario the command can run: its -scenario name, the JSON
// section its rows go under, the tuple count per measurement (full and
// -smoke), the note printed with the rows, and the sweep itself.
type entry struct {
	name, section string
	tuples, smoke int
	note          string
	rows          func(p params) []row
}

var table = []entry{
	{"partitioned", "partitioned", 1 << 19, 1 << 14,
		"single-query ingest-to-merge throughput of a grouped continuous query at GOMAXPROCS=cpus with the " +
			"stream hash-sharded `shards` ways (4096-row batches, 4096 groups); lanes hand their emissions to " +
			"the merge through sink baskets (q_out#i). Shard scaling needs num_cpu >= shards to materialize.",
		func(p params) (rows []row) {
			for _, c := range p.cpus {
				for _, shards := range []int{1, 2, 4} {
					rows = append(rows, drive(partitioned(c, shards, p.tuples)))
				}
			}
			return rows
		}},
	{"windowed", "windowed", 1 << 19, 1 << 14,
		"an event-time tumbling-window GROUP BY aligned with the partition key (window 4096 ticks, lateness " +
			"512), flat vs sharded, with disorder_pct of the input displaced backward within the lateness " +
			"bound — late_tuples must stay 0.",
		func(p params) (rows []row) {
			for _, c := range p.cpus {
				for _, shards := range []int{1, 4} {
					for _, disorder := range []int{0, 10} {
						rows = append(rows, drive(windowed(c, shards, disorder, p.tuples)))
					}
				}
			}
			return rows
		}},
	{"join", "join", 1 << 19, 1 << 14,
		"streaming-join throughput: stream_stream is a symmetric-hash equi-join with WITHIN 4096 ticks (state " +
			"expired behind the watermark, co-partitioned when shards > 1), stream_table is enrichment against " +
			"a 4096-row reference table (cached table-side hash, broadcast when shards > 1).",
		func(p params) (rows []row) {
			for _, c := range p.cpus {
				for _, shards := range []int{1, 4} {
					rows = append(rows, drive(joinStreams(c, shards, p.tuples)), drive(joinTable(c, shards, p.tuples)))
				}
			}
			return rows
		}},
	{"durability", "durability", 1 << 18, 1 << 14,
		"the WAL tax and the recovery path: the same continuous filter driven with the WAL off vs on " +
			"(group-committed 4096-row ingest batches, background checkpointer off), and dirty-crash recovery " +
			"wall time (Open + full tail replay of a copied live data directory) against logs of growing size.",
		durability},
	{"multiquery", "multiquery", 1 << 17, 1 << 14,
		"N continuous filters over one stream (selective equality predicates sized so ~1% match each batch, " +
			"plus ~1% always-match residuals; 'nonmatch' arms match nothing), driven batch-by-batch with a " +
			"deterministic drain on the calling goroutine, so num_cpu does not bear on them. strategy=routed " +
			"shares one scan per stream with predicate-indexed routing and common-subplan sharing; " +
			"strategy=separate is the naive per-query replica arrangement. ns_per_batch is the figure routing " +
			"must keep near-flat as N grows. The 'match' arms (1000 equalities, values uniform over 2000 keys) " +
			"sweep batch_rows at a fixed tuple count: ns_per_tuple must fall, not rise, as batches fill.",
		func(p params) (rows []row) {
			const batchRows = 1024
			for _, n := range []int{1, 100, 10_000} {
				rows = append(rows, drive(multiquery(datacell.RoutedScan, "mixed", n, p.tuples, batchRows)))
			}
			for _, n := range []int{1, 100, 10_000} {
				t := p.tuples
				if n == 10_000 {
					if p.smoke {
						// Registering 10k replica pipelines alone dwarfs a CI
						// smoke run; the full run records the comparison.
						continue
					}
					t /= 8
				}
				rows = append(rows, drive(multiquery(datacell.SeparateBaskets, "mixed", n, t, batchRows)))
			}
			for _, n := range []int{1, 10_000} {
				rows = append(rows, drive(multiquery(datacell.RoutedScan, "nonmatch", n, p.tuples, batchRows)))
			}
			// Batch-size linearity: the same tuple count (smoke or not — eight
			// firings at the largest batch) in ever fuller batches.
			for _, fill := range []int{128, 4096, 16384} {
				rows = append(rows, drive(multiquery(datacell.RoutedScan, "match", 1000, 1<<17, fill)))
			}
			return rows
		}},
}

func parseCpus(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// startProfiles arms the requested pprof profiles and returns the hook
// that flushes them. Mutex and block profiling are sampled at full rate
// only when their output file is requested — both bias the timings they
// observe, so a profiling run's numbers are for hunting contention, not
// for comparing.
func startProfiles(cpu, mem, mutex, block string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	writeProfile := func(name, path string, debug int) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("%s profile: %v", name, err)
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, debug); err != nil {
			log.Fatalf("%s profile: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s profile %s\n", name, path)
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
			fmt.Fprintf(os.Stderr, "wrote cpu profile %s\n", cpu)
		}
		if mem != "" {
			runtime.GC() // settle allocations so the heap profile is exact
		}
		writeProfile("allocs", mem, 0)
		writeProfile("mutex", mutex, 0)
		writeProfile("block", block, 0)
	}
}

// run is main without the process: it parses args, runs the scenario and
// writes the report to the -o file or, by default, to stdout. It returns
// the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hotpathbench", flag.ContinueOnError)
	out := fs.String("o", "-", "output file ('-' for stdout)")
	name := fs.String("scenario", "", "partitioned, windowed, join, durability, or multiquery")
	cpusFlag := fs.String("cpus", "1,2,4", "GOMAXPROCS settings for the partitioned/windowed/join scenarios")
	smoke := fs.Bool("smoke", false, "tiny workload (CI sanity run)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cpus, err := parseCpus(*cpusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	i := slices.IndexFunc(table, func(e entry) bool { return e.name == *name })
	if i < 0 {
		fs.Usage()
		return 2
	}
	sc := table[i]
	p := params{tuples: sc.tuples, cpus: cpus, smoke: *smoke}
	if *smoke {
		p.tuples = sc.smoke
	}
	flush := startProfiles(*cpuProfile, *memProfile, *mutexProfile, *blockProfile)
	rows := sc.rows(p)
	flush()
	enc, err := json.MarshalIndent(map[string]any{
		"note":   sc.note,
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		// Pool-mode rows only compare between hosts with as many CPUs.
		"num_cpu":  runtime.NumCPU(),
		sc.section: rows,
	}, "", "  ")
	fatalIf(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = stdout.Write(enc)
		fatalIf(err)
		return 0
	}
	fatalIf(os.WriteFile(*out, enc, 0o644))
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
