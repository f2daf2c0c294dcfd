// Command hotpathbench measures the basket hot path — ingest → fire →
// emit — and the storage-level consumption primitives behind it, at
// several basket depths. It writes BENCH_results.json so every PR leaves
// a perf trajectory behind (`make bench`).
//
// The scenarios are chosen to expose the cost model of basket
// consumption:
//
//   - drop_prefix: a steady-state queue at depth D — every op appends a
//     batch and drops an equally sized prefix. With suffix-copying
//     storage the cost is O(D) per op; with chunked storage it is O(1)
//     amortized (whole consumed chunks are released).
//   - remove_tail: a predicate-window shape — every op appends a batch
//     and removes exactly those tuples again from the end, leaving a
//     permanent backlog of D retained tuples. Suffix-copying storage
//     rewrites all D survivors per op.
//   - ingest_emit_window: the full engine path for a §2.6 predicate
//     window over a basket holding D retained (non-qualifying) tuples:
//     Ingest → factory firing → subscription delivery.
//   - ingest_emit_all: headline end-to-end throughput of a consume-all
//     continuous filter (no retained backlog).
//   - partitioned_throughput: one grouped continuous query over a
//     hash-partitioned stream, driven by the concurrent scheduler at
//     several GOMAXPROCS settings (-cpus) and shard counts — the
//     multicore scaling the partition subsystem buys. Single-query
//     ingest-to-merge throughput is reported per (cpus, shards) pair.
//   - windowed_throughput: one event-time windowed GROUP BY (aligned
//     with the partition key) over the same sharded stream, with the
//     input either in timestamp order or k% displaced within the
//     declared lateness — the cost of watermarked out-of-order window
//     maintenance, flat vs sharded.
//   - join_throughput: streaming joins — a stream-stream equi-join with
//     a WITHIN band (symmetric hash state, event-time expiry) and a
//     stream-table enrichment join (cached table-side hash), each flat
//     vs co-partitioned/broadcast across 4 shards.
//   - durability: the WAL tax — the same continuous filter with the
//     write-ahead log off vs on (group-committed ingest) — and
//     dirty-crash recovery time (Open + tail replay) vs log size.
//   - multiquery: queries-vs-throughput of N continuous filters over one
//     stream — the shared routed scan (one scan per stream, predicate-
//     indexed routing, common-subplan sharing) against the naive
//     per-query replica-basket arrangement, at N = 1, 100, 10k; plus a
//     batch-size sweep (128 / 4096 / 16384 rows) at 1000 matching
//     queries, whose ns/tuple must not rise as batches fill.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	datacell "repro"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// batch is the per-op ingest size; depths grow 10× per step so the
// depth-proportionality (or flatness) of consumption cost is visible.
const batch = 256

var depths = []int{1_000, 10_000, 100_000}

// Result is one measured scenario.
type Result struct {
	Name         string  `json:"name"`
	Depth        int     `json:"depth,omitempty"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
}

// PartResult is one partitioned-throughput measurement: a single
// grouped continuous query over a stream sharded Shards ways, executed
// by the concurrent scheduler at GOMAXPROCS = Cpus.
type PartResult struct {
	Name         string  `json:"name"`
	Cpus         int     `json:"cpus"`
	Shards       int     `json:"shards"`
	Tuples       int     `json:"tuples"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
}

// WindowedResult is one windowed-throughput measurement: an event-time
// windowed aligned GROUP BY over a stream sharded Shards ways, with
// DisorderPct percent of the input displaced (within lateness).
type WindowedResult struct {
	Name         string  `json:"name"`
	Cpus         int     `json:"cpus"`
	Shards       int     `json:"shards"`
	DisorderPct  int     `json:"disorder_pct"`
	Tuples       int     `json:"tuples"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	LateTuples   int64   `json:"late_tuples"`
}

// JoinResult is one join-throughput measurement: a streaming join
// (stream-stream with WITHIN state, or stream-table enrichment) over a
// stream sharded Shards ways.
type JoinResult struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode"` // stream_stream or stream_table
	Cpus         int     `json:"cpus"`
	Shards       int     `json:"shards"`
	Tuples       int     `json:"tuples"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	Matches      int64   `json:"matches"`
	JoinState    int64   `json:"join_state"`
	Evictions    int64   `json:"join_evictions"`
}

// DurabilityResult is one durability measurement: ingest throughput of
// the same continuous filter with the WAL off vs on (the group-commit
// fsync tax), and crash-recovery wall time against logs of growing size.
type DurabilityResult struct {
	Name            string  `json:"name"`
	Mode            string  `json:"mode"` // wal_off | wal_on | recovery
	Tuples          int     `json:"tuples"`
	TuplesPerSec    float64 `json:"tuples_per_sec,omitempty"`
	NsPerTuple      float64 `json:"ns_per_tuple,omitempty"`
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	ReplayedRecords int64   `json:"replayed_records,omitempty"`
}

// ObsResult is one instrumentation-overhead measurement: the
// partitioned-throughput workload run with the observability layer
// enabled (the default) vs disabled (Config.DisableMetrics), best of
// `rounds` interleaved runs per arm. OverheadPct is set on the "on"
// row: ns/tuple regression of instrumentation relative to the off arm.
type ObsResult struct {
	Name         string  `json:"name"`
	Metrics      string  `json:"metrics"` // on | off
	Cpus         int     `json:"cpus"`
	Shards       int     `json:"shards"`
	Tuples       int     `json:"tuples"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	OverheadPct  float64 `json:"overhead_pct,omitempty"`
}

// MultiResult is one arm of the shared-scan multi-query scenario:
// Queries continuous filters registered over one stream, driven
// batch-by-batch with a deterministic drain. Strategy "routed" shares
// one scan per stream with predicate-indexed routing; "separate" is the
// naive per-query replica-basket arrangement. NsPerBatch is the number
// the routing layer must keep (near-)flat in Queries.
type MultiResult struct {
	Name         string  `json:"name"`
	Strategy     string  `json:"strategy"` // routed | separate
	Workload     string  `json:"workload"` // mixed | nonmatch | match
	Queries      int     `json:"queries"`
	BatchRows    int     `json:"batch_rows"`
	Batches      int     `json:"batches"`
	Tuples       int     `json:"tuples"`
	RegisterMs   float64 `json:"register_ms"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	NsPerTuple   float64 `json:"ns_per_tuple"`
	NsPerBatch   float64 `json:"ns_per_batch"`
	RowsOut      int64   `json:"rows_out"`
}

// Report is the BENCH_results.json document: the numbers measured by
// this run plus the recorded pre-refactor baseline for comparison.
type Report struct {
	Note        string             `json:"note"`
	GoOS        string             `json:"goos"`
	GoArch      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	Baseline    []Result           `json:"before_chunked_storage"`
	Current     []Result           `json:"current"`
	PartBefore  []PartResult       `json:"partitioned_before_execution_core,omitempty"`
	Partitioned []PartResult       `json:"partitioned,omitempty"`
	Windowed    []WindowedResult   `json:"windowed,omitempty"`
	Join        []JoinResult       `json:"join,omitempty"`
	Durability  []DurabilityResult `json:"durability,omitempty"`
	Obs         []ObsResult        `json:"obs_overhead,omitempty"`
	MultiBefore []MultiResult      `json:"multiquery_before_row_routing,omitempty"`
	Multi       []MultiResult      `json:"multiquery,omitempty"`
}

// baseline holds the numbers measured on the flat (suffix-copying)
// storage layer immediately before the chunked refactor (commit
// f207497, same harness, same machine class). Kept in-source so `make
// bench` always emits the before/after pair.
var baseline = []Result{
	{Name: "drop_prefix", Depth: 1_000, NsPerOp: 2947, AllocsPerOp: 2, BytesPerOp: 20607, TuplesPerSec: 86.9e6},
	{Name: "drop_prefix", Depth: 10_000, NsPerOp: 16193, AllocsPerOp: 2, BytesPerOp: 188542, TuplesPerSec: 15.8e6},
	{Name: "drop_prefix", Depth: 100_000, NsPerOp: 78805, AllocsPerOp: 2, BytesPerOp: 802944, TuplesPerSec: 3.2e6},
	{Name: "remove_tail", Depth: 1_000, NsPerOp: 7742, AllocsPerOp: 4, BytesPerOp: 41087, TuplesPerSec: 33.1e6},
	{Name: "remove_tail", Depth: 10_000, NsPerOp: 60853, AllocsPerOp: 4, BytesPerOp: 368762, TuplesPerSec: 4.2e6},
	{Name: "remove_tail", Depth: 100_000, NsPerOp: 628252, AllocsPerOp: 4, BytesPerOp: 3415659, TuplesPerSec: 0.41e6},
	{Name: "ingest_emit_window", Depth: 1_000, NsPerOp: 24905, AllocsPerOp: 50, BytesPerOp: 99087, TuplesPerSec: 10.3e6},
	{Name: "ingest_emit_window", Depth: 10_000, NsPerOp: 152292, AllocsPerOp: 50, BytesPerOp: 754413, TuplesPerSec: 1.7e6},
	{Name: "ingest_emit_window", Depth: 100_000, NsPerOp: 1411593, AllocsPerOp: 50, BytesPerOp: 6846749, TuplesPerSec: 0.18e6},
	{Name: "ingest_emit_all", NsPerOp: 12149, AllocsPerOp: 51, BytesPerOp: 31542, TuplesPerSec: 21.1e6},
}

// partBaseline holds the partitioned-throughput numbers measured
// immediately before the execution-core rework (global ready-set scan,
// lock-all shard fan-out, per-shard output baskets) on the same 1-CPU
// container class, so the scaling table always carries its before/after
// pair. The headline failure mode was negative scaling under
// oversubscription: at GOMAXPROCS=4 on one core, 4 shards ran at 0.27x
// the flat pipeline because every append woke every worker to rescan
// every transition.
var partBaseline = []PartResult{
	{Name: "partitioned_throughput", Cpus: 1, Shards: 1, Tuples: 524288, TuplesPerSec: 6709616, NsPerTuple: 149.0},
	{Name: "partitioned_throughput", Cpus: 1, Shards: 2, Tuples: 524288, TuplesPerSec: 5097598, NsPerTuple: 196.2},
	{Name: "partitioned_throughput", Cpus: 1, Shards: 4, Tuples: 524288, TuplesPerSec: 5943288, NsPerTuple: 168.3},
	{Name: "partitioned_throughput", Cpus: 2, Shards: 1, Tuples: 524288, TuplesPerSec: 6553780, NsPerTuple: 152.6},
	{Name: "partitioned_throughput", Cpus: 2, Shards: 2, Tuples: 524288, TuplesPerSec: 3060799, NsPerTuple: 326.7},
	{Name: "partitioned_throughput", Cpus: 2, Shards: 4, Tuples: 524288, TuplesPerSec: 2883754, NsPerTuple: 346.8},
	{Name: "partitioned_throughput", Cpus: 4, Shards: 1, Tuples: 524288, TuplesPerSec: 4574543, NsPerTuple: 218.6},
	{Name: "partitioned_throughput", Cpus: 4, Shards: 2, Tuples: 524288, TuplesPerSec: 1261367, NsPerTuple: 792.8},
	{Name: "partitioned_throughput", Cpus: 4, Shards: 4, Tuples: 524288, TuplesPerSec: 1249942, NsPerTuple: 800.0},
}

// multiBaseline holds the multiquery 'match' batch-size sweep measured
// on commit e7442d5, immediately before shared-scan routing went from
// batch level (every group some row of the batch matched re-read the
// whole batch) to row level — same harness, same 2-CPU container as the
// recorded 'multiquery' rows. ns/tuple rose 4.8x from 128-row to
// 16384-row batches; the multiquery-smoke CI job now fails above 3x.
var multiBaseline = []MultiResult{
	{Name: "multiquery", Strategy: "routed", Workload: "match", Queries: 1000, BatchRows: 128, Batches: 1024, Tuples: 131072, RegisterMs: 33.6, TuplesPerSec: 403320, NsPerTuple: 2479.4, NsPerBatch: 317366, RowsOut: 66816},
	{Name: "multiquery", Strategy: "routed", Workload: "match", Queries: 1000, BatchRows: 4096, Batches: 32, Tuples: 131072, RegisterMs: 18.8, TuplesPerSec: 109296, NsPerTuple: 9149.4, NsPerBatch: 37476090, RowsOut: 65788},
	{Name: "multiquery", Strategy: "routed", Workload: "match", Queries: 1000, BatchRows: 16384, Batches: 8, Tuples: 131072, RegisterMs: 19.1, TuplesPerSec: 84539, NsPerTuple: 11828.9, NsPerBatch: 193803934, RowsOut: 65431},
}

func measure(name string, depth int, tuplesPerOp int, fn func(b *testing.B)) Result {
	res := testing.Benchmark(fn)
	r := Result{
		Name:        name,
		Depth:       depth,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if tuplesPerOp > 0 && res.T > 0 {
		r.TuplesPerSec = float64(tuplesPerOp) * float64(res.N) / res.T.Seconds()
	}
	fmt.Fprintf(os.Stderr, "%-20s depth=%-7d %12.0f ns/op %8d allocs/op %12d B/op\n",
		name, depth, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	return r
}

// intBatch builds one append batch whose values are all v.
func intBatch(n int, v int64) []*vector.Vector {
	col := vector.NewWithCap(vector.Int64, n)
	for i := 0; i < n; i++ {
		col.AppendInt(v)
	}
	return []*vector.Vector{col}
}

func newIntTable(depth int) *storage.Table {
	schema := catalog.NewSchema(catalog.Column{Name: "v", Type: vector.Int64})
	t := storage.NewTable("bench", schema)
	for filled := 0; filled < depth; filled += batch {
		n := batch
		if depth-filled < n {
			n = depth - filled
		}
		if err := t.AppendBatch(intBatch(n, 900)); err != nil {
			log.Fatal(err)
		}
	}
	return t
}

// benchDropPrefix: steady-state queue at the given depth.
func benchDropPrefix(depth int) Result {
	return measure("drop_prefix", depth, batch, func(b *testing.B) {
		t := newIntTable(depth)
		in := intBatch(batch, 900)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.AppendBatch(in); err != nil {
				b.Fatal(err)
			}
			t.DropPrefix(batch)
		}
		if t.NumRows() != depth {
			b.Fatalf("depth drifted to %d", t.NumRows())
		}
	})
}

// benchRemoveTail: predicate-window shape — D permanently retained
// tuples, each op's arrivals removed again from the end.
func benchRemoveTail(depth int) Result {
	return measure("remove_tail", depth, batch, func(b *testing.B) {
		t := newIntTable(depth)
		in := intBatch(batch, 100)
		pos := make([]int, batch)
		for i := range pos {
			pos[i] = depth + i
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.AppendBatch(in); err != nil {
				b.Fatal(err)
			}
			t.Remove(pos)
		}
		if t.NumRows() != depth {
			b.Fatalf("depth drifted to %d", t.NumRows())
		}
	})
}

func mustEngine(stmts ...string) *datacell.Engine {
	eng := datacell.New(datacell.Config{})
	for _, s := range stmts {
		if _, err := eng.Exec(context.Background(), s); err != nil {
			log.Fatal(err)
		}
	}
	return eng
}

func intRows(n int, v int64) [][]datacell.Value {
	rows := make([][]datacell.Value, n)
	for i := range rows {
		rows[i] = []datacell.Value{datacell.Int(v)}
	}
	return rows
}

// benchIngestEmitWindow: full engine path with a predicate window whose
// basket permanently retains depth non-qualifying tuples.
func benchIngestEmitWindow(depth int) Result {
	return measure("ingest_emit_window", depth, batch, func(b *testing.B) {
		eng := mustEngine("CREATE BASKET s (v INT)")
		q, err := eng.RegisterContinuous("q",
			"SELECT * FROM [SELECT * FROM s WHERE v < 500] AS x",
			datacell.WithBackpressure(datacell.BackpressureDropOldest),
			datacell.WithSubscriptionDepth(4))
		if err != nil {
			log.Fatal(err)
		}
		drain := func() {
			for {
				select {
				case <-q.Subscription().C():
					continue
				default:
				}
				return
			}
		}
		// Retained backlog: non-qualifying tuples stay in the basket.
		ctx := context.Background()
		for filled := 0; filled < depth; filled += batch {
			n := batch
			if depth-filled < n {
				n = depth - filled
			}
			if err := eng.Ingest(ctx, "s", intRows(n, 900)); err != nil {
				log.Fatal(err)
			}
		}
		eng.Drain()
		drain()
		rows := intRows(batch, 100)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(ctx, "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
			drain()
		}
	})
}

// benchIngestEmitAll: consume-all continuous filter, headline throughput.
func benchIngestEmitAll() Result {
	return measure("ingest_emit_all", 0, batch, func(b *testing.B) {
		eng := mustEngine("CREATE BASKET s (v INT)")
		q, err := eng.RegisterContinuous("q",
			"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v < 500",
			datacell.WithBackpressure(datacell.BackpressureDropOldest),
			datacell.WithSubscriptionDepth(4))
		if err != nil {
			log.Fatal(err)
		}
		drain := func() {
			for {
				select {
				case <-q.Subscription().C():
					continue
				default:
				}
				return
			}
		}
		rows := intRows(batch, 100)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(ctx, "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
			drain()
		}
	})
}

// benchPartitioned measures single-query ingest-to-merge throughput of
// a grouped continuous query over a stream sharded `shards` ways, with
// the concurrent scheduler pool at GOMAXPROCS = cpus. The query groups
// by the partition column, so shard pipelines aggregate independently
// and the merge stage concatenates — the partition-aligned fast path.
func benchPartitioned(cpus, shards, tuples int) PartResult {
	return benchPartitionedMetrics(cpus, shards, tuples, false)
}

// benchPartitionedMetrics is benchPartitioned with the observability
// layer toggled: disableMetrics compiles out the registry, observers,
// and trace rings, isolating the instrumentation tax for the obs
// scenario's A/B comparison.
func benchPartitionedMetrics(cpus, shards, tuples int, disableMetrics bool) PartResult {
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()

	eng := datacell.New(datacell.Config{Workers: cpus, DisableMetrics: disableMetrics})
	ddl := fmt.Sprintf("CREATE BASKET p (k INT, v INT) WITH (partitions = %d, partition_by = k)", shards)
	if _, err := eng.Exec(ctx, ddl); err != nil {
		log.Fatal(err)
	}
	q, err := eng.RegisterContinuous("agg",
		"SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv FROM [SELECT * FROM p] AS x GROUP BY x.k",
		datacell.WithBackpressure(datacell.BackpressureDropOldest),
		datacell.WithSubscriptionDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	if shards > 1 && q.Shards() != shards {
		log.Fatalf("query fell back to %d shard(s), want %d", q.Shards(), shards)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.Subscription().C() {
		}
	}()
	if err := eng.Start(ctx); err != nil {
		log.Fatal(err)
	}

	// Pre-build ingest batches: 4096 distinct group keys spread across
	// shards by hash, so the ingest loop measures routing + pipelines, not
	// row construction.
	const batchRows, groups, nBatches = 4096, 4096, 8
	batches := make([][]*vector.Vector, nBatches)
	for b := range batches {
		k := vector.NewWithCap(vector.Int64, batchRows)
		v := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			k.AppendInt(int64((b*batchRows + i*7) % groups))
			v.AppendInt(int64(i))
		}
		batches[b] = []*vector.Vector{k, v}
	}

	start := time.Now()
	sent := 0
	for b := 0; sent < tuples; b++ {
		if err := eng.IngestColumns(ctx, "p", batches[b%nBatches]); err != nil {
			log.Fatal(err)
		}
		sent += batchRows
	}
	deadline := time.Now().Add(2 * time.Minute)
	for q.Stats().TuplesIn < int64(sent) || q.MergeLag() > 0 {
		if time.Now().After(deadline) {
			log.Fatalf("partitioned bench stalled: %d of %d consumed, merge lag %d",
				q.Stats().TuplesIn, sent, q.MergeLag())
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	if err := eng.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	<-done

	r := PartResult{
		Name:         "partitioned_throughput",
		Cpus:         cpus,
		Shards:       shards,
		Tuples:       sent,
		TuplesPerSec: float64(sent) / elapsed.Seconds(),
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(sent),
	}
	fmt.Fprintf(os.Stderr, "%-22s cpus=%d shards=%d %12.0f tuples/s %8.1f ns/tuple\n",
		r.Name, cpus, shards, r.TuplesPerSec, r.NsPerTuple)
	return r
}

// benchObs measures the observability layer's hot-path tax: the
// partitioned-throughput workload with metrics enabled vs disabled,
// interleaved over `rounds` rounds (best run per arm, so scheduler and
// allocator warm-up noise cancels instead of biasing one arm). When the
// on-arm's ns/tuple exceeds the off-arm's by more than maxOverheadPct
// the process exits nonzero — the acceptance gate for "instrumentation
// is effectively free".
func benchObs(cpus, shards, tuples, rounds int, maxOverheadPct float64) []ObsResult {
	var on, off PartResult
	for r := 0; r < rounds; r++ {
		for _, disabled := range []bool{true, false} {
			res := benchPartitionedMetrics(cpus, shards, tuples, disabled)
			if disabled {
				if off.Tuples == 0 || res.NsPerTuple < off.NsPerTuple {
					off = res
				}
			} else if on.Tuples == 0 || res.NsPerTuple < on.NsPerTuple {
				on = res
			}
		}
	}
	overhead := (on.NsPerTuple - off.NsPerTuple) / off.NsPerTuple * 100
	fmt.Fprintf(os.Stderr, "obs_overhead           cpus=%d shards=%d on=%.1f off=%.1f ns/tuple (%.2f%% overhead, limit %.0f%%)\n",
		cpus, shards, on.NsPerTuple, off.NsPerTuple, overhead, maxOverheadPct)
	if overhead > maxOverheadPct {
		log.Fatalf("instrumentation overhead %.2f%% exceeds %.0f%% budget", overhead, maxOverheadPct)
	}
	mk := func(p PartResult, metrics string, ov float64) ObsResult {
		return ObsResult{
			Name: "obs_overhead", Metrics: metrics, Cpus: p.Cpus, Shards: p.Shards,
			Tuples: p.Tuples, TuplesPerSec: p.TuplesPerSec, NsPerTuple: p.NsPerTuple,
			OverheadPct: ov,
		}
	}
	return []ObsResult{mk(off, "off", 0), mk(on, "on", overhead)}
}

// benchMultiquery measures the per-batch cost of running many continuous
// queries over one stream: nQueries filters registered with the given
// strategy, then tuples rows ingested in fixed batches with a
// deterministic Drain after each ingest (no scheduler workers, so the
// measurement is pure pipeline cost, not wake-up latency).
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
func benchMultiquery(strategy datacell.Strategy, workload string, nQueries, tuples, batchRows int) MultiResult {
	ctx := context.Background()
	eng := mustEngine("CREATE BASKET mq (v INT)")

	alwaysN := nQueries / 100
	selective := nQueries - alwaysN
	matchDomain := selective / 100
	if matchDomain < 1 {
		matchDomain = 1
	}
	switch workload {
	case "nonmatch":
		alwaysN, selective, matchDomain = 0, nQueries, 0
	case "match":
		alwaysN, selective, matchDomain = 0, nQueries, 2*nQueries
	}

	regStart := time.Now()
	queries := make([]*datacell.Query, 0, nQueries)
	for i := 0; i < nQueries; i++ {
		text := fmt.Sprintf("SELECT x.v FROM [SELECT * FROM mq] AS x WHERE x.v = %d", i)
		if i >= selective {
			text = "SELECT x.v FROM [SELECT * FROM mq] AS x"
		}
		q, err := eng.RegisterContinuous(fmt.Sprintf("mq%d", i), text,
			datacell.WithStrategy(strategy), datacell.WithSQLPolling())
		if err != nil {
			log.Fatal(err)
		}
		if q.Strategy != strategy {
			log.Fatalf("mq%d fell back to strategy %s, want %s", i, q.Strategy, strategy)
		}
		queries = append(queries, q)
	}
	registerMs := float64(time.Since(regStart).Nanoseconds()) / 1e6

	// Prebuild a few distinct ingest batches so the timed loop measures
	// routing + evaluation, not row construction. Mixed batches cycle
	// values through [0, matchDomain); nonmatch batches carry a value no
	// registered predicate accepts; match batches draw uniformly.
	const distinct = 8
	rng := newSplitmix(7)
	nBatches := tuples / batchRows
	if nBatches < 1 {
		nBatches = 1
	}
	prebuilt := make([][]*vector.Vector, distinct)
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

	start := time.Now()
	for b := 0; b < nBatches; b++ {
		if err := eng.IngestColumns(ctx, "mq", prebuilt[b%distinct]); err != nil {
			log.Fatal(err)
		}
		eng.Drain()
	}
	elapsed := time.Since(start)

	var rowsOut int64
	for _, q := range queries {
		rowsOut += q.Stats().TuplesOut
	}
	sent := nBatches * batchRows
	r := MultiResult{
		Name:         "multiquery",
		Strategy:     strategy.String(),
		Workload:     workload,
		Queries:      nQueries,
		BatchRows:    batchRows,
		Batches:      nBatches,
		Tuples:       sent,
		RegisterMs:   registerMs,
		TuplesPerSec: float64(sent) / elapsed.Seconds(),
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(sent),
		NsPerBatch:   float64(elapsed.Nanoseconds()) / float64(nBatches),
		RowsOut:      rowsOut,
	}
	fmt.Fprintf(os.Stderr, "%-22s strategy=%-8s workload=%-8s queries=%-6d batch=%-6d %12.0f tuples/s %10.0f ns/batch rows_out=%d reg=%.0fms\n",
		r.Name, r.Strategy, r.Workload, r.Queries, r.BatchRows, r.TuplesPerSec, r.NsPerBatch, r.RowsOut, r.RegisterMs)
	return r
}

// benchWindowed measures ingest-to-merge throughput of an event-time
// windowed GROUP BY aligned with the partition key (tumbling 4096-tick
// windows, lateness 512) over a stream sharded `shards` ways.
// disorderPct percent of the tuples are displaced backward in event time
// by up to the lateness bound, so the window runners exercise the
// out-of-order insertion path without dropping anything as late.
func benchWindowed(cpus, shards, disorderPct, tuples int) WindowedResult {
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()

	const lateness = 512
	eng := datacell.New(datacell.Config{Workers: cpus})
	ddl := fmt.Sprintf("CREATE BASKET w (k INT, v INT, et INT) WITH (partitions = %d, partition_by = k)", shards)
	if _, err := eng.Exec(ctx, ddl); err != nil {
		log.Fatal(err)
	}
	q, err := eng.RegisterContinuous("winagg",
		"SELECT x.k, COUNT(*) AS c, SUM(x.v) AS sv FROM [SELECT * FROM w] AS x GROUP BY x.k WINDOW RANGE 4096 SLIDE 4096",
		datacell.WithEventTimeColumn("et"),
		datacell.WithLateness(lateness),
		datacell.WithBackpressure(datacell.BackpressureDropOldest),
		datacell.WithSubscriptionDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	if shards > 1 && q.Shards() != shards {
		log.Fatalf("windowed query fell back to %d shard(s), want %d", q.Shards(), shards)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.Subscription().C() {
		}
	}()
	if err := eng.Start(ctx); err != nil {
		log.Fatal(err)
	}

	// Pre-build the key/value columns; the event-time column is rebuilt
	// per send because it must advance monotonically for the whole run
	// (one tick per tuple, a disordered tuple pulled back by up to
	// lateness/2 — within the declared bound, so nothing counts late).
	const batchRows, groups, nBatches = 4096, 1024, 8
	rng := newSplitmix(99)
	batches := make([][]*vector.Vector, nBatches)
	for b := range batches {
		k := vector.NewWithCap(vector.Int64, batchRows)
		v := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			k.AppendInt(int64((b*batchRows + i*7) % groups))
			v.AppendInt(int64(i))
		}
		batches[b] = []*vector.Vector{k, v}
	}
	et := int64(lateness) // start beyond the displacement range

	start := time.Now()
	sent := 0
	for b := 0; sent < tuples; b++ {
		e := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			ts := et
			if disorderPct > 0 && int(rng()%100) < disorderPct {
				ts -= int64(rng() % (lateness / 2))
			}
			e.AppendInt(ts)
			et++
		}
		kv := batches[b%nBatches]
		if err := eng.IngestColumns(ctx, "w", []*vector.Vector{kv[0], kv[1], e}); err != nil {
			log.Fatal(err)
		}
		sent += batchRows
	}
	deadline := time.Now().Add(2 * time.Minute)
	for q.Stats().TuplesIn < int64(sent) || q.MergeLag() > 0 {
		if time.Now().After(deadline) {
			log.Fatalf("windowed bench stalled: %d of %d consumed, merge lag %d",
				q.Stats().TuplesIn, sent, q.MergeLag())
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	late := q.LateTuples()
	if late != 0 {
		// Displacement stays strictly inside the lateness bound, so any
		// late count is a watermark-correctness regression, not noise.
		log.Fatalf("windowed bench dropped %d tuples as late under bounded disorder", late)
	}
	if err := eng.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	<-done

	r := WindowedResult{
		Name:         "windowed_throughput",
		Cpus:         cpus,
		Shards:       shards,
		DisorderPct:  disorderPct,
		Tuples:       sent,
		TuplesPerSec: float64(sent) / elapsed.Seconds(),
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(sent),
		LateTuples:   late,
	}
	fmt.Fprintf(os.Stderr, "%-22s cpus=%d shards=%d disorder=%d%% %12.0f tuples/s %8.1f ns/tuple late=%d\n",
		r.Name, cpus, shards, disorderPct, r.TuplesPerSec, r.NsPerTuple, late)
	return r
}

// benchJoinStreamStream measures a stream-stream equi-join with a WITHIN
// band: both streams advance one event-time tick per tuple, keys are
// spread over a domain wide enough that each tuple finds a bounded number
// of band partners, and the symmetric hash state is expired behind the
// watermark. With shards > 1 both streams are hash-partitioned on the
// join key, so the join runs co-partitioned.
func benchJoinStreamStream(cpus, shards, tuples int) JoinResult {
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()

	const within, lateness, keys = 4096, 512, 1 << 16
	eng := datacell.New(datacell.Config{Workers: cpus})
	with := ""
	if shards > 1 {
		with = fmt.Sprintf(" WITH (partitions = %d, partition_by = k)", shards)
	}
	for _, ddl := range []string{
		"CREATE BASKET ja (k INT, v INT, et INT)" + with,
		"CREATE BASKET jb (k INT, v INT, et INT)" + with,
	} {
		if _, err := eng.Exec(ctx, ddl); err != nil {
			log.Fatal(err)
		}
	}
	q, err := eng.RegisterContinuous("join",
		fmt.Sprintf(`SELECT l.k AS k, l.v AS lv, r.v AS rv
			FROM [SELECT * FROM ja] AS l JOIN [SELECT * FROM jb] AS r
			ON l.k = r.k WITHIN %d`, within),
		datacell.WithEventTimeColumn("et"),
		datacell.WithLateness(lateness),
		datacell.WithBackpressure(datacell.BackpressureDropOldest),
		datacell.WithSubscriptionDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	if shards > 1 && q.Shards() != shards {
		log.Fatalf("join query fell back to %d shard(s), want %d", q.Shards(), shards)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.Subscription().C() {
		}
	}()
	if err := eng.Start(ctx); err != nil {
		log.Fatal(err)
	}

	// Both sides share the key schedule (7·et mod keys), so each event
	// tick yields exactly one band match per side pair — bounded match
	// cardinality, non-trivial probe work.
	const batchRows = 4096
	mkBatch := func(base int64) []*vector.Vector {
		k := vector.NewWithCap(vector.Int64, batchRows)
		v := vector.NewWithCap(vector.Int64, batchRows)
		e := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			et := base + int64(i)
			k.AppendInt((et * 7) % keys)
			v.AppendInt(int64(i))
			e.AppendInt(et)
		}
		return []*vector.Vector{k, v, e}
	}

	start := time.Now()
	sent := 0
	et := int64(0)
	for sent < tuples {
		if err := eng.IngestColumns(ctx, "ja", mkBatch(et)); err != nil {
			log.Fatal(err)
		}
		if err := eng.IngestColumns(ctx, "jb", mkBatch(et)); err != nil {
			log.Fatal(err)
		}
		et += batchRows
		sent += 2 * batchRows
	}
	deadline := time.Now().Add(2 * time.Minute)
	for q.Stats().TuplesIn < int64(sent) || q.MergeLag() > 0 {
		if time.Now().After(deadline) {
			log.Fatalf("join bench stalled: %d of %d consumed, merge lag %d",
				q.Stats().TuplesIn, sent, q.MergeLag())
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	st := q.Stats()
	if err := eng.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	<-done

	r := JoinResult{
		Name:         "join_throughput",
		Mode:         "stream_stream",
		Cpus:         cpus,
		Shards:       shards,
		Tuples:       sent,
		TuplesPerSec: float64(sent) / elapsed.Seconds(),
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(sent),
		Matches:      st.TuplesOut,
		JoinState:    st.JoinState,
		Evictions:    st.JoinEvictions,
	}
	fmt.Fprintf(os.Stderr, "%-22s mode=%-13s cpus=%d shards=%d %12.0f tuples/s %8.1f ns/tuple state=%d evicted=%d\n",
		r.Name, r.Mode, cpus, shards, r.TuplesPerSec, r.NsPerTuple, r.JoinState, r.Evictions)
	return r
}

// benchJoinStreamTable measures stream-table enrichment: each stream
// tuple probes a cached hash of a 4096-row reference table (rebuilt only
// when the table changes). With shards > 1 the table is broadcast to
// every shard pipeline.
func benchJoinStreamTable(cpus, shards, tuples int) JoinResult {
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()

	const refRows, keys = 4096, 8192 // every second key matches
	eng := datacell.New(datacell.Config{Workers: cpus})
	with := ""
	if shards > 1 {
		with = fmt.Sprintf(" WITH (partitions = %d, partition_by = k)", shards)
	}
	if _, err := eng.Exec(ctx, "CREATE BASKET js (k INT, v INT)"+with); err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Exec(ctx, "CREATE TABLE jref (k INT, name VARCHAR)"); err != nil {
		log.Fatal(err)
	}
	var ins strings.Builder
	for i := 0; i < refRows; i++ {
		if i%512 == 0 {
			if i > 0 {
				if _, err := eng.Exec(ctx, ins.String()); err != nil {
					log.Fatal(err)
				}
			}
			ins.Reset()
			ins.WriteString("INSERT INTO jref VALUES ")
		} else {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, 'name%d')", i*2, i)
	}
	if _, err := eng.Exec(ctx, ins.String()); err != nil {
		log.Fatal(err)
	}
	q, err := eng.RegisterContinuous("enrich",
		`SELECT s.k AS k, s.v AS v, jref.name AS name
		 FROM [SELECT * FROM js] AS s JOIN jref ON s.k = jref.k`,
		datacell.WithBackpressure(datacell.BackpressureDropOldest),
		datacell.WithSubscriptionDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	if shards > 1 && q.Shards() != shards {
		log.Fatalf("enrichment query fell back to %d shard(s), want %d", q.Shards(), shards)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.Subscription().C() {
		}
	}()
	if err := eng.Start(ctx); err != nil {
		log.Fatal(err)
	}

	const batchRows, nBatches = 4096, 8
	batches := make([][]*vector.Vector, nBatches)
	for b := range batches {
		k := vector.NewWithCap(vector.Int64, batchRows)
		v := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			k.AppendInt(int64((b*batchRows + i*7) % keys))
			v.AppendInt(int64(i))
		}
		batches[b] = []*vector.Vector{k, v}
	}

	start := time.Now()
	sent := 0
	for b := 0; sent < tuples; b++ {
		if err := eng.IngestColumns(ctx, "js", batches[b%nBatches]); err != nil {
			log.Fatal(err)
		}
		sent += batchRows
	}
	deadline := time.Now().Add(2 * time.Minute)
	for q.Stats().TuplesIn < int64(sent) || q.MergeLag() > 0 {
		if time.Now().After(deadline) {
			log.Fatalf("enrichment bench stalled: %d of %d consumed, merge lag %d",
				q.Stats().TuplesIn, sent, q.MergeLag())
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	st := q.Stats()
	if err := eng.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	<-done

	r := JoinResult{
		Name:         "join_throughput",
		Mode:         "stream_table",
		Cpus:         cpus,
		Shards:       shards,
		Tuples:       sent,
		TuplesPerSec: float64(sent) / elapsed.Seconds(),
		NsPerTuple:   float64(elapsed.Nanoseconds()) / float64(sent),
		Matches:      st.TuplesOut,
		JoinState:    st.JoinState,
		Evictions:    st.JoinEvictions,
	}
	fmt.Fprintf(os.Stderr, "%-22s mode=%-13s cpus=%d shards=%d %12.0f tuples/s %8.1f ns/tuple state=%d\n",
		r.Name, r.Mode, cpus, shards, r.TuplesPerSec, r.NsPerTuple, r.JoinState)
	return r
}

// benchDurability measures the durability tax and the recovery path:
// the same consume-all continuous filter is driven with the WAL off
// (volatile engine) and on (group-committed ingest), and crash recovery
// is timed against logs of growing size — the engine is "killed" by
// copying its live data directory without Stop, so the reopened copy
// must replay the whole tail.
func benchDurability(tuples int) []DurabilityResult {
	ctx := context.Background()
	const batchRows, nBatches = 4096, 8
	batches := make([][]*vector.Vector, nBatches)
	for b := range batches {
		k := vector.NewWithCap(vector.Int64, batchRows)
		v := vector.NewWithCap(vector.Int64, batchRows)
		for i := 0; i < batchRows; i++ {
			k.AppendInt(int64((b*batchRows + i*7) % 4096))
			v.AppendInt(int64(i % 1000))
		}
		batches[b] = []*vector.Vector{k, v}
	}

	// run ingests n tuples through a filter query from several
	// concurrent ingesters — the group-commit shape: committers that
	// arrive during an fsync share the next round, so the per-batch
	// durability tax amortizes. It returns the elapsed wall time with
	// the engine still running (so a durable run's directory can be
	// copied "mid-crash" before Stop).
	const ingesters = 8
	run := func(dir string, n int) (time.Duration, int, *datacell.Engine) {
		var eng *datacell.Engine
		if dir == "" {
			eng = datacell.New(datacell.Config{Workers: 2})
		} else {
			var err error
			eng, err = datacell.Open(ctx, datacell.Config{Workers: 2, DataDir: dir, CheckpointInterval: -1})
			if err != nil {
				log.Fatal(err)
			}
		}
		if _, err := eng.Exec(ctx, "CREATE BASKET d (k INT, v INT)"); err != nil {
			log.Fatal(err)
		}
		q, err := eng.RegisterContinuous("filt",
			"SELECT * FROM [SELECT * FROM d] AS x WHERE x.v < 500",
			datacell.WithBackpressure(datacell.BackpressureDropOldest),
			datacell.WithSubscriptionDepth(4))
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			for range q.Subscription().C() {
			}
		}()
		if err := eng.Start(ctx); err != nil {
			log.Fatal(err)
		}
		perWorker := (n + ingesters*batchRows - 1) / (ingesters * batchRows)
		sent := perWorker * ingesters * batchRows
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < ingesters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := 0; b < perWorker; b++ {
					if err := eng.IngestColumns(ctx, "d", batches[(w+b)%nBatches]); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		wg.Wait()
		deadline := time.Now().Add(2 * time.Minute)
		for q.Stats().TuplesIn < int64(sent) {
			if time.Now().After(deadline) {
				log.Fatalf("durability bench stalled: %d of %d consumed", q.Stats().TuplesIn, sent)
			}
			time.Sleep(100 * time.Microsecond)
		}
		return time.Since(start), sent, eng
	}

	// Throughput runs use a 4x longer stream than the recovery points:
	// at the base count a wal_off pass lasts only ~10 ms, so process
	// warm-up and the phase of the GC cycle dominate the reading and the
	// wal_on/wal_off ratio swings run to run. The longer window averages
	// those out; recovery keeps the smaller graded sizes so replay cost
	// vs log length stays visible.
	thr := tuples * 4

	var out []DurabilityResult
	elOff, sentOff, engOff := run("", thr)
	if err := engOff.Stop(ctx); err != nil {
		log.Fatal(err)
	}
	r := DurabilityResult{
		Name:         "durability",
		Mode:         "wal_off",
		Tuples:       sentOff,
		TuplesPerSec: float64(sentOff) / elOff.Seconds(),
		NsPerTuple:   float64(elOff.Nanoseconds()) / float64(sentOff),
	}
	fmt.Fprintf(os.Stderr, "%-22s mode=%-9s %12.0f tuples/s %8.1f ns/tuple\n",
		r.Name, r.Mode, r.TuplesPerSec, r.NsPerTuple)
	out = append(out, r)

	for _, n := range []int{tuples / 4, tuples / 2, thr} {
		dir, err := os.MkdirTemp("", "dcdur-*")
		if err != nil {
			log.Fatal(err)
		}
		rdir, err := os.MkdirTemp("", "dcrec-*")
		if err != nil {
			log.Fatal(err)
		}
		el, sent, eng := run(dir, n)
		st := eng.Stats()
		if err := copyTree(dir, rdir); err != nil {
			log.Fatal(err)
		}
		if err := eng.Stop(ctx); err != nil {
			log.Fatal(err)
		}
		if n == thr {
			r := DurabilityResult{
				Name:         "durability",
				Mode:         "wal_on",
				Tuples:       sent,
				TuplesPerSec: float64(sent) / el.Seconds(),
				NsPerTuple:   float64(el.Nanoseconds()) / float64(sent),
				WALBytes:     st.WALBytes,
			}
			fmt.Fprintf(os.Stderr, "%-22s mode=%-9s %12.0f tuples/s %8.1f ns/tuple wal=%dB\n",
				r.Name, r.Mode, r.TuplesPerSec, r.NsPerTuple, r.WALBytes)
			out = append(out, r)
		}
		t0 := time.Now()
		e2, err := datacell.Open(ctx, datacell.Config{DataDir: rdir, CheckpointInterval: -1})
		if err != nil {
			log.Fatal(err)
		}
		rec := time.Since(t0)
		rst := e2.Stats()
		if err := e2.Stop(ctx); err != nil {
			log.Fatal(err)
		}
		rr := DurabilityResult{
			Name:            "durability",
			Mode:            "recovery",
			Tuples:          sent,
			WALBytes:        st.WALBytes,
			RecoveryMs:      float64(rec.Microseconds()) / 1000,
			ReplayedRecords: rst.RecoveredRecords,
		}
		fmt.Fprintf(os.Stderr, "%-22s mode=%-9s %8d tuples  wal=%-9dB recovered in %7.2f ms (%d records)\n",
			rr.Name, rr.Mode, rr.Tuples, rr.WALBytes, rr.RecoveryMs, rr.ReplayedRecords)
		out = append(out, rr)
		os.RemoveAll(dir)
		os.RemoveAll(rdir)
	}
	return out
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

func parseCpus(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			log.Fatalf("bad -cpus entry %q", f)
		}
		out = append(out, n)
	}
	return out
}

// startProfiles arms the requested pprof profiles and returns the hook
// that flushes them on exit. Mutex and block profiling are sampled at
// full rate only when their output file is requested — both bias the
// timings they observe, so a profiling run's numbers are for hunting
// contention, not for BENCH_results.json.
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

func main() {
	out := flag.String("o", "BENCH_results.json", "output file ('-' for stdout)")
	scenario := flag.String("scenario", "all", "hotpath, partitioned, windowed, join, durability, obs, multiquery, or all")
	cpusFlag := flag.String("cpus", "1,2,4", "GOMAXPROCS settings for the partitioned/windowed scenarios")
	smoke := flag.Bool("smoke", false, "tiny partitioned/windowed workload (CI sanity run)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file on exit")
	flag.Parse()
	defer startProfiles(*cpuProfile, *memProfile, *mutexProfile, *blockProfile)()

	var results []Result
	if *scenario == "all" || *scenario == "hotpath" {
		for _, d := range depths {
			results = append(results, benchDropPrefix(d))
		}
		for _, d := range depths {
			results = append(results, benchRemoveTail(d))
		}
		for _, d := range depths {
			results = append(results, benchIngestEmitWindow(d))
		}
		results = append(results, benchIngestEmitAll())
	}

	var part []PartResult
	if *scenario == "all" || *scenario == "partitioned" {
		tuples := 1 << 19
		if *smoke {
			tuples = 1 << 14
		}
		for _, c := range parseCpus(*cpusFlag) {
			for _, shards := range []int{1, 2, 4} {
				part = append(part, benchPartitioned(c, shards, tuples))
			}
		}
	}

	var win []WindowedResult
	if *scenario == "all" || *scenario == "windowed" {
		tuples := 1 << 19
		if *smoke {
			tuples = 1 << 14
		}
		for _, c := range parseCpus(*cpusFlag) {
			for _, shards := range []int{1, 4} {
				for _, disorder := range []int{0, 10} {
					win = append(win, benchWindowed(c, shards, disorder, tuples))
				}
			}
		}
	}

	var join []JoinResult
	if *scenario == "all" || *scenario == "join" {
		tuples := 1 << 19
		if *smoke {
			tuples = 1 << 14
		}
		for _, c := range parseCpus(*cpusFlag) {
			for _, shards := range []int{1, 4} {
				join = append(join, benchJoinStreamStream(c, shards, tuples))
				join = append(join, benchJoinStreamTable(c, shards, tuples))
			}
		}
	}

	var dur []DurabilityResult
	if *scenario == "all" || *scenario == "durability" {
		tuples := 1 << 18
		if *smoke {
			tuples = 1 << 14
		}
		dur = benchDurability(tuples)
	}

	var obsRes []ObsResult
	if *scenario == "all" || *scenario == "obs" {
		tuples, rounds, limit := 1<<19, 3, 5.0
		if *smoke {
			// Smoke workloads are too small for a tight bound: a single
			// scheduler hiccup is worth more than 5% of the run. Keep the
			// gate but loosen it to a sanity threshold.
			tuples, rounds, limit = 1<<16, 2, 25.0
		}
		obsRes = benchObs(1, 1, tuples, rounds, limit)
	}

	var multi []MultiResult
	if *scenario == "all" || *scenario == "multiquery" {
		tuples := 1 << 17
		if *smoke {
			tuples = 1 << 14
		}
		const batchRows = 1024
		for _, n := range []int{1, 100, 10_000} {
			multi = append(multi, benchMultiquery(datacell.RoutedScan, "mixed", n, tuples, batchRows))
		}
		for _, n := range []int{1, 100, 10_000} {
			t := tuples
			if n == 10_000 {
				if *smoke {
					// Registering 10k replica pipelines alone dwarfs a CI
					// smoke run; the full run records the comparison.
					continue
				}
				t = tuples / 8
			}
			multi = append(multi, benchMultiquery(datacell.SeparateBaskets, "mixed", n, t, batchRows))
		}
		for _, n := range []int{1, 10_000} {
			multi = append(multi, benchMultiquery(datacell.RoutedScan, "nonmatch", n, tuples, batchRows))
		}
		// Batch-size linearity: the same tuple count (smoke or not — eight
		// firings at the largest batch) in ever fuller batches.
		for _, rows := range []int{128, 4096, 16384} {
			multi = append(multi, benchMultiquery(datacell.RoutedScan, "match", 1000, 1<<17, rows))
		}
	}

	rep := Report{
		Note: "basket hot-path trajectory: 'before_chunked_storage' was measured on the flat " +
			"suffix-copying storage layer (commit f207497); 'current' is this checkout. " +
			"batch=256 rows/op; depth is the resident basket backlog during the op. " +
			"'partitioned' is single-query ingest-to-merge throughput of a grouped continuous " +
			"query at GOMAXPROCS=cpus with the stream hash-sharded `shards` ways (4096-row " +
			"batches, 4096 groups); shard scaling needs num_cpu >= shards to materialize — " +
			"'partitioned_before_execution_core' is the same scenario before the sharded " +
			"run-queue / targeted-wakeup / ring-handoff rework (on a 1-CPU container both " +
			"sides only show the contention tax, not the speedup; see num_cpu); 'current' lanes " +
			"hand their emissions to the merge through ordinary sink baskets (q_out#i). " +
			"'windowed' is an event-time tumbling-window GROUP BY aligned with the partition key " +
			"(window 4096 ticks, lateness 512), flat vs sharded, with disorder_pct of the input " +
			"displaced backward within the lateness bound — late_tuples must stay 0. " +
			"'join' is streaming-join throughput: stream_stream is a symmetric-hash equi-join " +
			"with WITHIN 4096 ticks (state expired behind the watermark, co-partitioned when " +
			"shards > 1), stream_table is enrichment against a 4096-row reference table " +
			"(cached table-side hash, broadcast when shards > 1). " +
			"'durability' is the WAL tax and recovery path: the same continuous filter driven " +
			"with the WAL off vs on (group-committed 4096-row ingest batches, background " +
			"checkpointer off), and dirty-crash recovery wall time (Open + full tail replay of " +
			"a copied live data directory) against logs of growing size. " +
			"'obs_overhead' is the partitioned workload with the observability layer on vs off " +
			"(Config.DisableMetrics), interleaved best-of-N per arm; overhead_pct on the 'on' row " +
			"is the instrumentation tax and the run fails above the stated budget. " +
			"'multiquery' is the shared-scan scenario: N continuous filters over one stream " +
			"(selective equality predicates sized so ~1% match each batch, plus ~1% always-match " +
			"residuals; 'nonmatch' arms match nothing), driven batch-by-batch with a deterministic " +
			"drain. strategy=routed shares one scan per stream with predicate-indexed routing and " +
			"common-subplan sharing; strategy=separate is the naive per-query replica arrangement. " +
			"ns_per_batch is the figure routing must keep near-flat as N grows. The 'match' arms " +
			"(1000 equalities, values uniform over 2000 keys) sweep batch_rows at a fixed tuple " +
			"count: ns_per_tuple must fall, not rise, as batches fill; " +
			"'multiquery_before_row_routing' is that sweep under batch-level routing. The " +
			"multiquery arms drain on the calling goroutine, so num_cpu does not bear on them.",
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Baseline:    baseline,
		Current:     results,
		PartBefore:  partBaseline,
		Partitioned: part,
		Windowed:    win,
		Join:        join,
		Durability:  dur,
		Obs:         obsRes,
		Multi:       multi,
	}
	if len(multi) > 0 {
		rep.MultiBefore = multiBaseline
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}
