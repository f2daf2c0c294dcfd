package main

import "fmt"

// workload is one traffic mix. All four run the same phases (warm-up, mid,
// low, cap bursts); they differ in schema, queries, rates and tuple counts.
// Why each exists is in BENCHMARK.json and README.md.
type workload struct {
	name string

	stream  string // stream the producer connection feeds
	query   string // the one query the consumer connection subscribes to
	durable bool   // run the daemon with -data

	basketDDL string          // CREATE BASKET of the stream
	others    func() []string // DDL of queries nobody subscribes to, registered first
	queryOpts string          // WITH options of the subscribed query
	selectSQL string          // its SELECT

	inKinds  []colKind
	outKinds []colKind
	gen      func() tupleGen
	ref      func() reference

	warmTuples int // W: tuples pushed flat out at the end of every set-up
	rateMid    int // tuples/s of the mid phase
	capPerSec  int // nominal capacity in tuples/s: sizes the warm-up chunks and the cap bursts

	// diskBound names the end-to-end metrics that on this workload are set
	// by the disk's fsync latency rather than by the engine, so -check
	// reports their spread without holding them to the bound.
	diskBound []string
}

// rateLow is the low phase's rate on every workload: slow enough that the
// server's 128-row ingest flush, not compute, decides latency.
const rateLow = 2000

var workloads = []*workload{
	{
		name:   "wire_filter",
		stream: "ev", query: "pass",
		basketDDL: "CREATE BASKET ev (seq INT, k INT, v DOUBLE)",
		selectSQL: "SELECT * FROM [SELECT * FROM ev] AS e WHERE e.v > 0.5",
		inKinds:   []colKind{kInt, kInt, kFloat}, outKinds: []colKind{kInt, kInt, kFloat},
		gen: func() tupleGen { return genFilter }, ref: func() reference { return refFilter{} },
		warmTuples: 2_000_000, rateMid: 400_000, capPerSec: 1_200_000,
	},
	{
		name:   "durable_filter",
		stream: "ev", query: "pass", durable: true,
		basketDDL: "CREATE BASKET ev (seq INT, k INT, v DOUBLE)",
		queryOpts: "checkpoint_interval = '2s'",
		selectSQL: "SELECT * FROM [SELECT * FROM ev] AS e WHERE e.v > 0.5",
		inKinds:   []colKind{kInt, kInt, kFloat}, outKinds: []colKind{kInt, kInt, kFloat},
		gen: func() tupleGen { return genFilter }, ref: func() reference { return refFilter{} },
		warmTuples: 500_000, rateMid: 80_000, capPerSec: 250_000,
		// One producer connection means one fsync per 128-row batch, in the
		// bursts and in the warm-up alike.
		diskBound: []string{"capacity_ktuples_per_s", "setup_s"},
	},
	{
		name:   "fanout_1k",
		stream: "ev", query: "probe",
		basketDDL: "CREATE BASKET ev (seq INT, k INT, v INT)",
		others:    fanoutOthers,
		queryOpts: "strategy = routed",
		selectSQL: fmt.Sprintf("SELECT * FROM [SELECT * FROM ev] AS e WHERE e.k < %d", fanoutProbe),
		inKinds:   []colKind{kInt, kInt, kInt}, outKinds: []colKind{kInt, kInt, kInt},
		gen: func() tupleGen { return genFanout }, ref: func() reference { return refProbe{} },
		warmTuples: 200_000, rateMid: 15_000, capPerSec: 50_000,
	},
	{
		name:   "keyed_window",
		stream: "ticks", query: "agg",
		basketDDL: "CREATE BASKET ticks (seq INT, k INT, v INT, et INT) WITH (partitions = 2, partition_by = k)",
		queryOpts: fmt.Sprintf("timestamp = et, lateness = %d", windowLateness),
		selectSQL: fmt.Sprintf("SELECT k, COUNT(*), SUM(v), MAX(seq) FROM [SELECT * FROM ticks] AS t GROUP BY k WINDOW RANGE %d SLIDE %d", windowSize, windowSize),
		inKinds:   []colKind{kInt, kInt, kInt, kInt}, outKinds: []colKind{kInt, kInt, kInt, kInt},
		gen: newGenWindow, ref: func() reference { return newRefWindow() },
		warmTuples: 1_000_000, rateMid: 200_000, capPerSec: 1_000_000,
	},
}

// ddl lists the statements of set-up in order: the stream, the queries
// nobody subscribes to, then the subscribed query with extraOpts added to
// its WITH options.
func (w *workload) ddl(extraOpts ...string) []string {
	stmts := []string{w.basketDDL}
	if w.others != nil {
		stmts = append(stmts, w.others()...)
	}
	opts := w.queryOpts
	for _, o := range extraOpts {
		if opts != "" {
			opts += ", "
		}
		opts += o
	}
	with := ""
	if opts != "" {
		with = " WITH (" + opts + ")"
	}
	return append(stmts, fmt.Sprintf("CREATE CONTINUOUS QUERY %s%s AS %s", w.query, with, w.selectSQL))
}

// fanoutQueries is the number of registered queries of fanout_1k.
const fanoutQueries = 1000

// fanoutSelects are the 999 queries of fanout_1k besides the probe: 990
// equalities on k (none overlapping the probe's range) and 9 ranges on v.
func fanoutSelects() []string {
	var sel []string
	for i := 0; i < fanoutQueries-10; i++ {
		sel = append(sel, fmt.Sprintf("SELECT * FROM [SELECT * FROM ev] AS e WHERE e.k = %d", i+fanoutProbe))
	}
	for i := 0; i < 9; i++ {
		sel = append(sel, fmt.Sprintf("SELECT * FROM [SELECT * FROM ev] AS e WHERE e.v >= %d AND e.v < %d", i*100, i*100+50))
	}
	return sel
}

// fanoutOthers registers fanoutSelects. Nobody ever subscribes to them, so
// they run with a bounded drop-oldest subscription; the probe keeps the
// default blocking one, because its rows are checked exactly-once.
func fanoutOthers() []string {
	var stmts []string
	for i, sel := range fanoutSelects() {
		stmts = append(stmts, fmt.Sprintf(
			"CREATE CONTINUOUS QUERY q%d WITH (strategy = routed, backpressure = drop_oldest, depth = 4) AS %s", i, sel))
	}
	return stmts
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
