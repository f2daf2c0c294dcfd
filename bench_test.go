package datacell_test

// One testing.B benchmark per paper experiment (the F1/E1–E7 table in
// docs/ARCHITECTURE.md). The dcbench
// command prints the full paper-style tables; these benches make the same
// code paths measurable with `go test -bench`.

import (
	"context"
	"fmt"
	"testing"

	datacell "repro"
	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/linearroad"
	"repro/internal/vector"
)

func intRows(n, domain int) [][]datacell.Value {
	rows := make([][]datacell.Value, n)
	x := uint64(88172645463325252)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rows[i] = []datacell.Value{datacell.Int(int64(x % uint64(domain)))}
	}
	return rows
}

func mustEngine(b *testing.B, stmts ...string) *datacell.Engine {
	b.Helper()
	eng := datacell.New(datacell.Config{})
	for _, s := range stmts {
		if _, err := eng.Exec(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkF1Pipeline measures the Figure-1 pipeline: one continuous
// range filter from ingestion to delivery.
func BenchmarkF1Pipeline(b *testing.B) {
	eng := mustEngine(b, "CREATE BASKET s (v INT)")
	if _, err := eng.RegisterContinuous("q",
		"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 250 AND x.v < 750",
		datacell.WithSQLPolling()); err != nil {
		b.Fatal(err)
	}
	const batch = 10_000
	rows := intRows(batch, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest(context.Background(), "s", rows); err != nil {
			b.Fatal(err)
		}
		eng.Drain()
	}
	b.SetBytes(batch * 8)
}

// BenchmarkE1Strategies compares separate vs shared baskets at several
// standing-query counts (experiment E1).
func BenchmarkE1Strategies(b *testing.B) {
	for _, nq := range []int{1, 8, 32} {
		for _, strat := range []datacell.Strategy{datacell.SeparateBaskets, datacell.SharedBaskets} {
			b.Run(fmt.Sprintf("queries=%d/%v", nq, strat), func(b *testing.B) {
				eng := mustEngine(b, "CREATE BASKET s (v INT)")
				for i := 0; i < nq; i++ {
					if _, err := eng.RegisterContinuous(fmt.Sprintf("q%d", i),
						"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 200",
						datacell.WithStrategy(strat), datacell.WithSQLPolling()); err != nil {
						b.Fatal(err)
					}
				}
				const batch = 5_000
				rows := intRows(batch, 1000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Ingest(context.Background(), "s", rows); err != nil {
						b.Fatal(err)
					}
					eng.Drain()
				}
				b.SetBytes(batch * 8)
			})
		}
	}
}

// BenchmarkE2Batch measures bulk processing across scheduler batch sizes;
// BenchmarkE2TupleAtATime is the baseline comparator (experiment E2).
func BenchmarkE2Batch(b *testing.B) {
	for _, batch := range []int{1, 100, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			eng := mustEngine(b, "CREATE BASKET s (v INT)")
			if _, err := eng.RegisterContinuous("q",
				"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 200",
				datacell.WithSQLPolling()); err != nil {
				b.Fatal(err)
			}
			rows := intRows(batch, 1000)
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				if err := eng.Ingest(context.Background(), "s", rows); err != nil {
					b.Fatal(err)
				}
				eng.Drain()
				total += batch
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkE2TupleAtATime is the tuple-at-a-time DSMS baseline.
func BenchmarkE2TupleAtATime(b *testing.B) {
	be := baseline.New()
	if err := be.Subscribe("s", &baseline.Query{
		Name: "q",
		Ops: []baseline.Operator{&baseline.RangeFilter{
			Attr: 0, Lo: vector.NewInt(100), Hi: vector.NewInt(200),
		}},
	}); err != nil {
		b.Fatal(err)
	}
	tuple := baseline.Tuple{vector.NewInt(150)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.Push("s", tuple)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkE3Cascade measures the disjoint-range cascade against the
// shared-basket arrangement (experiment E3).
func BenchmarkE3Cascade(b *testing.B) {
	const k = 8
	b.Run("cascade", func(b *testing.B) {
		eng := mustEngine(b, "CREATE BASKET s (v INT)")
		preds := make([]datacell.CascadePredicate, k)
		for i := range preds {
			preds[i] = datacell.CascadePredicate{
				Attr: "v", Lo: datacell.Int(int64(i * 10)), Hi: datacell.Int(int64((i + 1) * 10)),
			}
		}
		c, err := eng.RegisterCascade("c", "s", preds)
		if err != nil {
			b.Fatal(err)
		}
		const batch = 5_000
		rows := intRows(batch, 80)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(context.Background(), "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
			for st := 0; st < c.Stages(); st++ {
				for {
					select {
					case <-c.Subscription(st).C():
						continue
					default:
					}
					break
				}
			}
		}
		b.SetBytes(batch * 8)
	})
	b.Run("shared", func(b *testing.B) {
		eng := mustEngine(b, "CREATE BASKET s (v INT)")
		for i := 0; i < k; i++ {
			if _, err := eng.RegisterContinuous(fmt.Sprintf("q%d", i),
				fmt.Sprintf("SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= %d AND x.v < %d", i*10, (i+1)*10),
				datacell.WithStrategy(datacell.SharedBaskets), datacell.WithSQLPolling()); err != nil {
				b.Fatal(err)
			}
		}
		const batch = 5_000
		rows := intRows(batch, 80)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(context.Background(), "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
		}
		b.SetBytes(batch * 8)
	})
}

// BenchmarkE4Window compares window re-evaluation with incremental
// basic-window evaluation (experiment E4).
func BenchmarkE4Window(b *testing.B) {
	for _, mode := range []datacell.WindowMode{datacell.ReEvaluate, datacell.Incremental} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := mustEngine(b, "CREATE BASKET s (v INT)")
			if _, err := eng.RegisterContinuous("w",
				"SELECT SUM(x.v) AS s, AVG(x.v) AS a, MIN(x.v) AS lo, MAX(x.v) AS hi FROM [SELECT * FROM s] AS x WINDOW ROWS 8000 SLIDE 1000",
				datacell.WithWindowMode(mode), datacell.WithSQLPolling()); err != nil {
				b.Fatal(err)
			}
			const batch = 4_000
			rows := intRows(batch, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Ingest(context.Background(), "s", rows); err != nil {
					b.Fatal(err)
				}
				eng.Drain()
			}
			b.SetBytes(batch * 8)
		})
	}
}

// BenchmarkE5LinearRoad plays one simulated Linear Road second per
// iteration through the full pipeline (experiment E5).
func BenchmarkE5LinearRoad(b *testing.B) {
	cfg := linearroad.GenConfig{
		XWays: 1, VehiclesPerXWay: 300, DurationSec: 600, Seed: 42, AccidentEverySec: 120,
	}
	recs := linearroad.Generate(cfg)
	bySecond := make([][]linearroad.Record, cfg.DurationSec)
	for _, r := range recs {
		bySecond[r.Time] = append(bySecond[r.Time], r)
	}
	sys, err := linearroad.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	reports := 0
	for i := 0; i < b.N; i++ {
		t := i % cfg.DurationSec
		if i > 0 && t == 0 {
			// Simulated time may not go backwards: fresh system per cycle.
			b.StopTimer()
			sys, err = linearroad.NewSystem()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := sys.Feed(int64(t), bySecond[t]); err != nil {
			b.Fatal(err)
		}
		reports += len(bySecond[t])
	}
	b.ReportMetric(float64(reports)/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkE6IngestToResult measures end-to-end latency of a single small
// batch through a standing aggregate (experiment E6's unit operation).
func BenchmarkE6IngestToResult(b *testing.B) {
	eng := mustEngine(b, "CREATE BASKET s (v INT)")
	if _, err := eng.RegisterContinuous("q",
		"SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x",
		datacell.WithSQLPolling()); err != nil {
		b.Fatal(err)
	}
	rows := intRows(100, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Ingest(context.Background(), "s", rows); err != nil {
			b.Fatal(err)
		}
		eng.Drain()
	}
}

// BenchmarkE7PredicateWindow compares consume-all (q1) with a predicate
// window (q2) per the paper's §2.6 queries (experiment E7). The predicate
// window's basket is bounded here (all tuples eventually qualify) so the
// steady-state cost is comparable.
func BenchmarkE7PredicateWindow(b *testing.B) {
	for _, tc := range []struct {
		name, query string
	}{
		{"q1-consume-all", "SELECT * FROM [SELECT * FROM s] AS x WHERE x.v < 500 AND x.v % 2 = 0"},
		{"q2-predicate-window", "SELECT * FROM [SELECT * FROM s WHERE v < 500] AS x WHERE x.v % 2 = 0"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := mustEngine(b, "CREATE BASKET s (v INT)")
			if _, err := eng.RegisterContinuous("q", tc.query, datacell.WithSQLPolling()); err != nil {
				b.Fatal(err)
			}
			const batch = 5_000
			rows := intRows(batch, 500) // every tuple falls inside the window
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Ingest(context.Background(), "s", rows); err != nil {
					b.Fatal(err)
				}
				eng.Drain()
			}
			b.SetBytes(batch * 8)
		})
	}
}

// BenchmarkAblationSharedFactory compares N independent shared-basket
// queries with the §3.2 shared-factory split (common predicate evaluated
// once, residuals over the admitted subset).
func BenchmarkAblationSharedFactory(b *testing.B) {
	const k = 8
	b.Run("independent", func(b *testing.B) {
		eng := mustEngine(b, "CREATE BASKET s (v INT)")
		for i := 0; i < k; i++ {
			if _, err := eng.RegisterContinuous(fmt.Sprintf("q%d", i),
				fmt.Sprintf("SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 300 AND x.v %% %d = 0", i+2),
				datacell.WithStrategy(datacell.SharedBaskets), datacell.WithSQLPolling()); err != nil {
				b.Fatal(err)
			}
		}
		const batch = 5_000
		rows := intRows(batch, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(context.Background(), "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
		}
		b.SetBytes(batch * 8)
	})
	b.Run("shared-factory", func(b *testing.B) {
		eng := mustEngine(b, "CREATE BASKET s (v INT)")
		members := make([]datacell.GroupMember, k)
		for i := range members {
			members[i] = datacell.GroupMember{
				Name:     fmt.Sprintf("m%d", i),
				Residual: fmt.Sprintf("x.v %% %d = 0", i+2),
			}
		}
		if _, err := eng.RegisterFilterGroup("g", "s", "x.v >= 100 AND x.v < 300", members); err != nil {
			b.Fatal(err)
		}
		const batch = 5_000
		rows := intRows(batch, 1000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Ingest(context.Background(), "s", rows); err != nil {
				b.Fatal(err)
			}
			eng.Drain()
		}
		b.SetBytes(batch * 8)
	})
}

// BenchmarkKernelSelect isolates the kernel's vectorized range selection —
// the MAL-style primitive every continuous filter compiles to (ablation:
// kernel cost without engine overhead).
func BenchmarkKernelSelect(b *testing.B) {
	col := vector.NewWithCap(vector.Int64, 100_000)
	x := uint64(2463534242)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		col.AppendInt(int64(x % 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := algebra.ThetaSelect(col, nil, algebra.Ge, vector.NewInt(250))
		cands = algebra.ThetaSelect(col, cands, algebra.Lt, vector.NewInt(750))
		if len(cands) == 0 {
			b.Fatal("empty selection")
		}
	}
	b.SetBytes(100_000 * 8)
}

// BenchmarkKernelGroupAggregate isolates grouped aggregation (ablation).
func BenchmarkKernelGroupAggregate(b *testing.B) {
	n := 100_000
	keys := vector.NewWithCap(vector.Int64, n)
	vals := vector.NewWithCap(vector.Int64, n)
	x := uint64(2463534242)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys.AppendInt(int64(x % 64))
		vals.AppendInt(int64(x % 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gids, ng, _ := algebra.Group([]*vector.Vector{keys}, nil)
		sums := algebra.Aggregate(algebra.AggSum, vals, nil, gids, ng)
		if sums.Len() != ng {
			b.Fatal("bad aggregate")
		}
	}
	b.SetBytes(int64(n) * 16)
}
