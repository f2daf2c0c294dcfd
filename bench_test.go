package datacell_test

// The ablation benchmarks no other harness has: the kernel primitives
// without engine overhead, and the §3.2 shared-factory split. The paper
// experiments F1/E1–E7 run with `go run ./cmd/dcbench -exp eN -scale s`.

import (
	"context"
	"fmt"
	"testing"

	datacell "repro"
	"repro/internal/algebra"
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
	eng, err := datacell.Open(context.Background(), datacell.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range stmts {
		if _, err := eng.Exec(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkAblationSharedFactory compares N independent shared-basket
// queries with the §3.2 shared-factory split (common predicate evaluated
// once, residuals over the admitted subset).
func BenchmarkAblationSharedFactory(b *testing.B) {
	const k = 8
	b.Run("independent", func(b *testing.B) {
		eng := mustEngine(b, "CREATE BASKET s (v INT)")
		for i := 0; i < k; i++ {
			if _, err := eng.Exec(context.Background(), fmt.Sprintf(`CREATE CONTINUOUS QUERY q%d WITH (strategy = shared, polling = true) AS
				SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 300 AND x.v %% %d = 0`, i, i+2)); err != nil {
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
		ddl := []string{"CREATE BASKET s (v INT)",
			"CREATE CONTINUOUS QUERY g_common WITH (strategy = shared, polling = true) AS SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 300"}
		for i := 0; i < k; i++ {
			ddl = append(ddl, fmt.Sprintf("CREATE CONTINUOUS QUERY m%d WITH (strategy = shared) AS SELECT * FROM [SELECT * FROM g_common_out] AS x WHERE x.v %% %d = 0", i, i+2))
		}
		eng := mustEngine(b, ddl...)
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
