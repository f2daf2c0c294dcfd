package datacell

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/vector"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestIntrospectionUnchanged pins what SHOW and /metrics report for one
// fixed engine — a flat, a routed and a 2-shard windowed query plus a
// table, driven to quiescence on a manual clock — against a golden file.
// Every SHOW schema and row and every /metrics line is compared, except
// the sample values of histogram families (wall-clock firing times) and
// of dc_last_checkpoint_unix_ns, and a shared scan's process-wide
// generation number.
func TestIntrospectionUnchanged(t *testing.T) {
	ctx := context.Background()
	e := newCore(Config{Clock: metrics.NewManualClock(1_000_000)})
	for _, stmt := range []string{
		"CREATE BASKET s (k INT, v INT)",
		"CREATE BASKET p (k INT, et INT, v INT) WITH (partitions = 2, partition_by = k)",
		"CREATE TABLE ref (id INT, name VARCHAR)",
		"INSERT INTO ref VALUES (1, 'one'), (2, 'two'), (3, 'three')",
		"CREATE CONTINUOUS QUERY flat AS SELECT x.k, x.v FROM [SELECT * FROM s] AS x WHERE x.v > 10",
		"CREATE CONTINUOUS QUERY routed WITH (strategy = routed) AS SELECT x.k FROM [SELECT * FROM s] AS x WHERE x.k = 2",
		`CREATE CONTINUOUS QUERY win WITH (timestamp = et) AS
			SELECT x.k, COUNT(*) AS c FROM [SELECT * FROM p] AS x GROUP BY x.k WINDOW RANGE 100 SLIDE 100`,
	} {
		if _, err := e.Exec(ctx, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	var sRows, pRows [][]vector.Value
	for i := int64(0); i < 12; i++ {
		sRows = append(sRows, []vector.Value{vector.NewInt(i % 4), vector.NewInt(i * 3)})
		pRows = append(pRows, []vector.Value{vector.NewInt(i % 3), vector.NewInt(i * 25), vector.NewInt(i)})
	}
	if err := e.Ingest(ctx, "s", sRows); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(ctx, "p", pRows); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if err := e.FlushWindows(); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	var sb strings.Builder
	for _, what := range []string{"QUERIES", "STREAMS", "BASKETS", "TABLES", "SCHEDULER"} {
		rel, err := e.Exec(ctx, "SHOW "+what)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("== SHOW " + what + "\n")
		for i, c := range rel.Schema.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name + " " + c.Type.String())
		}
		sb.WriteByte('\n')
		for i := 0; i < rel.NumRows(); i++ {
			for j, v := range rel.Row(i) {
				if j > 0 {
					sb.WriteString(" | ")
				}
				sb.WriteString(v.String())
			}
			sb.WriteByte('\n')
		}
	}

	rec := httptest.NewRecorder()
	e.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sb.WriteString("== /metrics\n")
	masked := false // the current family's sample values are not compared
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			masked = kind == "histogram" || name == "dc_last_checkpoint_unix_ns"
		} else if masked && !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " _"
		}
		sb.WriteString(line + "\n")
	}

	got := regexp.MustCompile(`(~scan:\w+)#\d+`).ReplaceAllString(sb.String(), "$1#N")
	golden := filepath.Join("testdata", "introspection.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("introspection drifted from %s at line %d:\n got: %q\nwant: %q", golden, i+1, g, w)
			}
		}
	}
}
