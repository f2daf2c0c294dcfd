package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	datacell "repro"
	"repro/internal/vector"
)

// The two text loops measured alone, on the traffic bench/'s wire_filter
// workload sends ("seq,k,0.dddd", half the rows pass v > 0.5): an
// in-memory connection on the socket side, the engine on the other.
// Budgets are allocation counts, not times, so they hold on any host.

// memConn reads from r, counts the newlines written to it and drops them;
// done is closed when the target-th line has been written.
type memConn struct {
	r      io.Reader
	lines  atomic.Int64
	target int64
	done   chan struct{}
}

func newMemConn(in io.Reader, target int64) *memConn {
	return &memConn{r: in, target: target, done: make(chan struct{})}
}

func (c *memConn) Read(b []byte) (int, error) { return c.r.Read(b) }
func (c *memConn) Close() error               { return nil }
func (c *memConn) Write(b []byte) (int, error) {
	n := int64(bytes.Count(b, []byte{'\n'}))
	if before := c.lines.Add(n) - n; before < c.target && before+n >= c.target {
		close(c.done)
	}
	return len(b), nil
}

// wireFilterValue is the v of tuple seq: deterministic, uniform over
// 0.0000..0.9999 closely enough that half the tuples pass.
func wireFilterValue(seq int) int { return seq * 7919 % 10000 }

// wireFilterText is n tuples of wire_filter traffic behind the stream's
// name line.
func wireFilterText(n int) []byte {
	out := []byte("ev\n")
	for seq := 0; seq < n; seq++ {
		out = strconv.AppendInt(out, int64(seq), 10)
		out = append(out, ',')
		out = strconv.AppendInt(out, int64(seq%1000), 10)
		out = append(out, fmt.Sprintf(",0.%04d\n", wireFilterValue(seq))...)
	}
	return out
}

func openWireEngine(tb testing.TB, stmts ...string) *datacell.Engine {
	tb.Helper()
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, stmt := range append([]string{"CREATE BASKET ev (seq INT, k INT, v DOUBLE)"}, stmts...) {
		if _, err := eng.Exec(ctx, stmt); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Start(ctx); err != nil {
		tb.Fatal(err)
	}
	return eng
}

// queuedResults opens an engine whose subscription already holds every
// result of n wire_filter tuples, ingested in the daemon's 128-row batches,
// and returns it with the number of result rows.
func queuedResults(tb testing.TB, n int) (*datacell.Engine, int64) {
	tb.Helper()
	ctx := context.Background()
	// depth: the subscription must take every batch, or the emitter parks
	// and only the 5 ms tick wakes it again.
	eng := openWireEngine(tb, fmt.Sprintf(
		"CREATE CONTINUOUS QUERY pass WITH (depth = %d) AS SELECT * FROM [SELECT * FROM ev] AS e WHERE e.v > 0.5", 2*n/128+2))
	var want int64
	for lo := 0; lo < n; lo += 128 {
		seqs, ks, vs := make([]int64, 0, 128), make([]int64, 0, 128), make([]float64, 0, 128)
		for seq := lo; seq < lo+128 && seq < n; seq++ {
			v := float64(wireFilterValue(seq)) / 10000
			if v > 0.5 {
				want++
			}
			seqs, ks, vs = append(seqs, int64(seq)), append(ks, int64(seq%1000)), append(vs, v)
		}
		cols := []*vector.Vector{vector.FromInts(seqs), vector.FromInts(ks), vector.FromFloats(vs)}
		if err := eng.IngestColumns(ctx, "ev", cols); err != nil {
			tb.Fatal(err)
		}
	}
	q, err := eng.Query("pass")
	if err != nil {
		tb.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); q.Stats().TuplesOut < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatalf("query produced %d of %d rows", q.Stats().TuplesOut, want)
		}
	}
	return eng, want
}

// serveQueued runs ServeResults on eng's queued results until the last
// row has been written. ServeResults itself returns when eng stops.
func serveQueued(tb testing.TB, eng *datacell.Engine, want int64) {
	conn := newMemConn(strings.NewReader("pass\n"), want)
	go New(eng).ServeResults(conn)
	select {
	case <-conn.done:
	case <-time.After(10 * time.Second):
		tb.Errorf("ServeResults wrote %d of %d rows", conn.lines.Load(), want)
	}
}

const benchTuples = 128 * 1000

func BenchmarkServeIngest(b *testing.B) {
	text := wireFilterText(benchTuples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := openWireEngine(b) // a fresh stream each time: nothing reads ev, so it only grows
		b.StartTimer()
		New(eng).ServeIngest(newMemConn(bytes.NewReader(text), 0))
		b.StopTimer()
		if got := eng.Ingested("ev"); got != benchTuples {
			b.Fatalf("ingested %d of %d tuples", got, benchTuples)
		}
		_ = eng.Stop(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchTuples, "ns/tuple")
}

func BenchmarkServeResults(b *testing.B) {
	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, want := queuedResults(b, benchTuples)
		rows = want
		b.StartTimer()
		serveQueued(b, eng, want)
		b.StopTimer()
		_ = eng.Stop(context.Background())
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// TestServeIngestAllocBudget: what ServeIngest allocates is per batch (the
// engine's copies of the 128 rows), never per tuple or per field.
func TestServeIngestAllocBudget(t *testing.T) {
	const tuples = 128 * 100
	text := wireFilterText(tuples)
	eng := openWireEngine(t)
	defer eng.Stop(context.Background())
	srv := New(eng)
	perRun := testing.AllocsPerRun(5, func() {
		srv.ServeIngest(newMemConn(bytes.NewReader(text), 0))
	})
	if got := eng.Ingested("ev"); got != 6*tuples {
		t.Fatalf("ingested %d of %d tuples", got, 6*tuples)
	}
	perTuple := perRun / tuples
	t.Logf("ServeIngest: %.4f allocs/tuple", perTuple)
	if perTuple > 0.1 {
		t.Errorf("ServeIngest: %.0f allocs for %d tuples, budget 0.1 a tuple", perRun, tuples)
	}
}

// TestServeResultsAllocBudget: ServeResults allocates per relation it
// receives, never per row or per field.
func TestServeResultsAllocBudget(t *testing.T) {
	const tuples, runs = 128 * 100, 3
	type queued struct {
		eng  *datacell.Engine
		want int64
	}
	var engines []queued // AllocsPerRun calls once to warm up, then runs times
	for i := 0; i < runs+1; i++ {
		eng, want := queuedResults(t, tuples)
		defer eng.Stop(context.Background())
		engines = append(engines, queued{eng, want})
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		serveQueued(t, engines[next].eng, engines[next].want)
		next++
	})
	perRow := perRun / float64(engines[0].want)
	t.Logf("ServeResults: %.4f allocs/row", perRow)
	if perRow > 0.05 {
		t.Errorf("ServeResults: %.0f allocs for %d rows, budget 0.05 a row", perRun, engines[0].want)
	}
}
