package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
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
	// depth: the subscription must take every batch, or the rest waits in
	// pass_out until ServeResults' receives make room.
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

// deadlineConn is a memConn with read deadlines whose reads return at
// most chunk bytes, as a socket's do. Every pauseEvery-th read the sender
// pauses: a deadline that is set fires there, and stays fired until it is
// set again, as a socket's does. It counts SetReadDeadline calls.
type deadlineConn struct {
	*memConn
	chunk, pauseEvery int
	reads             int
	set, fired        bool
	sets, fires       int
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.sets++
	c.set, c.fired = !t.IsZero(), false
	return nil
}

func (c *deadlineConn) Read(b []byte) (int, error) {
	if c.reads++; c.set && !c.fired && c.reads%c.pauseEvery == 0 {
		c.fired = true
		c.fires++
	}
	if c.fired {
		return 0, os.ErrDeadlineExceeded
	}
	if len(b) > c.chunk {
		b = b[:c.chunk]
	}
	return c.memConn.Read(b)
}

// ingestBatches reads dc_ingest_batches_total off eng's /metrics.
func ingestBatches(tb testing.TB, eng *datacell.Engine) int {
	tb.Helper()
	rec := httptest.NewRecorder()
	eng.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "dc_ingest_batches_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				tb.Fatal(err)
			}
			return n
		}
	}
	tb.Fatal("no dc_ingest_batches_total in /metrics")
	return 0
}

// TestServeIngestAllocBudget: what ServeIngest allocates is per batch (the
// engine's copies of the 128 rows), never per tuple or per field — also
// on a connection with read deadlines, where the batch wait closes some
// batches early. There the deadline is set at most twice a batch (armed,
// then cleared when it fires), not once a read.
func TestServeIngestAllocBudget(t *testing.T) {
	const tuples = 128 * 100
	text := wireFilterText(tuples)
	for _, tc := range []struct {
		name string
		conn func() io.ReadWriteCloser
	}{
		{"count only", func() io.ReadWriteCloser { return newMemConn(bytes.NewReader(text), 0) }},
		{"with deadlines", func() io.ReadWriteCloser {
			return &deadlineConn{memConn: newMemConn(bytes.NewReader(text), 0), chunk: 256, pauseEvery: 50}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := openWireEngine(t)
			defer eng.Stop(context.Background())
			srv := New(eng)
			var last io.ReadWriteCloser
			perRun := testing.AllocsPerRun(5, func() {
				last = tc.conn()
				srv.ServeIngest(last)
			})
			if got := eng.Ingested("ev"); got != 6*tuples {
				t.Fatalf("ingested %d of %d tuples", got, 6*tuples)
			}
			perTuple := perRun / tuples
			t.Logf("ServeIngest: %.4f allocs/tuple", perTuple)
			if perTuple > 0.1 {
				t.Errorf("ServeIngest: %.0f allocs for %d tuples, budget 0.1 a tuple", perRun, tuples)
			}
			dc, ok := last.(*deadlineConn)
			if !ok {
				return
			}
			// The last run's batches: the runs are alike, so a sixth of the total.
			batches := ingestBatches(t, eng) / 6
			t.Logf("last run: %d reads, %d batches, %d deadlines fired, %d SetReadDeadline calls", dc.reads, batches, dc.fires, dc.sets)
			if dc.fires == 0 {
				t.Error("no deadline fired: the test does not reach the wait")
			}
			if batches <= tuples/ingestBatchRows {
				t.Errorf("%d batches for %d tuples: a fired deadline closed no batch", batches, tuples)
			}
			if dc.sets > 2*batches {
				t.Errorf("%d SetReadDeadline calls for %d batches, budget 2 a batch", dc.sets, batches)
			}
		})
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
