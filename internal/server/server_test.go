package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	datacell "repro"
	"repro/internal/adapters"
)

func newServer(t *testing.T) (*Server, *datacell.Engine) {
	t.Helper()
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	if err := s.RunScript(ctx, `
		CREATE BASKET sensors (id INT, temp DOUBLE);
		CREATE CONTINUOUS QUERY hot AS
			SELECT * FROM [SELECT * FROM sensors] AS x WHERE x.temp > 30.0;
	`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		_ = eng.Stop(ctx)
	})
	return s, eng
}

func dial(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestRunScriptErrors(t *testing.T) {
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng)
	if err := s.RunScript(ctx, "CREATE CONTINUOUS QUERY justaname"); err == nil {
		t.Error("CREATE CONTINUOUS QUERY without AS select should fail")
	}
	if err := s.RunScript(ctx, "BOGUS SQL"); err == nil {
		t.Error("bad SQL should fail")
	}
	if err := s.RunScript(ctx, "  ;;  ;"); err != nil {
		t.Errorf("empty statements should be skipped: %v", err)
	}
	// A semicolon inside a string literal is not a statement boundary.
	if err := s.RunScript(ctx, "CREATE TABLE t1 (v VARCHAR); INSERT INTO t1 VALUES ('a;b')"); err != nil {
		t.Errorf("semicolon in literal: %v", err)
	}
	if rel, err := eng.Exec(ctx, "SELECT COUNT(*) FROM t1"); err != nil || rel.Cols[0].Get(0).I != 1 {
		t.Errorf("literal row lost: %v %v", rel, err)
	}
}

func TestEndToEndTCP(t *testing.T) {
	s, _ := newServer(t)
	ingestAddr, err := s.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resultAddr, err := s.ListenResults("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sqlAddr, err := s.ListenSQL("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe first.
	sub := dial(t, resultAddr)
	fmt.Fprintln(sub, "hot")
	results := bufio.NewScanner(sub)

	// Feed tuples, one cold and two hot, plus one malformed line.
	in := dial(t, ingestAddr)
	fmt.Fprintln(in, "sensors")
	fmt.Fprintln(in, "1,20.5")
	fmt.Fprintln(in, "not,a,tuple")
	fmt.Fprintln(in, "2,31.5")
	fmt.Fprintln(in, "3,40.0")
	_ = in.Close()

	var got []string
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for results.Scan() {
			lines <- results.Text()
		}
		close(lines)
	}()
	for len(got) < 2 {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("subscription closed early; got %v", got)
			}
			got = append(got, l)
		case <-deadline:
			t.Fatalf("timeout; got %v", got)
		}
	}
	if got[0] != "2,31.5" || got[1] != "3,40" {
		t.Errorf("results = %v", got)
	}

	// One-time SQL over the control port.
	ctl := dial(t, sqlAddr)
	fmt.Fprintln(ctl, "SELECT COUNT(*) FROM sensors")
	r := bufio.NewScanner(ctl)
	var resp []string
	for r.Scan() {
		resp = append(resp, r.Text())
		if r.Text() == "OK" || strings.HasPrefix(r.Text(), "ERR") {
			break
		}
	}
	joined := strings.Join(resp, "\n")
	if !strings.Contains(joined, "OK") {
		t.Errorf("sql response = %q", joined)
	}

	// Error paths.
	badIn := dial(t, ingestAddr)
	fmt.Fprintln(badIn, "nosuchstream")
	br := bufio.NewScanner(badIn)
	if !br.Scan() || !strings.HasPrefix(br.Text(), "ERR") {
		t.Errorf("expected ERR for unknown stream, got %q", br.Text())
	}

	badSub := dial(t, resultAddr)
	fmt.Fprintln(badSub, "nosuchquery")
	bs := bufio.NewScanner(badSub)
	if !bs.Scan() || !strings.HasPrefix(bs.Text(), "ERR") {
		t.Errorf("expected ERR for unknown query, got %q", bs.Text())
	}

	badCtl := dial(t, sqlAddr)
	fmt.Fprintln(badCtl, "SELECT broken FROM nowhere")
	bc := bufio.NewScanner(badCtl)
	if !bc.Scan() || !strings.HasPrefix(bc.Text(), "ERR") {
		t.Errorf("expected ERR for bad SQL, got %q", bc.Text())
	}
}

func TestDDLOverSQLPort(t *testing.T) {
	s, eng := newServer(t)
	sqlAddr, err := s.ListenSQL("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctl := dial(t, sqlAddr)
	fmt.Fprintln(ctl, "CREATE TABLE ref (k INT, v VARCHAR)")
	r := bufio.NewScanner(ctl)
	if !r.Scan() || r.Text() != "OK" {
		t.Fatalf("create: %q", r.Text())
	}
	fmt.Fprintln(ctl, "INSERT INTO ref VALUES (1, 'one')")
	if !r.Scan() || r.Text() != "OK" {
		t.Fatalf("insert: %q", r.Text())
	}
	rel, err := eng.Exec(context.Background(), "SELECT v FROM ref WHERE k = 1")
	if err != nil || rel.NumRows() != 1 {
		t.Fatalf("rel = %v err = %v", rel, err)
	}
}

// TestContinuousDDLOverSQLPort verifies the one-code-path criterion: the
// continuous-query lifecycle works over the TCP control listener exactly
// as it does via Engine.Exec and RunScript.
func TestContinuousDDLOverSQLPort(t *testing.T) {
	s, eng := newServer(t)
	sqlAddr, err := s.ListenSQL("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctl := dial(t, sqlAddr)
	r := bufio.NewScanner(ctl)

	fmt.Fprintln(ctl, "CREATE CONTINUOUS QUERY cold WITH (strategy = shared, polling = true) AS SELECT * FROM [SELECT * FROM sensors] AS x WHERE x.temp < 0.0")
	if !r.Scan() || r.Text() != "OK" {
		t.Fatalf("create continuous: %q", r.Text())
	}
	if q, err := eng.Query("cold"); err != nil || q.Strategy != datacell.SharedBaskets {
		t.Fatalf("query not registered via TCP: %v", err)
	}

	// SHOW QUERIES over the wire lists both standing queries.
	fmt.Fprintln(ctl, "SHOW QUERIES")
	var show []string
	for r.Scan() {
		show = append(show, r.Text())
		if r.Text() == "OK" || strings.HasPrefix(r.Text(), "ERR") {
			break
		}
	}
	joined := strings.Join(show, "\n")
	if !strings.Contains(joined, "cold") || !strings.Contains(joined, "hot") {
		t.Errorf("SHOW QUERIES = %q", joined)
	}

	fmt.Fprintln(ctl, "DROP CONTINUOUS QUERY cold")
	if !r.Scan() || r.Text() != "OK" {
		t.Fatalf("drop continuous: %q", r.Text())
	}
	if _, err := eng.Query("cold"); err == nil {
		t.Error("query survived DROP over TCP")
	}
	fmt.Fprintln(ctl, "DROP CONTINUOUS QUERY cold")
	if !r.Scan() || !strings.HasPrefix(r.Text(), "ERR") {
		t.Errorf("double drop should ERR, got %q", r.Text())
	}
}

// logSink collects a server's diagnostics.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...interface{}) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// serveIngestPipe runs ServeIngest on one end of an in-memory connection
// and returns the client's end and a channel closed when ServeIngest has
// returned.
func serveIngestPipe(t *testing.T, s *Server) (net.Conn, <-chan struct{}) {
	t.Helper()
	client, srv := net.Pipe()
	t.Cleanup(func() { _ = client.Close() })
	if err := client.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.ServeIngest(srv)
	}()
	return client, returned
}

// A line over the scanner's 1 MiB limit ends the connection. The tuples
// before it are ingested, the reason is logged under the ingest prefix and
// the client is told, instead of the rest of the stream vanishing.
func TestIngestReadErrorIsLoggedAndReported(t *testing.T) {
	s, eng := newServer(t)
	var logs logSink
	s.Logf = logs.logf
	client, returned := serveIngestPipe(t, s)
	go func() {
		// Fails when the server hangs up mid-line, which is the point.
		_, _ = client.Write(append([]byte("sensors\n1,35.5\n2,"), bytes.Repeat([]byte{'9'}, 2<<20)...))
	}()
	reply, err := bufio.NewReader(client).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "ERR ") || !strings.Contains(reply, "token too long") {
		t.Fatalf("reply = %q, %v; want ERR ... token too long", reply, err)
	}
	<-returned
	if got := eng.Ingested("sensors"); got != 1 {
		t.Errorf("ingested %d tuples, want the 1 before the oversized line", got)
	}
	if lines := logs.all(); len(lines) != 1 || !strings.HasPrefix(lines[0], "ingest sensors: ") {
		t.Errorf("log = %q, want one line starting %q", lines, "ingest sensors: ")
	}
}

// Once the engine has stopped, the first batch handed to it ends the
// connection with an ERR reply; the client is not left sending into a
// server that logs every batch and drops it. That holds for a batch the
// count closes and for one the wait closes on a connection held open.
func TestIngestHangsUpOnAStoppedEngine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tuples int
	}{
		{"ten batches", 10 * ingestBatchRows}, // the first must be the last
		{"three tuples, held open", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, eng := newServer(t)
			var logs logSink
			s.Logf = logs.logf
			client, returned := serveIngestPipe(t, s)
			if err := eng.Stop(context.Background()); err != nil {
				t.Fatal(err)
			}
			go func() {
				w := bufio.NewWriter(client)
				fmt.Fprintln(w, "sensors")
				for i := 0; i < tc.tuples; i++ {
					fmt.Fprintf(w, "%d,35.5\n", i)
				}
				_ = w.Flush()
			}()
			reply, err := bufio.NewReader(client).ReadString('\n')
			if err != nil || !strings.HasPrefix(reply, "ERR ") || !strings.Contains(reply, "engine stopped") {
				t.Fatalf("reply = %q, %v; want ERR ... engine stopped", reply, err)
			}
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("ServeIngest still serving a stopped engine")
			}
			if lines := logs.all(); len(lines) != 1 || !strings.HasPrefix(lines[0], "ingest sensors: ") {
				t.Errorf("log = %q, want one line starting %q", lines, "ingest sensors: ")
			}
		})
	}
}

// waitIngested waits up to a second for eng to have ingested want tuples
// of sensors.
func waitIngested(t *testing.T, eng *datacell.Engine, want int64) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); eng.Ingested("sensors") < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d tuples within 1 s", eng.Ingested("sensors"), want)
		}
	}
	if got := eng.Ingested("sensors"); got != want {
		t.Fatalf("ingested %d tuples, want %d", got, want)
	}
}

// A batch that never fills goes to the engine ingestBatchWait after its
// first tuple: three tuples on a connection that stays open reach the
// engine and the subscriber without the client closing or sending more.
func TestIngestPartialBatchArrives(t *testing.T) {
	s, eng := newServer(t)
	ingestAddr, err := s.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resultAddr, err := s.ListenResults("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub := dial(t, resultAddr)
	fmt.Fprintln(sub, "hot")
	in := dial(t, ingestAddr)
	fmt.Fprint(in, "sensors\n1,20.5\n2,31.5\n3,10.0\n")

	waitIngested(t, eng, 3)
	if err := sub.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	results := bufio.NewScanner(sub)
	if !results.Scan() || results.Text() != "2,31.5" {
		t.Fatalf("result = %q, %v; want 2,31.5", results.Text(), results.Err())
	}
}

// hotRows collects n result rows of the query hot, printed as the results
// port prints them.
func hotRows(t *testing.T, eng *datacell.Engine, n int) []string {
	t.Helper()
	q, err := eng.Query("hot")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var rows []string
	for len(rows) < n {
		rel, err := q.Subscription().Recv(ctx)
		if err != nil {
			t.Fatalf("after %q: %v", rows, err)
		}
		for i := 0; i < rel.NumRows(); i++ {
			rows = append(rows, strings.TrimSuffix(string(adapters.AppendRow(nil, rel.Cols[:2], i)), "\n"))
		}
	}
	return rows
}

// The wait can pass while the scanner holds half a line: the pending
// tuple goes to the engine, the half line stays, and when the rest of it
// arrives it makes exactly one tuple.
func TestIngestLineSplitAcrossTheWait(t *testing.T) {
	s, eng := newServer(t)
	var logs logSink
	s.Logf = logs.logf
	client, returned := serveIngestPipe(t, s)
	if _, err := io.WriteString(client, "sensors\n1,35.5\n2,3"); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, eng, 1) // the wait closed the batch of one
	time.Sleep(4 * ingestBatchWait)
	if _, err := io.WriteString(client, "6.5\n"); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	<-returned
	if got := eng.Ingested("sensors"); got != 2 {
		t.Errorf("ingested %d tuples, want 2", got)
	}
	if got, want := hotRows(t, eng, 2), []string{"1,35.5", "2,36.5"}; !slices.Equal(got, want) {
		t.Errorf("results = %q, want %q", got, want)
	}
	if lines := logs.all(); len(lines) != 0 {
		t.Errorf("log = %q, want nothing", lines)
	}
}

// A deadline set for a batch the count closed first must not disturb the
// batches after it: 128 tuples (the count's flush), an idle spell of
// several waits, then one more tuple.
func TestIngestStaleDeadline(t *testing.T) {
	s, eng := newServer(t)
	var logs logSink
	s.Logf = logs.logf
	client, _ := serveIngestPipe(t, s)
	tuples := func(from, to int) string {
		var b strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&b, "%d,35.5\n", i)
		}
		return b.String()
	}
	// The batch's first 100 tuples arm the deadline; the 28 after them
	// close it by count before the deadline passes.
	for _, chunk := range []string{"sensors\n" + tuples(0, 100), tuples(100, ingestBatchRows)} {
		if _, err := io.WriteString(client, chunk); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(4 * ingestBatchWait)
	if _, err := io.WriteString(client, tuples(ingestBatchRows, ingestBatchRows+1)); err != nil {
		t.Fatal(err)
	}
	waitIngested(t, eng, ingestBatchRows+1)
	if err := client.SetReadDeadline(time.Now().Add(4 * ingestBatchWait)); err != nil {
		t.Fatal(err)
	}
	if reply, err := bufio.NewReader(client).ReadString('\n'); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("reply = %q, %v; want none", reply, err)
	}
	if lines := logs.all(); len(lines) != 0 {
		t.Errorf("log = %q, want nothing", lines)
	}
}

// A rejected line costs only itself: the accepted rows on either side of
// it, in the same 128-row batch and across batch boundaries, arrive in
// order and exactly once. One bad line has the wrong field count, the
// others fail in the second column, after the first column took its value.
func TestBadLineInTheMiddleOfABatch(t *testing.T) {
	s, _ := newServer(t)
	var logs logSink
	s.Logf = logs.logf
	ingestAddr, err := s.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resultAddr, err := s.ListenResults("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub := dial(t, resultAddr)
	fmt.Fprintln(sub, "hot")

	const rows = 300
	bad := map[int]string{0: "x,1", 70: "70,abc", 127: "1,2,3", 128: "128,4e", 299: ",zz"}
	in := dial(t, ingestAddr)
	w := bufio.NewWriter(in)
	fmt.Fprintln(w, "sensors")
	for i := 0; i < rows; i++ {
		if line, ok := bad[i]; ok {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "%d,%d.5\r\n", i, 31+i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = in.Close()

	if err := sub.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	results := bufio.NewScanner(sub)
	for i := 0; i < rows; i++ {
		if !results.Scan() {
			t.Fatalf("results ended after %d of %d rows: %v", i, rows, results.Err())
		}
		if want := fmt.Sprintf("%d,%d.5", i, 31+i); results.Text() != want {
			t.Fatalf("result %d = %q, want %q", i, results.Text(), want)
		}
	}
	if err := sub.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if results.Scan() {
		t.Errorf("extra result %q", results.Text())
	}
	if lines := logs.all(); len(lines) != len(bad) {
		t.Errorf("%d lines logged, want one per rejected line (%d): %q", len(lines), len(bad), lines)
	}
}

// TestServeResultsResumesAfterAStalledReader is wire_filter's shape over
// loopback: one blocking subscription behind ServeResults, whose reader
// stops reading until more than depth batches are pending — the socket
// buffers are full, the channel is full, and results wait in the output
// basket. Nothing polls for room: when the reader resumes, the receives
// ServeResults makes deliver the rest, and every row arrives, the last
// within a second.
func TestServeResultsResumesAfterAStalledReader(t *testing.T) {
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop(ctx)
	s := New(eng)
	defer s.Close()
	const depth = 4
	if err := s.RunScript(ctx, fmt.Sprintf(`
		CREATE BASKET ev (seq INT, v INT);
		CREATE CONTINUOUS QUERY pass WITH (depth = %d) AS
			SELECT * FROM [SELECT * FROM ev] AS e WHERE e.v >= 0;
	`, depth)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := eng.Query("pass")
	if err != nil {
		t.Fatal(err)
	}

	// 64 KiB socket buffers bound what the stalled reader lets pile up in
	// the kernel, without the tiny-window stalls of smaller ones.
	const sockBuf = 64 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = conn.(*net.TCPConn).SetWriteBuffer(sockBuf)
		s.ServeResults(conn)
	}()
	reader := dial(t, ln.Addr())
	_ = reader.(*net.TCPConn).SetReadBuffer(sockBuf)
	fmt.Fprintln(reader, "pass")

	// Ingest until results wait in pass_out: the socket buffers are full,
	// ServeResults is blocked writing, and the channel is full behind it.
	const rows = 64
	batches := 0
	deadline := time.Now().Add(10 * time.Second)
	for q.Out().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches in, the stalled reader never backed results up into pass_out", batches)
		}
		batch := make([][]datacell.Value, rows)
		for i := range batch {
			seq := int64(batches*rows + i)
			batch[i] = []datacell.Value{datacell.Int(seq), datacell.Int(seq % 7)}
		}
		if err := eng.Ingest(ctx, "ev", batch); err != nil {
			t.Fatal(err)
		}
		batches++
		if batches%16 == 0 {
			time.Sleep(time.Millisecond) // let the pipeline catch up to the socket
		}
	}

	t.Logf("%d rows ingested", batches*rows)
	resumed := time.Now()
	_ = reader.SetReadDeadline(resumed.Add(10 * time.Second))
	sc := bufio.NewScanner(reader)
	for want := int64(0); want < int64(batches*rows); want++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d of %d rows: %v", want, batches*rows, sc.Err())
		}
		if line, exp := sc.Text(), fmt.Sprintf("%d,%d", want, want%7); line != exp {
			t.Fatalf("row %d: got %q, want %q", want, line, exp)
		}
	}
	if took := time.Since(resumed); took > time.Second {
		t.Errorf("the last row arrived %v after the reader resumed, want under 1s", took)
	}
	// Stopping the engine closes the subscription, which ends ServeResults.
	_ = eng.Stop(ctx)
	<-served
}

// A results client that hangs up ends its handler at once, not at the
// handler's next write: after 1 000 loopback connect/hang-up cycles on a
// query that never emits, no handler is left parked in Recv.
func TestServeResultsEndsWhenTheClientHangsUp(t *testing.T) {
	s, _ := newServer(t)
	addr, err := s.ListenResults("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(conn, "hot")
		_ = conn.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after 1 000 hang-ups, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A client that connects after another one hung up receives every row
// emitted after that: the first handler is gone and takes no batch with
// it to a dead connection.
func TestServeResultsReconnectLosesNothing(t *testing.T) {
	s, eng := newServer(t)
	first, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeResults(srv)
	}()
	fmt.Fprintln(first, "hot")
	_ = first.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeResults still serving a client that hung up")
	}

	second, srv := net.Pipe()
	defer second.Close()
	go s.ServeResults(srv)
	fmt.Fprintln(second, "hot")
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	sc := bufio.NewScanner(second)
	for i := int64(0); i < 4; i++ {
		if err := eng.Ingest(context.Background(), "sensors", [][]datacell.Value{{datacell.Int(i), datacell.Float(40)}}); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("row %d never arrived: %v", i, sc.Err())
		}
		if want := fmt.Sprintf("%d,40", i); !strings.HasPrefix(sc.Text(), want) {
			t.Fatalf("row %d = %q, want %s...", i, sc.Text(), want)
		}
	}
}

// A client that names an unknown stream and sends 1 MiB of tuples in one
// go, before it reads, still gets the ERR line: the server half-closes
// and drains what was sent instead of closing on unread input, which
// would answer with a reset that can discard the reply.
func TestIngestErrSurvivesUnreadInput(t *testing.T) {
	s, _ := newServer(t)
	addr, err := s.ListenIngest("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, addr)
	payload := append([]byte("nosuch\n"), bytes.Repeat([]byte("1,35.5\n"), (1<<20)/7)...)
	if _, err := conn.Write(payload); err != nil {
		t.Logf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("reply = %q, %v; want an ERR line", reply, err)
	}
}
