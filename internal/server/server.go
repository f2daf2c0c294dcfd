// Package server exposes the DataCell engine over TCP: receptor listeners
// accept flat-text tuples into streams, emitter listeners deliver
// continuous-query results to subscribers, and a control listener executes
// one-time SQL — the adapter periphery of §2.1 as a network daemon.
//
// The two data loops are columnar: ServeIngest parses each line straight
// into one vector per column and hands the engine batches
// (Engine.IngestColumns), ServeResults prints rows straight from a result
// relation's columns into its output buffer. Neither builds a row, a
// string per line or a Value per field; the format itself is
// internal/adapters' (tuples) and internal/vector's (fields), and is
// described in the README ("Wire protocol").
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
	"strings"
	"sync"
	"time"

	datacell "repro"
	"repro/internal/adapters"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/vector"
)

// Server wires one engine to its listeners.
type Server struct {
	eng *datacell.Engine

	mu        sync.Mutex
	listeners []net.Listener
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...interface{})
}

// New wraps an engine.
func New(eng *datacell.Engine) *Server { return &Server{eng: eng} }

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// RunScript executes a statement script: semicolon-separated SQL, split
// by the lexer (string literals and comments are respected) and executed
// through Engine.Exec — continuous queries are ordinary CREATE CONTINUOUS
// QUERY statements, the same code path as every other front end.
func (s *Server) RunScript(ctx context.Context, script string) error {
	stmts, err := sql.SplitStatements(script)
	if err != nil {
		return err
	}
	for _, stmt := range stmts {
		if _, err := s.eng.Exec(ctx, stmt); err != nil {
			return err
		}
	}
	return nil
}

// ListenIngest starts the stream-ingestion listener and returns its bound
// address. Protocol: the first line names the stream; each further line
// is one comma-separated tuple.
func (s *Server) ListenIngest(addr string) (net.Addr, error) {
	return s.listen(addr, s.ServeIngest)
}

// ListenResults starts the result-subscription listener. Protocol: the
// first line names a continuous query; result tuples stream back.
func (s *Server) ListenResults(addr string) (net.Addr, error) {
	return s.listen(addr, s.ServeResults)
}

// ListenSQL starts the one-time SQL listener (one statement per line).
func (s *Server) ListenSQL(addr string) (net.Addr, error) {
	return s.listen(addr, s.ServeSQL)
}

func (s *Server) listen(addr string, handle func(io.ReadWriteCloser)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return ln.Addr(), nil
}

// Close stops all listeners.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ln := range s.listeners {
		_ = ln.Close()
	}
	s.listeners = nil
}

// ingestBatchRows is how many accepted tuples ServeIngest collects before
// it calls the engine. A batch is the unit every later stage works on —
// one WAL record, one basket append, one firing of each reader — so the
// constant trades low-rate latency (a tuple waits for its batch to close)
// against per-tuple cost; CHANGES.md records what shrinking it costs.
const ingestBatchRows = 128

// ingestBatchWait is the other way a batch closes: ingestBatchWait after
// its first tuple arrived it goes to the engine, full or not. Under load
// the count closes it first (from 128 / 5 ms = 25.6 k tuples/s up); on a
// slow connection the wait does, so no tuple waits longer than this in
// the receptor, and one connection hands the engine at most 200 batches a
// second, which bounds what the fixed cost of a batch can add up to. A
// shorter wait shrinks mid-rate batches: 2 ms cost fanout_1k a quarter
// more CPU per tuple.
const ingestBatchWait = 5 * time.Millisecond

// resultChunk is the size at which ServeResults writes out what it has
// formatted without waiting for the subscription to run dry.
const resultChunk = 64 << 10

// ingestBatch is one receptor connection's pending tuples: one builder
// per column of the stream. The builders live as long as the connection:
// IngestColumns keeps no reference to its argument (docs/INVARIANTS.md),
// so they are emptied and filled again.
type ingestBatch struct {
	s      *Server
	conn   io.Writer
	stream string
	cols   []*vector.Vector
	rows   int
	seq    uint64    // numbers the pending batch; every flush starts the next
	first  time.Time // when the pending batch's first tuple arrived
	hungUp bool      // the engine has stopped; the connection is ending
}

// flush hands the pending tuples to the engine and reports whether the
// connection should go on. An engine that has stopped is reported to the
// client as ERR and ends the connection.
func (b *ingestBatch) flush() bool {
	if b.rows == 0 {
		return true
	}
	err := b.s.eng.IngestColumns(context.Background(), b.stream, b.cols)
	for _, c := range b.cols {
		c.Truncate(0)
	}
	b.rows = 0
	b.seq++
	if err == nil {
		return true
	}
	b.s.logf("ingest %s: %v", b.stream, err)
	if errors.Is(err, datacell.ErrEngineStopped) || errors.Is(err, context.Canceled) {
		fmt.Fprintf(b.conn, "ERR %v\n", err)
		b.hungUp = true
		return false
	}
	return true
}

// readDeadliner is a connection that can bound a blocked Read in time, as
// every net.Conn can.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// batchTimer is what ServeIngest's scanner reads through on a connection
// with read deadlines. While tuples are pending it sets the deadline to
// the first one's arrival + ingestBatchWait — once per batch, keyed by the
// batch's sequence number, because setting a deadline is not free. When
// the deadline passes it flushes the batch and reads on; a partial line
// stays in the scanner's buffer. A deadline left over from a batch the
// count already closed is cleared when it fires.
type batchTimer struct {
	r     io.Reader
	conn  readDeadliner
	b     *ingestBatch
	armed uint64 // the seq of the batch the deadline is set for; 0: none
}

// Read's SetReadDeadline calls fail only on a closed connection, which the
// next read reports.
func (t *batchTimer) Read(p []byte) (int, error) {
	for {
		if t.b.rows > 0 && t.armed != t.b.seq {
			t.armed = t.b.seq
			_ = t.conn.SetReadDeadline(t.b.first.Add(ingestBatchWait))
		}
		n, err := t.r.Read(p)
		if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
			return n, err
		}
		if t.b.rows > 0 && !t.b.flush() {
			return n, io.EOF
		}
		t.armed = 0
		_ = t.conn.SetReadDeadline(time.Time{})
		if n > 0 {
			return n, nil
		}
	}
}

// ServeIngest handles one receptor connection: every line is parsed
// straight into one vector per column of the stream, and the pending
// tuples go to Engine.IngestColumns when they number ingestBatchRows, when
// ingestBatchWait has passed since the first of them arrived, and at end
// of stream. The wait needs a connection with read deadlines (any
// net.Conn); on one without, only the count and the end close a batch. A
// line that does not parse is logged and skipped; a read error, or an
// engine that has stopped, is logged, reported to the client as ERR and
// ends the connection.
func (s *Server) ServeIngest(conn io.ReadWriteCloser) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	streamName, err := r.ReadString('\n')
	if err != nil {
		return
	}
	streamName = strings.TrimSpace(streamName)
	b, err := s.eng.Stream(streamName)
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		hangUp(conn, r)
		return
	}
	userSchema := &catalog.Schema{Columns: b.Schema().Columns[:b.UserWidth()]}
	batch := &ingestBatch{s: s, conn: conn, stream: streamName, cols: make([]*vector.Vector, userSchema.Len()), seq: 1}
	for i, c := range userSchema.Columns {
		batch.cols[i] = vector.NewWithCap(c.Type, ingestBatchRows)
	}

	var in io.Reader = r
	if d, ok := conn.(readDeadliner); ok {
		in = &batchTimer{r: r, conn: d, b: batch}
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	// After a hang-up inside Scan the scanner would still hand over the
	// partial line it holds; the loop ends instead.
	for scanner.Scan() && !batch.hungUp {
		line := scanner.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := adapters.AppendTuple(batch.cols, userSchema, line); err != nil {
			s.logf("ingest %s: %v", streamName, err)
			continue
		}
		if batch.rows == 0 {
			batch.first = time.Now()
		}
		if batch.rows++; batch.rows >= ingestBatchRows && !batch.flush() {
			return
		}
	}
	if !batch.flush() {
		return
	}
	if err := scanner.Err(); err != nil {
		s.logf("ingest %s: %v", streamName, err)
		fmt.Fprintf(conn, "ERR %v\n", err)
	}
}

// hangUp ends a connection after an ERR reply without losing the reply
// to a reset: closing a socket with unread input makes the kernel answer
// RST, which can discard the ERR before the peer reads it. So the write
// side shuts first, where the connection can, and what the peer still
// sends is read and dropped — at most lingerBytes, for at most
// lingerWait — before the deferred Close.
func hangUp(conn io.ReadWriteCloser, r io.Reader) {
	if c, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = c.CloseWrite()
	}
	if d, ok := conn.(readDeadliner); ok {
		_ = d.SetReadDeadline(time.Now().Add(lingerWait))
	}
	_, _ = io.CopyN(io.Discard, r, lingerBytes)
}

// lingerWait and lingerBytes bound hangUp's drain of a refused client.
const (
	lingerWait  = 2 * time.Second
	lingerBytes = 16 << 20
)

// ServeResults handles one subscriber connection: result rows are printed
// from the relation's columns into one buffer, which is written when the
// subscription has nothing more ready (or at resultChunk bytes) — one
// write per batch while the client keeps up, fewer when it does not. The
// client sends nothing after the query name, so a read that returns means
// it hung up (EOF) or the connection failed: that ends a wait in Recv,
// and the handler, at once rather than at its next write.
func (s *Server) ServeResults(conn io.ReadWriteCloser) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	name, err := r.ReadString('\n')
	if err != nil {
		return
	}
	q, err := s.eng.Query(strings.TrimSpace(name))
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return
	}
	sub := q.Subscription()
	if sub == nil {
		fmt.Fprintf(conn, "ERR query %q has no subscription (polling mode)\n", q.Name)
		return
	}
	ctx, hungUp := context.WithCancel(context.Background())
	reading := make(chan struct{})
	go func() {
		defer close(reading)
		_, _ = io.Copy(io.Discard, r)
		hungUp()
	}()
	defer func() {
		_ = conn.Close() // ends the read if the client has not hung up
		<-reading
	}()
	var out []byte
	flush := func() bool {
		if len(out) == 0 {
			return true
		}
		_, err := conn.Write(out)
		out = out[:0]
		return err == nil
	}
	for {
		rel, err := sub.TryRecv()
		if rel == nil && err == nil {
			if !flush() {
				return
			}
			rel, err = sub.Recv(ctx)
		}
		if err != nil {
			flush()
			return
		}
		cols := rel.Cols
		if rel.Schema.Index(catalog.TimestampColumn) == len(cols)-1 {
			cols = cols[:len(cols)-1] // strip the output basket's delivery timestamp
		}
		for i, n := 0, rel.NumRows(); i < n; i++ {
			out = adapters.AppendRow(out, cols, i)
			if len(out) >= resultChunk && !flush() {
				return
			}
		}
	}
}

// ServeSQL handles one control connection.
func (s *Server) ServeSQL(conn io.ReadWriteCloser) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	w := bufio.NewWriter(conn)
	for scanner.Scan() {
		stmt := strings.TrimSpace(scanner.Text())
		if stmt == "" {
			continue
		}
		rel, err := s.eng.Exec(context.Background(), stmt)
		switch {
		case err != nil:
			fmt.Fprintf(w, "ERR %v\n", err)
		case rel != nil:
			fmt.Fprint(w, rel.String())
			fmt.Fprintln(w, "OK")
		default:
			fmt.Fprintln(w, "OK")
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}
