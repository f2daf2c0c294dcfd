package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// clock is the run's time base: every timestamp is ns since base, read
// from the monotonic clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// consumer reads the result socket into one growing buffer, marking the
// time of every read, and counts complete lines so the driver can wait for
// a phase's last row. It parses nothing while the clock runs; the checker
// reads the buffer afterwards.
type consumer struct {
	conn  net.Conn
	clk   clock
	buf   []byte
	marks []recvMark
	lines atomic.Int64
	wake  chan struct{} // poked after every read
	done  chan struct{} // closed when the read loop ends
	err   error         // why it ended; read after done
}

func startConsumer(addr, query string, clk clock, expectBytes int) (*consumer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, query+"\n"); err != nil {
		_ = conn.Close()
		return nil, err
	}
	c := &consumer{
		conn: conn, clk: clk,
		buf:   make([]byte, 0, expectBytes+expectBytes/8+1<<20),
		marks: make([]recvMark, 0, 1<<16),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go c.loop()
	return c, nil
}

func (c *consumer) loop() {
	defer close(c.done)
	for {
		if cap(c.buf)-len(c.buf) < 64<<10 {
			c.buf = append(c.buf, make([]byte, 16<<20)...)[:len(c.buf)]
		}
		n, err := c.conn.Read(c.buf[len(c.buf):cap(c.buf)])
		if n > 0 {
			t := c.clk.now()
			chunk := c.buf[len(c.buf) : len(c.buf)+n]
			c.buf = c.buf[:len(c.buf)+n]
			c.marks = append(c.marks, recvMark{end: len(c.buf), t: t})
			c.lines.Add(int64(bytes.Count(chunk, []byte{'\n'})))
			select {
			case c.wake <- struct{}{}:
			default:
			}
		}
		if err != nil {
			c.err = err
			return
		}
	}
}

// waitLines blocks until target lines have arrived and returns when that
// was, or reports how many were still missing at the deadline.
func (c *consumer) waitLines(ctx context.Context, target int64, deadline time.Duration) (int64, error) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		if c.lines.Load() >= target {
			return c.clk.now(), nil
		}
		select {
		case <-c.wake:
		case <-c.done:
			if c.lines.Load() >= target {
				return c.clk.now(), nil
			}
			return 0, fmt.Errorf("result connection ended with %d of %d rows: %v", c.lines.Load(), target, c.err)
		case <-timer.C:
			return 0, fmt.Errorf("timed out with %d of %d result rows", c.lines.Load(), target)
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// close ends the read loop and returns everything received.
func (c *consumer) close() ([]byte, []recvMark) {
	_ = c.conn.Close()
	<-c.done
	return c.buf, c.marks
}

// sendStats is the producer's account of one phase.
type sendStats struct {
	startNS, endNS int64   // first write issued, last write returned
	lateNS         []int64 // per tick the generator slept into: wake-up − tick time
}

// sendPaced writes p on its 1 ms schedule. A tick the generator reaches
// early it sleeps into, and records how late it woke: that lateness is the
// generator's own. A tick it reaches late because the previous write was
// still blocked is the server pushing back; it writes at once and the wait
// shows up in the tuples' latency, which counts from their due time.
func sendPaced(conn net.Conn, clk clock, p *phaseInput) (sendStats, error) {
	st := sendStats{lateNS: make([]int64, 0, len(p.tickEnd))}
	st.startNS = clk.now()
	sent := 0
	for k, end := range p.tickEnd {
		tick := st.startNS + int64(k)*int64(time.Millisecond)
		if d := tick - clk.now(); d > 0 {
			sleepFor(time.Duration(d))
			st.lateNS = append(st.lateNS, clk.now()-tick)
		}
		if end > sent {
			if _, err := conn.Write(p.data[sent:end]); err != nil {
				return st, err
			}
			sent = end
		}
	}
	st.endNS = clk.now()
	return st, nil
}

// sendFlat writes p as fast as the socket accepts it.
func sendFlat(conn net.Conn, clk clock, p *phaseInput) (sendStats, error) {
	st := sendStats{startNS: clk.now()}
	_, err := conn.Write(p.data)
	st.endNS = clk.now()
	return st, err
}
