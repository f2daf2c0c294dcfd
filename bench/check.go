package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// row is one result (or input) tuple as the checker compares it: integer
// columns verbatim, DOUBLE columns as the bits of the parsed value, unused
// columns zero. Text formatting differences therefore never matter, lost
// precision does.
type row [4]int64

type colKind uint8

const (
	kInt colKind = iota
	kFloat
)

// parseRow decodes a comma-separated line against kinds.
func parseRow(line []byte, kinds []colKind) (row, error) {
	var r row
	for i, k := range kinds {
		field := line
		if j := bytes.IndexByte(line, ','); j >= 0 {
			field, line = line[:j], line[j+1:]
		} else {
			line = nil
			if i != len(kinds)-1 {
				return r, fmt.Errorf("row has %d fields, want %d", i+1, len(kinds))
			}
		}
		switch k {
		case kInt:
			v, err := strconv.ParseInt(string(field), 10, 64)
			if err != nil {
				return r, err
			}
			r[i] = v
		case kFloat:
			v, err := strconv.ParseFloat(string(field), 64)
			if err != nil {
				return r, err
			}
			r[i] = int64(math.Float64bits(v))
		}
	}
	if line != nil {
		return r, fmt.Errorf("row has more than %d fields", len(kinds))
	}
	return r, nil
}

// reference is an independent plain-Go evaluation of a workload's
// subscribed query. feed takes the next input tuple and appends the result
// rows that tuple releases: the tuple is the rows' closing tuple, the one
// whose arrival makes the engine emit them.
type reference interface {
	feed(in row, out []row) []row
}

// refFilter is SELECT * ... WHERE v > 0.5 over (seq, k, v DOUBLE).
type refFilter struct{}

func (refFilter) feed(in row, out []row) []row {
	if math.Float64frombits(uint64(in[2])) > 0.5 {
		out = append(out, in)
	}
	return out
}

// refProbe is the probe of fanout_1k: SELECT * ... WHERE k < fanoutProbe.
type refProbe struct{}

func (refProbe) feed(in row, out []row) []row {
	if in[1] < fanoutProbe {
		out = append(out, in)
	}
	return out
}

// refWindow is SELECT k, COUNT(*), SUM(v), MAX(seq) ... GROUP BY k over
// tumbling event-time windows of windowSize ticks: window [s, s+size) is
// released by the first tuple whose et reaches s+size+lateness.
type refWindow struct {
	open  map[int64]map[int64]*[3]int64 // window start → key → count, sum, max seq
	maxET int64
	next  int64 // start of the oldest window not yet released
}

func newRefWindow() *refWindow {
	return &refWindow{open: map[int64]map[int64]*[3]int64{}, maxET: math.MinInt64}
}

func (w *refWindow) feed(in row, out []row) []row {
	seq, k, v, et := in[0], in[1], in[2], in[3]
	start := et - et%windowSize
	win := w.open[start]
	if win == nil {
		win = map[int64]*[3]int64{}
		w.open[start] = win
	}
	agg := win[k]
	if agg == nil {
		agg = &[3]int64{0, 0, math.MinInt64}
		win[k] = agg
	}
	agg[0]++
	agg[1] += v
	if seq > agg[2] {
		agg[2] = seq
	}
	if et > w.maxET {
		w.maxET = et
	}
	for w.next+windowSize <= w.maxET-windowLateness {
		if win := w.open[w.next]; win != nil {
			keys := make([]int64, 0, len(win))
			for k := range win {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				a := win[k]
				out = append(out, row{k, a[0], a[1], a[2]})
			}
			delete(w.open, w.next)
		}
		w.next += windowSize
	}
	return out
}

// recvMark says the consumer had read bytes [.., end) at time t.
type recvMark struct {
	end int
	t   int64 // ns since the run's clock base
}

// phaseTiming is what the checker needs to turn a closing seq into a due
// time, and where it leaves the latencies it derives.
type phaseTiming struct {
	name     string
	firstSeq int64
	n        int
	rate     int   // tuples/s; 0 = flat out, no latency samples
	startNS  int64 // first send, ns since the clock base

	expected  int     // result rows whose closing tuple is in this phase
	latNS     []int64 // per result row: receipt − due time of its closing tuple
	dueNS     []int64 // per result row: due time after phase start
	recvBytes int64   // result bytes (lines incl. newline) of this phase
	lastRecv  int64   // receipt of the phase's last result row
}

// checkResult is the verdict over a whole connection.
type checkResult struct {
	rows       int // result rows received
	missing    int // expected, never received
	unexpected int // received, not expected (duplicated or mismatched)
	errLines   int // ERR replies on the result socket
	firstDiff  string
}

func (c checkResult) failed() int { return c.missing + c.unexpected + c.errLines }

// pendingRow is an expected result row the socket has not produced yet.
type pendingRow struct {
	n     int   // copies outstanding
	phase int   // phase of the closing tuple
	due   int64 // due time of the closing tuple, ns after phase start
}

// verify replays the input of every phase through ref and matches the
// received result lines against it, exactly once each. A result row can
// only follow its closing tuple, so the checker advances the reference
// just far enough to explain the next received row; rows that are never
// explained are unexpected, expected rows that never arrive are missing.
// It fills each phase's latencies from the receive marks.
func verify(ref reference, inKinds, outKinds []colKind, inputs []*phaseInput, phases []*phaseTiming, recv []byte, marks []recvMark) (checkResult, error) {
	var res checkResult
	mi, pos := 0, 0 // current receive mark, read offset into recv
	// nextLine returns the next complete result line and its receipt time.
	nextLine := func() (line []byte, t int64, ok bool) {
		for pos < len(recv) {
			j := bytes.IndexByte(recv[pos:], '\n')
			if j < 0 {
				return nil, 0, false
			}
			line = recv[pos : pos+j]
			pos += j + 1
			for mi < len(marks)-1 && marks[mi].end < pos {
				mi++
			}
			if bytes.HasPrefix(line, []byte("ERR")) {
				res.errLines++
				if res.firstDiff == "" {
					res.firstDiff = "server replied: " + string(line)
				}
				continue
			}
			return line, marks[mi].t, true
		}
		return nil, 0, false
	}
	account := func(p pendingRow, t int64, lineLen int) {
		ph := phases[p.phase]
		ph.recvBytes += int64(lineLen)
		if t > ph.lastRecv {
			ph.lastRecv = t
		}
		if ph.rate > 0 {
			ph.latNS = append(ph.latNS, t-ph.startNS-p.due)
			ph.dueNS = append(ph.dueNS, p.due)
		}
	}

	pending := map[row]pendingRow{}
	var have bool // cur* hold a received row not yet explained
	var cur row
	var curT int64
	var curLen int
	// drain matches received rows for as long as pending explains them.
	drain := func() {
		for {
			if !have {
				line, t, ok := nextLine()
				if !ok {
					return
				}
				res.rows++
				r, err := parseRow(line, outKinds)
				if err != nil {
					res.unexpected++
					if res.firstDiff == "" {
						res.firstDiff = fmt.Sprintf("unparsable result row %q: %v", line, err)
					}
					continue
				}
				cur, curT, curLen, have = r, t, len(line)+1, true
			}
			p, ok := pending[cur]
			if !ok {
				return
			}
			if p.n--; p.n == 0 {
				delete(pending, cur)
			} else {
				pending[cur] = p
			}
			account(p, curT, curLen)
			have = false
		}
	}

	err := replay(ref, inKinds, inputs, func(pi int, tuple row, group []row) {
		ph := phases[pi]
		ph.expected += len(group)
		due := dueNS(tuple[0]-ph.firstSeq, max(ph.rate, 1))
		for _, r := range group {
			p := pending[r]
			if p.n == 0 {
				p = pendingRow{phase: pi, due: due}
			}
			p.n++
			pending[r] = p
		}
		drain()
	})
	if err != nil {
		return res, err
	}
	// The reference is exhausted. A row it could not explain when it was
	// read blocks the queue above; match the rest by value alone so one
	// bad row costs one failure, not every row behind it.
	for {
		if have {
			if p, ok := pending[cur]; ok {
				if p.n--; p.n == 0 {
					delete(pending, cur)
				} else {
					pending[cur] = p
				}
			} else {
				res.unexpected++
				if res.firstDiff == "" {
					res.firstDiff = fmt.Sprintf("unexpected result row %v", cur)
				}
			}
			have = false
		}
		line, _, ok := nextLine()
		if !ok {
			break
		}
		res.rows++
		if r, err := parseRow(line, outKinds); err == nil {
			cur, have = r, true
		} else {
			res.unexpected++
		}
	}
	for r, p := range pending {
		res.missing += p.n
		if res.firstDiff == "" {
			res.firstDiff = fmt.Sprintf("missing result row %v (phase %s)", r, phases[p.phase].name)
		}
	}
	return res, nil
}

// replay feeds every tuple of inputs, in order, through ref and calls emit
// for each tuple that releases result rows, with the index of its phase.
// group is only valid during the call.
func replay(ref reference, inKinds []colKind, inputs []*phaseInput, emit func(pi int, tuple row, group []row)) error {
	var group []row
	for pi, in := range inputs {
		data := in.data
		for i := 0; i < in.n; i++ {
			j := bytes.IndexByte(data, '\n')
			if j < 0 {
				return fmt.Errorf("input of phase %d ends after %d of %d tuples", pi, i, in.n)
			}
			tuple, err := parseRow(data[:j], inKinds)
			if err != nil {
				return fmt.Errorf("input tuple %d of phase %d: %w", i, pi, err)
			}
			data = data[j+1:]
			if group = ref.feed(tuple, group[:0]); len(group) > 0 {
				emit(pi, tuple, group)
			}
		}
	}
	return nil
}

// expectedRows runs a fresh reference over the inputs and returns, per
// phase, how many result rows have their closing tuple in that phase —
// what the driver waits for before it ends the phase.
func expectedRows(ref reference, inKinds []colKind, inputs []*phaseInput) ([]int, error) {
	counts := make([]int, len(inputs))
	err := replay(ref, inKinds, inputs, func(pi int, _ row, group []row) { counts[pi] += len(group) })
	return counts, err
}
