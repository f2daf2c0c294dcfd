package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func fbits(v float64) int64 { return int64(math.Float64bits(v)) }

func TestParseRow(t *testing.T) {
	r, err := parseRow([]byte("7,42,0.5125"), []colKind{kInt, kInt, kFloat})
	if err != nil || r != (row{7, 42, fbits(0.5125)}) {
		t.Errorf("got %v, %v", r, err)
	}
	for _, bad := range []string{"7,42", "7,42,0.5,9", "x,1,0.5", "", "1,2,zz"} {
		if _, err := parseRow([]byte(bad), []colKind{kInt, kInt, kFloat}); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestRefFilterAndProbe(t *testing.T) {
	var out []row
	out = refFilter{}.feed(row{1, 5, fbits(0.5)}, out)
	out = refFilter{}.feed(row{2, 5, fbits(0.5001)}, out)
	if len(out) != 1 || out[0][0] != 2 {
		t.Errorf("filter v > 0.5 passed %v", out)
	}
	out = refProbe{}.feed(row{1, fanoutProbe, 0}, out[:0])
	out = refProbe{}.feed(row{2, fanoutProbe - 1, 0}, out)
	if len(out) != 1 || out[0][0] != 2 {
		t.Errorf("probe k < %d passed %v", fanoutProbe, out)
	}
}

// Window [s, s+size) is released by the first tuple whose event time
// reaches s+size+lateness, and by no earlier one.
func TestRefWindowClosingTuple(t *testing.T) {
	w := newRefWindow()
	var out []row
	feed := func(seq, k, v, et int64) []row { out = w.feed(row{seq, k, v, et}, out[:0]); return out }
	for seq := int64(0); seq < windowSize; seq++ {
		if got := feed(seq, seq%2, 1, seq); len(got) != 0 {
			t.Fatalf("seq %d released %v", seq, got)
		}
	}
	// A displaced tuple of window 0 arrives while window 1 fills.
	if got := feed(windowSize, 0, 5, windowSize-3); len(got) != 0 {
		t.Fatalf("displaced tuple released %v", got)
	}
	for seq := int64(windowSize + 1); seq < windowSize+windowLateness; seq++ {
		if got := feed(seq, 1, 1, seq); len(got) != 0 {
			t.Fatalf("seq %d (et below end+lateness) released %v", seq, got)
		}
	}
	got := feed(windowSize+windowLateness, 1, 1, windowSize+windowLateness)
	want := []row{
		{0, windowSize/2 + 1, windowSize/2 + 5, windowSize}, // key 0: 512 in-order tuples + the displaced one (v=5, seq=1024)
		{1, windowSize / 2, windowSize / 2, windowSize - 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("closing tuple released %v, want %v", got, want)
	}
	// Nothing of window 0 is released twice.
	if got := feed(windowSize+windowLateness+1, 1, 1, windowSize+windowLateness+1); len(got) != 0 {
		t.Errorf("next tuple released %v", got)
	}
}

// checkCase feeds verify a two-phase filter input and the given result
// socket content.
func checkCase(t *testing.T, recv string, marks []recvMark) (checkResult, []*phaseTiming) {
	t.Helper()
	kinds := []colKind{kInt, kInt, kFloat}
	var a, b strings.Builder
	// seq 0..3 in phase a (1000/s), 4..7 in phase b; odd seqs pass.
	for seq := 0; seq < 8; seq++ {
		v := "0.2500"
		if seq%2 == 1 {
			v = "0.7500"
		}
		dst := &a
		if seq >= 4 {
			dst = &b
		}
		fmt.Fprintf(dst, "%d,9,%s\n", seq, v)
	}
	inputs := []*phaseInput{{firstSeq: 0, n: 4, data: []byte(a.String()), rate: 1000}, {firstSeq: 4, n: 4, data: []byte(b.String())}}
	phases := []*phaseTiming{{name: "a", firstSeq: 0, n: 4, rate: 1000, startNS: 1_000_000}, {name: "b", firstSeq: 4, n: 4}}
	if marks == nil {
		marks = []recvMark{{end: len(recv), t: 9_000_000}}
	}
	res, err := verify(refFilter{}, kinds, kinds, inputs, phases, []byte(recv), marks)
	if err != nil {
		t.Fatal(err)
	}
	return res, phases
}

func TestVerifyExactlyOnce(t *testing.T) {
	good := "1,9,0.75\n3,9,0.75\n5,9,0.75\n7,9,0.75\n"
	res, phases := checkCase(t, good, nil)
	if res.failed() != 0 || res.rows != 4 {
		t.Errorf("clean run: %+v", res)
	}
	if phases[0].expected != 2 || phases[1].expected != 2 {
		t.Errorf("expected rows per phase = %d, %d; want 2, 2", phases[0].expected, phases[1].expected)
	}
	for name, c := range map[string]struct {
		recv                string
		missing, unexpected int
	}{
		"missing row":     {"1,9,0.75\n5,9,0.75\n7,9,0.75\n", 1, 0},
		"duplicated row":  {"1,9,0.75\n3,9,0.75\n3,9,0.75\n5,9,0.75\n7,9,0.75\n", 0, 1},
		"mismatched row":  {"1,9,0.75\n3,8,0.75\n5,9,0.75\n7,9,0.75\n", 1, 1},
		"filtered row":    {"1,9,0.75\n2,9,0.25\n3,9,0.75\n5,9,0.75\n7,9,0.75\n", 0, 1},
		"garbage":         {"1,9,0.75\nhello\n3,9,0.75\n5,9,0.75\n7,9,0.75\n", 0, 1},
		"reordered rows":  {"3,9,0.75\n1,9,0.75\n5,9,0.75\n7,9,0.75\n", 0, 0},
		"nothing at all":  {"", 4, 0},
		"unfinished line": {"1,9,0.75\n3,9,0.75\n5,9,0.75\n7,9,0.7", 1, 0},
	} {
		res, _ := checkCase(t, c.recv, nil)
		if res.missing != c.missing || res.unexpected != c.unexpected {
			t.Errorf("%s: missing=%d unexpected=%d, want %d and %d (%s)", name, res.missing, res.unexpected, c.missing, c.unexpected, res.firstDiff)
		}
	}
	res, _ = checkCase(t, "ERR no such query\n", nil)
	if res.errLines != 1 || res.failed() != 5 {
		t.Errorf("ERR reply: %+v", res)
	}
}

// Latency runs from the due time of the closing tuple to the read that
// delivered the row's newline.
func TestVerifyLatencyFromDueTime(t *testing.T) {
	recv := "1,9,0.75\n3,9,0.75\n5,9,0.75\n7,9,0.75\n"
	marks := []recvMark{{end: 9, t: 3_000_000}, {end: 12, t: 4_000_000}, {end: 18, t: 6_000_000}, {end: len(recv), t: 8_000_000}}
	_, phases := checkCase(t, recv, marks)
	a := phases[0]
	// Phase a starts at 1 ms, 1000 tuples/s: seq 1 is due at 2 ms, seq 3 at 4 ms.
	// Row 1 ends with the first read (3 ms); row 3's newline arrives with the third (6 ms).
	if fmt.Sprint(a.latNS) != fmt.Sprint([]int64{1_000_000, 2_000_000}) {
		t.Errorf("latencies %v, want [1ms 2ms]", a.latNS)
	}
	if fmt.Sprint(a.dueNS) != fmt.Sprint([]int64{1_000_000, 3_000_000}) {
		t.Errorf("due times %v", a.dueNS)
	}
	if a.recvBytes != 18 || a.lastRecv != 6_000_000 {
		t.Errorf("recvBytes=%d lastRecv=%d", a.recvBytes, a.lastRecv)
	}
	if b := phases[1]; len(b.latNS) != 0 || b.lastRecv != 8_000_000 || b.recvBytes != 18 {
		t.Errorf("flat-out phase: lat=%v lastRecv=%d bytes=%d", b.latNS, b.lastRecv, b.recvBytes)
	}
}

func TestExpectedRowsPerPhase(t *testing.T) {
	gen := newGenWindow()
	r := newRNG(5)
	a := encodePhase(gen, r, 0, 16*flushRows, 0)
	b := encodePhase(gen, r, int64(a.n), 16*flushRows, 0)
	counts, err := expectedRows(newRefWindow(), []colKind{kInt, kInt, kInt, kInt}, []*phaseInput{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// 2048 tuples per phase: window 0 closes in phase a (at et 1152), windows
	// 1 and 2 in phase b (at 2176 and 3200); window 3 never closes.
	if counts[0] == 0 || counts[1] <= counts[0] {
		t.Errorf("rows per phase = %v", counts)
	}
	whole := encodePhase(newGenWindow(), newRNG(5), 0, 32*flushRows, 0)
	total, err := expectedRows(newRefWindow(), []colKind{kInt, kInt, kInt, kInt}, []*phaseInput{whole})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != counts[0]+counts[1] {
		t.Errorf("split phases expect %d+%d rows, one phase %d", counts[0], counts[1], total[0])
	}
}
