package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment tests run at small scale and assert the directional
// claims of the paper — who wins — not absolute numbers.

const testScale = Scale(0.02)

func parseRate(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse rate %q: %v", s, err)
	}
	return v
}

func TestF1(t *testing.T) {
	tbl, err := F1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if parseRate(t, tbl.Rows[0][3]) <= 0 {
		t.Error("zero throughput")
	}
	// Selectivity 50%: about half selected.
	total, _ := strconv.Atoi(tbl.Rows[0][0])
	selected, _ := strconv.Atoi(tbl.Rows[0][4])
	if selected < total/3 || selected > 2*total/3 {
		t.Errorf("selected = %d of %d, expected ~half", selected, total)
	}
	if tbl.String() == "" {
		t.Error("empty render")
	}
}

func TestE1SharedWinsAtScale(t *testing.T) {
	tbl, err := E1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The copy-elimination claim, by counter: separate appends every
	// ingested tuple once per query, shared once in all. (The rate columns
	// are for reading; on a loaded host they go either way.)
	for _, row := range tbl.Rows {
		if row[4] != row[0] {
			t.Errorf("N=%s: separate appended each tuple %s times, want N\n%s", row[0], row[4], tbl)
		}
		if row[5] != "1" {
			t.Errorf("N=%s: shared appended each tuple %s times, want 1\n%s", row[0], row[5], tbl)
		}
	}
}

func TestE2BulkBeatsTupleAtATime(t *testing.T) {
	tbl, err := E2(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The batching claim, by counter: the plan runs once per batch, so at
	// batch = 1 it runs once per tuple — the baseline's cost model — and
	// at the largest batch total/batch times. (The rate columns are for
	// reading; on a loaded host they go either way.)
	total := testScale.n(200_000)
	for _, row := range tbl.Rows {
		batch, _ := strconv.Atoi(row[0])
		firings, _ := strconv.Atoi(row[4])
		if want := (total + batch - 1) / batch; firings != want {
			t.Errorf("batch %d: %d firings for %d tuples, want %d\n%s", batch, firings, total, want, tbl)
		}
	}
}

func TestE3CascadeReducesWork(t *testing.T) {
	tbl, err := E3(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	examined := map[string]int{}
	for _, row := range tbl.Rows {
		n, _ := strconv.Atoi(row[3])
		examined[row[0]] = n
	}
	// Separate and shared both examine N×tuples; the cascade examines
	// strictly less (later stages see only rejected tuples).
	if examined["cascade"] >= examined["shared"] {
		t.Errorf("cascade examined %d, shared %d\n%s", examined["cascade"], examined["shared"], tbl)
	}
	if examined["separate"] != examined["shared"] {
		t.Errorf("separate (%d) and shared (%d) should examine the same tuple count",
			examined["separate"], examined["shared"])
	}
}

func TestE4IncrementalWins(t *testing.T) {
	tbl, err := E4(Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Incremental must win on the largest window.
	last := tbl.Rows[len(tbl.Rows)-1]
	re := parseRate(t, last[2])
	inc := parseRate(t, last[3])
	if inc <= re {
		t.Errorf("incremental (%.0f/s) should beat re-evaluation (%.0f/s)\n%s", inc, re, tbl)
	}
}

func TestE5ValidatesAndMeetsBound(t *testing.T) {
	tbl, err := E5(Scale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[6] != "PASS" {
			t.Errorf("L=%s misses the response bound\n%s", row[0], tbl)
		}
		if row[7] != "true" {
			t.Errorf("L=%s failed validation\n%s", row[0], tbl)
		}
	}
}

func TestE7OutputsMatchAndRetentionGrows(t *testing.T) {
	tbl, err := E7(Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// q1 drains fully every round; q2's basket grows monotonically with
	// the out-of-window tuples.
	for i, row := range tbl.Rows {
		q1len, _ := strconv.Atoi(row[1])
		if q1len != 0 {
			t.Errorf("round %d: q1 basket = %d, want 0", i+1, q1len)
		}
	}
	firstQ2, _ := strconv.Atoi(tbl.Rows[0][3])
	lastQ2, _ := strconv.Atoi(tbl.Rows[len(tbl.Rows)-1][3])
	if lastQ2 <= firstQ2 {
		t.Errorf("q2 retention should grow: %d -> %d", firstQ2, lastQ2)
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "matching tuples") {
			found = true
		}
	}
	if !found {
		t.Error("missing output-match note")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"111", "2"}},
		Notes:  []string{"n"},
	}
	s := tbl.String()
	if !strings.Contains(s, "== X: t ==") || !strings.Contains(s, "note: n") {
		t.Errorf("render = %q", s)
	}
}
