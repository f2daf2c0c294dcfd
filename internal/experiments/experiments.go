// Package experiments implements the paper-reproduction harness: one
// driver per experiment (F1, E1–E7; see docs/ARCHITECTURE.md), each returning a
// printable table. cmd/dcbench renders them; the test suite asserts the
// directional claims (who wins) on scaled-down configurations.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/basket"
	"repro/internal/datacell"
	"repro/internal/obs"
	"repro/internal/vector"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale shrinks or grows experiment sizes; 1.0 is the full dcbench run,
// tests use smaller factors.
type Scale float64

func (s Scale) n(full int) int {
	v := int(float64(full) * float64(s))
	if v < 1 {
		return 1
	}
	return v
}

// intStream produces n deterministic pseudo-random ints in [0, domain).
func intStream(n, domain int) [][]vector.Value {
	rows := make([][]vector.Value, n)
	x := uint64(88172645463325252)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rows[i] = []vector.Value{vector.NewInt(int64(x % uint64(domain)))}
	}
	return rows
}

func fmtRate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", float64(n)/d.Seconds())
}

// F1 measures the Figure-1 pipeline: receptor → basket → factory →
// basket → emitter, one range-filter query.
func F1(scale Scale) (*Table, error) {
	total := scale.n(1_000_000)
	batch := 10_000
	if batch > total {
		batch = total
	}
	eng, err := openS(datacell.Config{})
	if err != nil {
		return nil, err
	}
	q, err := register(eng, "f1", "polling = true",
		"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 250 AND x.v < 750")
	if err != nil {
		return nil, err
	}
	rows := intStream(total, 1000)
	start := time.Now()
	for i := 0; i < total; i += batch {
		end := i + batch
		if end > total {
			end = total
		}
		if err := eng.Ingest(context.Background(), "s", rows[i:end]); err != nil {
			return nil, err
		}
		eng.Drain()
	}
	elapsed := time.Since(start)
	st := q.Stats()
	tbl := &Table{
		ID:     "F1",
		Title:  "Figure 1 pipeline: one continuous range filter",
		Header: []string{"tuples", "batch", "elapsed", "tuples/s", "selected", "batch latency p50", "p99"},
		Rows: [][]string{{
			fmt.Sprint(total), fmt.Sprint(batch), elapsed.Round(time.Millisecond).String(),
			fmtRate(total, elapsed), fmt.Sprint(st.TuplesOut),
			time.Duration(q.Latency().Quantile(0.5)).String(),
			time.Duration(q.Latency().Quantile(0.99)).String(),
		}},
	}
	return tbl, nil
}

// E1 compares the separate- and shared-baskets strategies as the number
// of standing queries grows (§2.5: sharing eliminates the input copy).
func E1(scale Scale) (*Table, error) {
	total := scale.n(200_000)
	tbl := &Table{
		ID:     "E1",
		Title:  "separate vs shared baskets, N identical-stream range queries",
		Header: []string{"queries", "separate tuples/s", "shared tuples/s", "shared/separate", "separate input copies", "shared input copies"},
		Notes: []string{
			"same filter per query; separate replicates the input N times",
			"input copies: tuples appended across the queries' input baskets, per ingested tuple",
		},
	}
	for _, nq := range []int{1, 2, 4, 8, 16, 32, 64} {
		sep, sepIn, err := e1Run(datacell.SeparateBaskets, nq, total)
		if err != nil {
			return nil, err
		}
		sh, shIn, err := e1Run(datacell.SharedBaskets, nq, total)
		if err != nil {
			return nil, err
		}
		sepRate := float64(total) / sep.Seconds()
		shRate := float64(total) / sh.Seconds()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(nq),
			fmt.Sprintf("%.0f", sepRate),
			fmt.Sprintf("%.0f", shRate),
			fmt.Sprintf("%.2fx", shRate/sepRate),
			fmt.Sprint(sepIn / int64(total)),
			fmt.Sprint(shIn / int64(total)),
		})
	}
	return tbl, nil
}

// e1Run returns the elapsed time and the number of tuples appended across
// the queries' distinct input baskets — the copy work the strategies
// differ in, which unlike the elapsed time does not depend on the host.
func e1Run(strategy datacell.Strategy, nq, total int) (time.Duration, int64, error) {
	eng, err := openS(datacell.Config{})
	if err != nil {
		return 0, 0, err
	}
	inputs := map[*basket.Basket]bool{}
	for i := 0; i < nq; i++ {
		q, err := register(eng, fmt.Sprintf("q%d", i), "polling = true, strategy = "+strategy.String(),
			"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 200")
		if err != nil {
			return 0, 0, err
		}
		for _, b := range q.Inputs() {
			inputs[b] = true
		}
	}
	rows := intStream(total, 1000)
	const batch = 10_000
	start := time.Now()
	for i := 0; i < total; i += batch {
		end := i + batch
		if end > total {
			end = total
		}
		if err := eng.Ingest(context.Background(), "s", rows[i:end]); err != nil {
			return 0, 0, err
		}
		eng.Drain()
	}
	elapsed := time.Since(start)
	var appended int64
	for b := range inputs {
		_, resident, consumed, _ := b.Stats()
		appended += int64(resident) + consumed
	}
	return elapsed, appended, nil
}

// E2 compares DataCell's bulk processing against the tuple-at-a-time
// baseline across scheduler batch sizes (§4's batch-processing claim).
// The baseline is the queued variant: one operator thread per query fed a
// tuple at a time — the transport cost that defines the model.
func E2(scale Scale) (*Table, error) {
	total := scale.n(200_000)
	rows := intStream(total, 1000)
	col := vector.NewWithCap(vector.Int64, total)
	for _, r := range rows {
		col.AppendInt(r[0].I)
	}

	be := baseline.NewQueued()
	q := &baseline.Query{
		Name: "b",
		Ops: []baseline.Operator{&baseline.RangeFilter{
			Attr: 0, Lo: vector.NewInt(100), Hi: vector.NewInt(200),
		}},
	}
	if err := be.Subscribe("s", q); err != nil {
		return nil, err
	}
	bStart := time.Now()
	for _, r := range rows {
		be.Push("s", r)
	}
	be.Close()
	bElapsed := time.Since(bStart)
	bRate := float64(total) / bElapsed.Seconds()

	tbl := &Table{
		ID:     "E2",
		Title:  "bulk (DataCell) vs tuple-at-a-time (queued baseline), batch-size sweep",
		Header: []string{"batch", "datacell tuples/s", "baseline tuples/s", "datacell/baseline", "datacell firings"},
		Notes: []string{
			"baseline rate is batch-independent: every tuple takes the operator queue",
			"firings: plan executions for the whole input; the baseline runs its operator once per tuple",
		},
	}
	for _, batch := range []int{1, 10, 100, 1_000, 10_000, 50_000} {
		if batch > total {
			break
		}
		eng, err := openS(datacell.Config{})
		if err != nil {
			return nil, err
		}
		q, err := register(eng, "q", "polling = true",
			"SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= 100 AND x.v < 200")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < total; i += batch {
			end := i + batch
			if end > total {
				end = total
			}
			if err := eng.IngestColumns(context.Background(), "s", []*vector.Vector{col.Window(i, end)}); err != nil {
				return nil, err
			}
			eng.Drain()
		}
		elapsed := time.Since(start)
		rate := float64(total) / elapsed.Seconds()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(batch),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.0f", bRate),
			fmt.Sprintf("%.2fx", rate/bRate),
			fmt.Sprint(q.Stats().Firings),
		})
	}
	return tbl, nil
}

// openS opens a volatile engine holding the one stream every experiment
// reads, s (v INT).
func openS(cfg datacell.Config) (*datacell.Engine, error) {
	ctx := context.Background()
	eng, err := datacell.Open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	_, err = eng.Exec(ctx, "CREATE BASKET s (v INT)")
	return eng, err
}

// register creates the continuous query name with the given WITH list and
// returns it.
func register(eng *datacell.Engine, name, with, text string) (*datacell.Query, error) {
	stmt := "CREATE CONTINUOUS QUERY " + name + " WITH (" + with + ") AS " + text
	if _, err := eng.Exec(context.Background(), stmt); err != nil {
		return nil, err
	}
	return eng.Query(name)
}

// ParseLatency summarizes a histogram as (p50, p99, max) strings.
func ParseLatency(h *obs.Histogram) (string, string, string) {
	return time.Duration(h.Quantile(0.5)).String(),
		time.Duration(h.Quantile(0.99)).String(),
		time.Duration(h.Max()).String()
}
