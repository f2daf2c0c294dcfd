package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datacell"
	"repro/internal/linearroad"
	"repro/internal/vector"
)

// E3 measures the cascade strategy against shared and separate baskets
// for k disjoint range queries (§2.5: later stages process fewer tuples).
func E3(scale Scale) (*Table, error) {
	total := scale.n(200_000)
	const k = 8
	const domain = 80 // ranges of width 10 cover the whole domain
	rows := intStream(total, domain)

	tbl := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("cascade vs shared vs separate, %d disjoint range queries", k),
		Header: []string{"strategy", "elapsed", "tuples/s", "tuples examined"},
		Notes:  []string{"examined: total tuples every query/stage had to look at"},
	}

	for _, strategy := range []datacell.Strategy{datacell.SeparateBaskets, datacell.SharedBaskets} {
		eng, err := openS(datacell.Config{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			_, err := register(eng, fmt.Sprintf("q%d", i), "polling = true, strategy = "+strategy.String(),
				fmt.Sprintf("SELECT * FROM [SELECT * FROM s] AS x WHERE x.v >= %d AND x.v < %d", i*10, (i+1)*10))
			if err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := eng.Ingest(context.Background(), "s", rows); err != nil {
			return nil, err
		}
		eng.Drain()
		elapsed := time.Since(start)
		var examined int64
		for i := 0; i < k; i++ {
			q, _ := eng.Query(fmt.Sprintf("q%d", i))
			examined += q.Stats().TuplesIn
		}
		tbl.Rows = append(tbl.Rows, []string{
			strategy.String(), elapsed.Round(time.Millisecond).String(),
			fmtRate(total, elapsed), fmt.Sprint(examined),
		})
	}

	// Cascade.
	eng, err := openS(datacell.Config{})
	if err != nil {
		return nil, err
	}
	preds := make([]datacell.CascadePredicate, k)
	for i := range preds {
		preds[i] = datacell.CascadePredicate{
			Attr: "v", Lo: vector.NewInt(int64(i * 10)), Hi: vector.NewInt(int64((i + 1) * 10)),
		}
	}
	c, err := eng.RegisterCascade("casc", "s", preds)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := eng.Ingest(context.Background(), "s", rows); err != nil {
		return nil, err
	}
	eng.Drain()
	elapsed := time.Since(start)
	var examined int64
	for i := 0; i < c.Stages(); i++ {
		examined += c.Processed(i)
	}
	tbl.Rows = append(tbl.Rows, []string{
		"cascade", elapsed.Round(time.Millisecond).String(),
		fmtRate(total, elapsed), fmt.Sprint(examined),
	})
	return tbl, nil
}

// E4 compares window re-evaluation against incremental basic-window
// evaluation for sliding aggregates (§3.1).
func E4(scale Scale) (*Table, error) {
	total := scale.n(400_000)
	tbl := &Table{
		ID:     "E4",
		Title:  "sliding-window SUM/AVG/MIN/MAX: re-evaluation vs incremental",
		Header: []string{"window", "slide", "re-eval tuples/s", "incremental tuples/s", "incremental/re-eval"},
	}
	for _, w := range []int{1_000, 4_000, 16_000, 64_000} {
		if w*2 > total {
			break
		}
		slide := w / 8
		re, err := e4Run("reeval", w, slide, total)
		if err != nil {
			return nil, err
		}
		inc, err := e4Run("incremental", w, slide, total)
		if err != nil {
			return nil, err
		}
		reRate := float64(total) / re.Seconds()
		incRate := float64(total) / inc.Seconds()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(w), fmt.Sprint(slide),
			fmt.Sprintf("%.0f", reRate), fmt.Sprintf("%.0f", incRate),
			fmt.Sprintf("%.2fx", incRate/reRate),
		})
	}
	return tbl, nil
}

func e4Run(mode string, w, slide, total int) (time.Duration, error) {
	eng, err := openS(datacell.Config{})
	if err != nil {
		return 0, err
	}
	q := fmt.Sprintf(`SELECT SUM(x.v) AS s, AVG(x.v) AS a, MIN(x.v) AS lo, MAX(x.v) AS hi
		FROM [SELECT * FROM s] AS x WINDOW ROWS %d SLIDE %d`, w, slide)
	if _, err := register(eng, "w", "polling = true, window_mode = "+mode, q); err != nil {
		return 0, err
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
			return 0, err
		}
		eng.Drain()
	}
	return time.Since(start), nil
}

// E5 runs the scaled Linear Road benchmark and validates against the
// oracle (§5's "out of the box" claim).
func E5(scale Scale) (*Table, error) {
	tbl := &Table{
		ID:     "E5",
		Title:  "Linear Road (scaled): throughput, response time, validation",
		Header: []string{"L", "reports", "reports/s", "notifications", "resp p99", "resp max", "bound", "validated"},
	}
	duration := scale.n(600)
	if duration < 180 {
		duration = 180
	}
	for _, l := range []int{1, 2} {
		cfg := linearroad.GenConfig{
			XWays: l, VehiclesPerXWay: scale.n(200), DurationSec: duration,
			Seed: 42, AccidentEverySec: 120,
		}
		recs := linearroad.Generate(cfg)
		want := linearroad.Reference(recs)
		sys, err := linearroad.NewSystem()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := sys.Run(recs); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		got := sys.Notifications()
		validated := len(got) == len(want)
		if validated {
			for i := range want {
				if got[i] != want[i] {
					validated = false
					break
				}
			}
		}
		maxResp := time.Duration(sys.Latency.Max())
		bound := "PASS"
		if maxResp >= 5*time.Second {
			bound = "FAIL"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(l), fmt.Sprint(len(recs)), fmtRate(len(recs), elapsed),
			fmt.Sprint(len(got)),
			time.Duration(sys.Latency.Quantile(0.99)).Round(time.Microsecond).String(),
			maxResp.Round(time.Microsecond).String(),
			bound, fmt.Sprint(validated),
		})
	}
	return tbl, nil
}

// E6 sweeps the offered input rate against a fixed query set and reports
// the latency curve — the knee locates the sustainable throughput.
func E6(scale Scale) (*Table, error) {
	tbl := &Table{
		ID:     "E6",
		Title:  "latency vs offered rate (concurrent scheduler)",
		Header: []string{"offered/s", "achieved/s", "latency p50", "p99", "max"},
		Notes:  []string{"latency: factory batch completion minus newest input timestamp"},
	}
	for _, rate := range []int{10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000} {
		offered := scale.n(rate)
		row, err := e6Run(offered)
		if err != nil {
			return nil, err
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

func e6Run(rate int) ([]string, error) {
	eng, err := openS(datacell.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	q, err := register(eng, "q", "polling = true", "SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x")
	if err != nil {
		return nil, err
	}
	if err := eng.Start(context.Background()); err != nil {
		return nil, err
	}
	defer eng.Stop(context.Background())

	const runFor = 400 * time.Millisecond
	const tick = 5 * time.Millisecond
	perTick := rate * int(tick) / int(time.Second)
	if perTick < 1 {
		perTick = 1
	}
	rows := intStream(perTick, 1000)
	sent := 0
	start := time.Now()
	for time.Since(start) < runFor {
		tickStart := time.Now()
		if err := eng.Ingest(context.Background(), "s", rows); err != nil {
			return nil, err
		}
		sent += perTick
		if d := tick - time.Since(tickStart); d > 0 {
			time.Sleep(d)
		}
	}
	// Allow the engine to finish the backlog.
	deadline := time.Now().Add(2 * time.Second)
	for q.Stats().TuplesIn < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	p50, p99, max := ParseLatency(q.Latency())
	return []string{
		fmt.Sprint(rate),
		fmtRate(int(q.Stats().TuplesIn), elapsed),
		p50, p99, max,
	}, nil
}

// E7 contrasts the paper's q1 (consume-all) with q2 (predicate window):
// q2's basket expression consumes only in-window tuples, leaving the rest
// behind — richer semantics, paid for by re-examining retained tuples.
func E7(scale Scale) (*Table, error) {
	rounds := 10
	perRound := scale.n(20_000)
	tbl := &Table{
		ID:     "E7",
		Title:  "q1 consume-all vs q2 predicate window (50% in-window)",
		Header: []string{"round", "q1 basket", "q1 round time", "q2 basket", "q2 round time"},
		Notes: []string{
			"q2 retains out-of-window tuples and re-examines them each firing",
			"matching output is identical (verified)",
		},
	}

	mk := func(query string) (*datacell.Engine, *datacell.Query, error) {
		eng, err := openS(datacell.Config{})
		if err != nil {
			return nil, nil, err
		}
		q, err := register(eng, "q", "polling = true", query)
		return eng, q, err
	}
	e1, q1, err := mk("SELECT * FROM [SELECT * FROM s] AS x WHERE x.v < 500 AND x.v % 2 = 0")
	if err != nil {
		return nil, err
	}
	e2, q2, err := mk("SELECT * FROM [SELECT * FROM s WHERE v < 500] AS x WHERE x.v % 2 = 0")
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		rows := intStream(perRound, 1000)
		t1 := time.Now()
		if err := e1.Ingest(context.Background(), "s", rows); err != nil {
			return nil, err
		}
		e1.Drain()
		d1 := time.Since(t1)
		t2 := time.Now()
		if err := e2.Ingest(context.Background(), "s", rows); err != nil {
			return nil, err
		}
		e2.Drain()
		d2 := time.Since(t2)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r + 1),
			fmt.Sprint(q1.InputBacklog()),
			d1.Round(time.Microsecond).String(),
			fmt.Sprint(q2.InputBacklog()),
			d2.Round(time.Microsecond).String(),
		})
	}
	if q1.Stats().TuplesOut != q2.Stats().TuplesOut {
		return nil, fmt.Errorf("E7: output mismatch: %d vs %d",
			q1.Stats().TuplesOut, q2.Stats().TuplesOut)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("both variants emitted %d matching tuples", q1.Stats().TuplesOut))
	return tbl, nil
}

// All runs every experiment at the given scale.
func All(scale Scale) ([]*Table, error) {
	type runner struct {
		id string
		fn func(Scale) (*Table, error)
	}
	var out []*Table
	for _, r := range []runner{
		{"F1", F1}, {"E1", E1}, {"E2", E2}, {"E3", E3},
		{"E4", E4}, {"E5", E5}, {"E6", E6}, {"E7", E7},
	} {
		tbl, err := r.fn(scale)
		if err != nil {
			return out, fmt.Errorf("%s: %w", r.id, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}
