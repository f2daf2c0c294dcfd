// Command windowed runs sliding-window trading analytics over a synthetic
// tick stream: a 1000-trade window sliding by 100 computes per-symbol
// volume-weighted statistics, evaluated incrementally (per-pane summaries,
// §3.1's basic-window model). A second identical query runs in
// re-evaluation mode to show both strategies produce the same answers at
// different costs.
//
// The second half demonstrates event-time windows under out-of-order
// arrival: trades carry their own exchange timestamp, the feed delivers
// them shuffled within a bounded delay, and a watermarked WINDOW RANGE
// query (WITH (timestamp = et, lateness = ...)) still produces exactly
// the windows a sorted feed would — while stragglers beyond the bound
// are counted as late instead of corrupting past windows.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	datacell "repro"
)

const (
	nTrades = 50_000
	window  = 1000
	slide   = 100
)

var symbols = []string{"ACME", "WIDG", "GLOB", "NANO"}

func main() {
	ctx := context.Background()
	eng, err := datacell.Open(ctx, datacell.Config{})
	if err != nil {
		log.Fatal(err)
	}
	datacell.MustExec(eng, "CREATE BASKET trades (sym VARCHAR, price DOUBLE, qty INT)")

	query := fmt.Sprintf(`
		SELECT t.sym AS sym, COUNT(*) AS trades, AVG(t.price) AS avg_price,
		       MIN(t.price) AS low, MAX(t.price) AS high, SUM(t.qty) AS volume
		FROM [SELECT * FROM trades] AS t
		GROUP BY t.sym
		WINDOW ROWS %d SLIDE %d`, window, slide)

	// The two standing queries differ only in their WITH options — the
	// window evaluation strategy and the subscription depth are DDL.
	datacell.MustExec(eng, fmt.Sprintf(
		"CREATE CONTINUOUS QUERY stats_incremental WITH (window_mode = incremental, depth = 4096) AS %s", query))
	datacell.MustExec(eng, fmt.Sprintf(
		"CREATE CONTINUOUS QUERY stats_reeval WITH (window_mode = reeval, depth = 4096) AS %s", query))
	inc, err := eng.Query("stats_incremental")
	if err != nil {
		log.Fatal(err)
	}
	re, err := eng.Query("stats_reeval")
	if err != nil {
		log.Fatal(err)
	}

	// Generate the tick stream (deterministic).
	rng := rand.New(rand.NewSource(7))
	price := map[string]float64{}
	for _, s := range symbols {
		price[s] = 100
	}
	rows := make([][]datacell.Value, nTrades)
	for i := range rows {
		sym := symbols[rng.Intn(len(symbols))]
		price[sym] *= 1 + (rng.Float64()-0.5)/100
		rows[i] = []datacell.Value{
			datacell.Str(sym),
			datacell.Float(price[sym]),
			datacell.Int(int64(1 + rng.Intn(100))),
		}
	}

	start := time.Now()
	if err := eng.Ingest(ctx, "trades", rows); err != nil {
		log.Fatal(err)
	}
	eng.Drain()
	elapsed := time.Since(start)

	incWindows, reWindows := drain(inc), drain(re)
	if len(incWindows) != len(reWindows) {
		log.Fatalf("strategy disagreement: %d vs %d windows", len(incWindows), len(reWindows))
	}
	fmt.Printf("%d trades, window %d slide %d → %d window results per strategy (%.0f trades/s including both)\n\n",
		nTrades, window, slide, len(incWindows), float64(nTrades)/elapsed.Seconds())

	last := incWindows[len(incWindows)-1]
	fmt.Printf("latest result batch (may span windows):\n%-6s %8s %10s %10s %10s %9s\n",
		"sym", "trades", "avg", "low", "high", "volume")
	for i := 0; i < last.NumRows(); i++ {
		row := last.Row(i)
		fmt.Printf("%-6s %8d %10.2f %10.2f %10.2f %9d\n",
			row[0].S, row[1].I, row[2].F, row[3].F, row[4].F, row[5].I)
	}

	eventTimeDemo(ctx, eng, rng)
}

// eventTimeDemo: out-of-order event time with a watermark. Trades carry
// an exchange timestamp (et, in ms); the feed shuffles them within a
// 200ms delivery delay, and two stragglers arrive a full second late.
func eventTimeDemo(ctx context.Context, eng *datacell.Engine, rng *rand.Rand) {
	const lateness = 200 // ms of tolerated disorder
	datacell.MustExec(eng, "CREATE BASKET ticks (sym VARCHAR, qty INT, et INT)")
	datacell.MustExec(eng, fmt.Sprintf(`
		CREATE CONTINUOUS QUERY per_second WITH (timestamp = et, lateness = %d, depth = 4096) AS
		SELECT t.sym AS sym, COUNT(*) AS trades, SUM(t.qty) AS volume
		FROM [SELECT * FROM ticks] AS t
		GROUP BY t.sym
		WINDOW RANGE 1000`, lateness))
	q, err := eng.Query("per_second")
	if err != nil {
		log.Fatal(err)
	}

	// 5 seconds of trades, one every ~5ms, delivered out of order: each
	// tuple is delayed by up to lateness/2 relative to its event time.
	type tick struct {
		sym string
		qty int64
		et  int64
	}
	var feed []tick
	for et := int64(0); et < 5000; et += 5 {
		feed = append(feed, tick{symbols[rng.Intn(len(symbols))], int64(1 + rng.Intn(9)), et})
	}
	rng.Shuffle(len(feed), func(i, j int) {
		if d := feed[i].et - feed[j].et; -lateness/2 < d && d < lateness/2 {
			feed[i], feed[j] = feed[j], feed[i]
		}
	})
	rows := make([][]datacell.Value, len(feed))
	for i, t := range feed {
		rows[i] = []datacell.Value{datacell.Str(t.sym), datacell.Int(t.qty), datacell.Int(t.et)}
	}
	if err := eng.Ingest(ctx, "ticks", rows); err != nil {
		log.Fatal(err)
	}
	eng.Drain() // process the feed: windows up to the watermark emit
	// Two stragglers from the first second surface only now — a full
	// four seconds behind the watermark, far beyond the lateness bound.
	late := [][]datacell.Value{
		{datacell.Str("ACME"), datacell.Int(1), datacell.Int(250)},
		{datacell.Str("WIDG"), datacell.Int(1), datacell.Int(700)},
	}
	if err := eng.Ingest(ctx, "ticks", late); err != nil {
		log.Fatal(err)
	}
	eng.Drain()

	windows := drain(q)
	wm, _ := q.Watermark()
	fmt.Printf("\nevent-time windows (1s tumbling, lateness %dms, shuffled feed):\n", lateness)
	fmt.Printf("%d window batches emitted, watermark at %dms, late tuples dropped+counted: %d\n",
		len(windows), wm, q.LateTuples())
	for _, rel := range windows {
		for i := 0; i < rel.NumRows(); i++ {
			row := rel.Row(i)
			fmt.Printf("  %-6s trades=%3d volume=%4d\n", row[0].S, row[1].I, row[2].I)
		}
	}
}

func drain(q *datacell.Query) []*datacell.Relation {
	var out []*datacell.Relation
	for {
		rel, _ := q.Subscription().TryRecv()
		if rel == nil {
			return out
		}
		out = append(out, rel)
	}
}
