package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Source B of the per-layer metrics: a repeat of the open-loop phases
// against a daemon started with -metrics, scraping /metrics at the start
// and end of each phase and its gauges once a second in between.

// phaseScrape is what was scraped around one phase.
type phaseScrape struct {
	before, after scrape
	seconds       float64
	gauges        []scrape  // one page per second of the phase
	wmLagTicks    []float64 // per second: event-time ticks the watermark trails the newest ingested tuple by
	err           error
}

// liveScraper is the runConfig.scrape hook of a traced run.
type liveScraper struct {
	ctx    context.Context
	w      *workload
	phases map[string]*phaseScrape
}

func newLiveScraper(ctx context.Context, w *workload) *liveScraper {
	return &liveScraper{ctx: ctx, w: w, phases: map[string]*phaseScrape{}}
}

// begin scrapes the counters, starts the once-a-second sampler and returns
// the function that ends both.
func (l *liveScraper) begin(phase string, d *daemon) func() {
	ps := &phaseScrape{}
	l.phases[phase] = ps
	ps.before, ps.err = scrapeURL(l.ctx, d.metricsURL)
	start := time.Now()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ctl, err := dialSQL(d.sqlAddr)
		if err != nil {
			ps.err = err
			return
		}
		defer ctl.close()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			page, err := scrapeURL(l.ctx, d.metricsURL)
			if err != nil {
				ps.err = err
				return
			}
			ps.gauges = append(ps.gauges, page)
			if lag, ok, err := watermarkLagTicks(ctl, l.w); err != nil {
				ps.err = err
				return
			} else if ok {
				ps.wmLagTicks = append(ps.wmLagTicks, lag)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		ps.seconds = time.Since(start).Seconds()
		var err error
		if ps.after, err = scrapeURL(l.ctx, d.metricsURL); err != nil && ps.err == nil {
			ps.err = err
		}
	}
}

// showColumn runs a SHOW statement and returns the named column of the row
// whose first column is key.
func showColumn(ctl *sqlConn, stmt, key, column string) (string, error) {
	body, err := ctl.exec(stmt)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	col := -1
	for i, name := range strings.Split(lines[0], "\t") {
		if name == column {
			col = i
		}
	}
	if col < 0 {
		return "", fmt.Errorf("%s: no column %q in %q", stmt, column, lines[0])
	}
	for _, ln := range lines[1:] {
		f := strings.Split(ln, "\t")
		if strings.EqualFold(f[0], key) && col < len(f) {
			return f[col], nil
		}
	}
	return "", fmt.Errorf("%s: no row %q", stmt, key)
}

// watermarkLagTicks reads the subscribed query's event-time watermark and
// the stream's ingested count back to back. Event time is one tick per
// tuple, so ingested − 1 is the newest event time the engine has been
// handed, and the watermark should sit windowLateness behind it; what it
// trails by beyond that is lag. ok is false for unwindowed queries.
func watermarkLagTicks(ctl *sqlConn, w *workload) (lag float64, ok bool, err error) {
	wm, err := showColumn(ctl, "SHOW QUERIES", w.query, "watermark")
	if err != nil || wm == "NULL" {
		return 0, false, err
	}
	ing, err := showColumn(ctl, "SHOW STREAMS", w.stream, "ingested")
	if err != nil {
		return 0, false, err
	}
	wmTicks, err1 := strconv.ParseFloat(wm, 64)
	ingested, err2 := strconv.ParseFloat(ing, 64)
	if err1 != nil || err2 != nil {
		return 0, false, fmt.Errorf("watermark %q / ingested %q are not numbers", wm, ing)
	}
	return max(ingested-1-windowLateness-wmTicks, 0), true, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveMetrics turns the scrapes into the source-B metrics. A family the
// workload never touches (the WAL on an in-memory run, routing without
// routed queries) yields 0.
func (l *liveScraper) liveMetrics() (map[string]float64, error) {
	mid, low := l.phases["mid"], l.phases["low"]
	if mid == nil || low == nil {
		return nil, fmt.Errorf("traced run did not reach both open-loop phases")
	}
	for name, ps := range l.phases {
		if ps.err != nil {
			return nil, fmt.Errorf("scraping phase %s: %w", name, ps.err)
		}
	}
	delta := func(ps *phaseScrape, name string, labels map[string]string) float64 {
		return ps.after.sum(name, labels) - ps.before.sum(name, labels)
	}
	out := map[string]float64{}
	out["server.rows_per_ingest_batch"] = ratio(delta(mid, "dc_ingest_tuples_total", nil), delta(mid, "dc_ingest_batches_total", nil))
	out["server.rows_per_ingest_batch_low"] = ratio(delta(low, "dc_ingest_tuples_total", nil), delta(low, "dc_ingest_batches_total", nil))

	queue := histBetween(mid.before, mid.after, "dc_stage_queue_ns", nil)
	out["scheduler.queue_p50_us"] = queue.quantile(0.50) / 1e3
	out["scheduler.queue_p99_us"] = queue.quantile(0.99) / 1e3
	fired := delta(mid, "dc_scheduler_fired_total", nil)
	misses := delta(mid, "dc_scheduler_claim_misses_total", nil)
	coalesced := delta(mid, "dc_scheduler_coalesced_wakes_total", nil)
	out["scheduler.coalesced_wake_ratio"] = ratio(coalesced, coalesced+fired+misses)
	out["scheduler.claim_miss_ratio"] = ratio(misses, fired)
	busy, idle := delta(mid, "dc_worker_busy_ns_total", nil), delta(mid, "dc_worker_idle_ns_total", nil)
	out["scheduler.worker_busy_share"] = ratio(busy, busy+idle)

	out["factory.fire_p50_us"] = histBetween(mid.before, mid.after, "dc_stage_fire_ns", map[string]string{"stage": "fire"}).quantile(0.50) / 1e3
	out["factory.tuples_per_firing"] = ratio(delta(mid, "dc_query_tuples_in_total", nil), delta(mid, "dc_query_firings_total", nil))

	matched, skipped := delta(mid, "dc_route_matched_queries_total", nil), delta(mid, "dc_route_skipped_queries_total", nil)
	out["route.matched_ratio"] = ratio(matched, matched+skipped)
	out["route.shared_evals_per_batch"] = ratio(delta(mid, "dc_route_shared_evals_total", nil), delta(mid, "dc_route_batches_total", nil))

	stream := map[string]string{"stream": l.w.stream}
	query := map[string]string{"query": l.w.query}
	out["basket.backlog_max"], out["partition.merge_lag_max"] = 0, 0
	for _, page := range mid.gauges {
		out["basket.backlog_max"] = max(out["basket.backlog_max"], page.max("dc_stream_backlog", stream))
		out["partition.merge_lag_max"] = max(out["partition.merge_lag_max"], page.max("dc_query_merge_lag", query))
	}

	out["wal.fsync_p50_ms"] = histBetween(mid.before, mid.after, "dc_wal_fsync_ns", nil).quantile(0.50) / 1e6
	out["wal.fsyncs_per_s"] = ratio(delta(mid, "dc_wal_fsync_rounds_total", nil), mid.seconds)
	out["wal.commit_wait_p50_us"] = histBetween(mid.before, mid.after, "dc_wal_commit_ns", nil).quantile(0.50) / 1e3

	out["window.late_tuples"] = delta(mid, "dc_query_late_tuples_total", nil)
	out["window.watermark_lag_ms"] = medianFloat(mid.wmLagTicks) / float64(l.w.rateMid) * 1e3

	// Shard skew: tuples each shard basket of the stream consumed in mid.
	var perShard []float64
	for _, s := range mid.after {
		if s.name == "dc_basket_dropped_total" && s.labels["shard"] != "" && strings.HasPrefix(s.labels["basket"], l.w.stream+"#") {
			perShard = append(perShard, s.value-mid.before.sum(s.name, s.labels))
		}
	}
	if len(perShard) > 0 {
		total, most := 0.0, 0.0
		for _, v := range perShard {
			total += v
			most = max(most, v)
		}
		out["partition.shard_skew"] = ratio(most, total/float64(len(perShard)))
	} else {
		out["partition.shard_skew"] = 0
	}
	return out, nil
}
