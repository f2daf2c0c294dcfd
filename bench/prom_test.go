package main

import (
	"math"
	"strings"
	"testing"
)

const promPage = `# HELP dc_ingest_tuples_total Tuples accepted across all streams.
# TYPE dc_ingest_tuples_total counter
dc_ingest_tuples_total 128000
# TYPE dc_worker_busy_ns_total counter
dc_worker_busy_ns_total{worker="0"} 1.5e+09
dc_worker_busy_ns_total{worker="1"} 500000000
# TYPE dc_stream_backlog gauge
dc_stream_backlog{stream="ev"} 42
dc_stream_backlog{stream="a \"quoted\\\" name,x=\"y\""} 7

# TYPE dc_stage_fire_ns histogram
dc_stage_fire_ns_bucket{stage="fire",le="1023"} 10
dc_stage_fire_ns_bucket{stage="fire",le="2047"} 30
dc_stage_fire_ns_bucket{stage="fire",le="+Inf"} 40
dc_stage_fire_ns_sum{stage="fire"} 99999
dc_stage_fire_ns_count{stage="fire"} 40
dc_stage_fire_ns_bucket{stage="merge",le="1023"} 1
dc_stage_fire_ns_bucket{stage="merge",le="2047"} 1
dc_stage_fire_ns_bucket{stage="merge",le="+Inf"} 1
`

func TestParseProm(t *testing.T) {
	page, err := parseProm(strings.NewReader(promPage))
	if err != nil {
		t.Fatal(err)
	}
	if got := page.sum("dc_ingest_tuples_total", nil); got != 128000 {
		t.Errorf("unlabelled counter = %v", got)
	}
	if got := page.sum("dc_worker_busy_ns_total", nil); got != 2e9 {
		t.Errorf("sum over workers = %v, want 2e9", got)
	}
	if got := page.sum("dc_worker_busy_ns_total", map[string]string{"worker": "1"}); got != 5e8 {
		t.Errorf("worker 1 = %v", got)
	}
	if got := page.max("dc_stream_backlog", map[string]string{"stream": "ev"}); got != 42 {
		t.Errorf("gauge = %v", got)
	}
	if got := page.sum("dc_stream_backlog", map[string]string{"stream": `a "quoted\" name,x="y"`}); got != 7 {
		t.Errorf("escaped label value not recovered: %v", got)
	}
	if got := page.sum("dc_no_such_family", nil); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	if got := page.sum("dc_stage_fire_ns_bucket", map[string]string{"stage": "fire", "le": "2047"}); got != 30 {
		t.Errorf("bucket selected by two labels = %v, want 30", got)
	}
	for _, bad := range []string{"name_only", `m{a="b" 1`, `m{a="b} 1`, "m notanumber"} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestHistogramBetweenScrapes(t *testing.T) {
	before, err := parseProm(strings.NewReader(promPage))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`stage="fire",le="1023"} 10`, `stage="fire",le="1023"} 10`,
		`stage="fire",le="2047"} 30`, `stage="fire",le="2047"} 130`,
		`stage="fire",le="+Inf"} 40`, `stage="fire",le="+Inf"} 140`,
	).Replace(promPage)))
	if err != nil {
		t.Fatal(err)
	}
	// 100 new observations, all in (1023, 2047].
	h := histBetween(before, after, "dc_stage_fire_ns", map[string]string{"stage": "fire"})
	if h.count() != 100 {
		t.Fatalf("count = %v, want 100", h.count())
	}
	if got := h.quantile(0.5); math.Abs(got-1535) > 1 {
		t.Errorf("p50 = %v, want the middle of (1023, 2047]", got)
	}
	if got := h.quantile(1); got != 2047 {
		t.Errorf("p100 = %v, want 2047", got)
	}
	// All stages together: the merge stage saw nothing new.
	if all := histBetween(before, after, "dc_stage_fire_ns", nil); all.count() != 100 {
		t.Errorf("count over stages = %v", all.count())
	}
	if empty := histBetween(after, after, "dc_stage_fire_ns", nil); empty.quantile(0.5) != 0 {
		t.Errorf("quantile of nothing = %v, want 0", empty.quantile(0.5))
	}
	if absent := histBetween(before, after, "dc_wal_fsync_ns", nil); absent.quantile(0.5) != 0 || absent.count() != 0 {
		t.Errorf("absent histogram: %v", absent)
	}
}

func TestQuantileBeyondLastFiniteBucket(t *testing.T) {
	h := histDelta{le: []float64{10, math.Inf(1)}, cum: []float64{1, 10}}
	if got := h.quantile(0.99); got != 10 {
		t.Errorf("rank in +Inf bucket = %v, want the last finite bound", got)
	}
}
