package obs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zero: %s", h.Summary())
	}
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.sum.Load(); got != 1106 { // -5 clamps to 0
		t.Fatalf("sum = %d, want 1106", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("max = %d, want 1000", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// The bucketed quantile is an upper bound, at most 2x the true value.
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		truth := int64(q * 1000)
		got := h.Quantile(q)
		if got < truth {
			t.Errorf("Quantile(%g) = %d, below true value %d", q, got, truth)
		}
		if got > 2*truth {
			t.Errorf("Quantile(%g) = %d, above 2x true value %d", q, got, truth)
		}
	}
	if got := h.Quantile(1.0); got != 1024-1 && got != 1000 {
		// rank 1000 lands in bucket [512,1023]
		t.Errorf("Quantile(1) = %d", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	huge := int64(1) << 50 // beyond the last finite bucket
	h.Observe(huge)
	if got := h.Quantile(1.0); got != huge {
		t.Fatalf("overflow quantile = %d, want max %d", got, huge)
	}
	counts, n, _ := h.snapshot()
	if n != 1 || counts[numBuckets] != 1 {
		t.Fatalf("overflow observation not in +Inf bucket: counts[last]=%d", counts[numBuckets])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count = %d, want %d", got, 8*per)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Labels{"a": "1"})
	b := r.Counter("x_total", "help", Labels{"a": "1"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", "help", Labels{"a": "2"})
	if a == c {
		t.Fatal("distinct labels returned same counter")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering counter as gauge did not panic")
		}
	}()
	r.Gauge("x_total", "", nil)
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "back\\slash and\nnewline", Labels{"v": "a\"b\\c\nd"}).Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc back\\slash and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// buildFixture assembles a deterministic registry covering every
// instrument kind, collectors, multi-series families, and escaping.
func buildFixture() *Registry {
	r := NewRegistry()
	r.Counter("dc_ingest_tuples_total", "Tuples ingested across all streams.", nil).Add(42)
	r.Counter("dc_ingest_batches_total", "Ingest batches per stream.", Labels{"stream": "trades"}).Add(7)
	r.Counter("dc_ingest_batches_total", "Ingest batches per stream.", Labels{"stream": "quo\"tes"}).Add(3)
	r.Gauge("dc_tail_depth", "Pending tuples per shard tail.", Labels{"query": "q1", "shard": "0"}).Set(5)
	r.Gauge("dc_tail_depth", "Pending tuples per shard tail.", Labels{"query": "q1", "shard": "1"}).Set(9)
	h := r.Histogram("dc_fire_ns", "Firing duration (ns).", nil)
	for _, v := range []int64{1, 2, 3, 500, 70000} {
		h.Observe(v)
	}
	r.CollectGauge("dc_sched_runnable", "Runnable transitions.", func() []Sample {
		return []Sample{{Labels: Labels{"shard": "1"}, Value: 2}, {Labels: Labels{"shard": "0"}, Value: 1}}
	})
	r.CollectCounter("dc_sched_fired_total", "Total transition firings.", func() []Sample {
		return []Sample{{Value: 123}}
	})
	return r
}

func TestPrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := buildFixture().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusScrapeParses runs a minimal format checker over the
// fixture output: every line is a comment or `name[{labels}] value`,
// every series is preceded by its # TYPE, histogram buckets are
// cumulative and end at +Inf, and counter families never decrease
// across series lines.
func TestPrometheusScrapeParses(t *testing.T) {
	var sb strings.Builder
	if err := buildFixture().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	types := map[string]string{} // family -> type
	var lastBucketCum float64
	var lastBucketFamily string
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q in %q", parts[3], line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("duplicate TYPE for %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		name, labels, valStr, ok := splitSeries(line)
		if !ok {
			t.Fatalf("malformed series line: %q", line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && types[base] == "histogram" {
				fam = base
			}
		}
		typ, known := types[fam]
		if !known {
			t.Fatalf("series %q has no preceding TYPE", line)
		}
		if typ == "counter" && val < 0 {
			t.Fatalf("negative counter: %q", line)
		}
		if typ == "histogram" && strings.HasSuffix(name, "_bucket") {
			if fam != lastBucketFamily {
				lastBucketCum = 0
				lastBucketFamily = fam
			}
			if val+1e-9 < lastBucketCum {
				t.Fatalf("histogram buckets not cumulative at %q (%g < %g)", line, val, lastBucketCum)
			}
			lastBucketCum = val
			if _, hasLE := labels["le"]; !hasLE {
				t.Fatalf("bucket line missing le label: %q", line)
			}
		}
	}
	// The fixture histogram must terminate with an +Inf bucket equal to count.
	if types["dc_fire_ns"] != "histogram" {
		t.Fatal("dc_fire_ns not typed histogram")
	}
	if math.Abs(lastBucketCum-5) > 1e-9 && lastBucketFamily == "dc_fire_ns" {
		t.Fatalf("dc_fire_ns +Inf bucket = %g, want 5", lastBucketCum)
	}
}

// splitSeries parses `name{k="v",...} value` (labels optional).
func splitSeries(line string) (name string, labels map[string]string, value string, ok bool) {
	labels = map[string]string{}
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		parts := strings.Fields(line)
		if len(parts) != 2 {
			return "", nil, "", false
		}
		return parts[0], labels, parts[1], true
	}
	name = line[:brace]
	end := strings.LastIndexByte(line, '}')
	if end < brace {
		return "", nil, "", false
	}
	body := line[brace+1 : end]
	rest := strings.TrimSpace(line[end+1:])
	// Parse k="v" pairs; values may contain escaped quotes.
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return "", nil, "", false
		}
		key := body[i : i+eq]
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return "", nil, "", false
		}
		i++
		var val strings.Builder
		for i < len(body) {
			if body[i] == '\\' && i+1 < len(body) {
				val.WriteByte(body[i+1])
				i += 2
				continue
			}
			if body[i] == '"' {
				break
			}
			val.WriteByte(body[i])
			i++
		}
		if i >= len(body) || body[i] != '"' {
			return "", nil, "", false
		}
		i++
		labels[key] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				return "", nil, "", false
			}
			i++
		}
	}
	return name, labels, rest, true
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d events", len(got))
	}
	for i := 0; i < 6; i++ {
		r.Add(TraceEvent{Stage: "fire", FireNS: int64(i)})
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 3); ev.Seq != want {
			t.Errorf("evs[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
		if want := int64(i + 2); ev.FireNS != want {
			t.Errorf("evs[%d].FireNS = %d, want %d", i, ev.FireNS, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
}

// TestTraceRingGrowsLazily: a ring holds only what was added until it
// reaches K, then wraps; Len and Snapshot order read the same either way.
func TestTraceRingGrowsLazily(t *testing.T) {
	r := NewTraceRing(3)
	if r.Len() != 0 || cap(r.buf) != 0 {
		t.Fatalf("fresh ring: Len %d, %d slots allocated", r.Len(), cap(r.buf))
	}
	seqs := func() []int64 {
		var out []int64
		for _, ev := range r.Snapshot() {
			out = append(out, ev.Seq)
		}
		return out
	}
	for i, want := range [][]int64{{1}, {1, 2}, {1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}, {5, 6, 7}} {
		r.Add(TraceEvent{FireNS: int64(i + 1)})
		if got := seqs(); !slices.Equal(got, want) {
			t.Fatalf("after %d adds: snapshot seqs %v, want %v", i+1, got, want)
		}
		if r.Len() != len(want) {
			t.Fatalf("after %d adds: Len %d, want %d", i+1, r.Len(), len(want))
		}
		if len(r.buf) > 3 {
			t.Fatalf("ring of 3 holds %d events", len(r.buf))
		}
	}
	if ev := r.Snapshot()[0]; ev.FireNS != ev.Seq {
		t.Errorf("oldest event %+v carries another event's payload", ev)
	}
}
