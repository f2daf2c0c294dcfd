package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer. Spans of one replayed batch share
// its number as trace_id; parent is the index of the enclosing span in the
// file, -1 for a root.
type span struct {
	TraceID int    `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index, to pass to end and to children.
func (t *tracer) begin(traceID int, name string, parent int) int {
	t.spans = append(t.spans, span{TraceID: traceID, Name: name, Parent: parent})
	id := len(t.spans) - 1
	t.spans[id].StartNS = int64(time.Since(t.base))
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndNS = int64(time.Since(t.base)) }

// time wraps one call in a span.
func (t *tracer) time(traceID int, name string, parent int, fn func() error) error {
	id := t.begin(traceID, name, parent)
	err := fn()
	t.end(id)
	return err
}

// total is the summed duration of every span called name, recorded at or
// after span index from.
func (t *tracer) total(name string, from int) (ns int64) {
	for _, s := range t.spans[from:] {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return ns
}

// mark is the index the next span will get; pass it to total as from.
func (t *tracer) mark() int { return len(t.spans) }

// selfTimes returns, per span name, duration minus the part covered by
// child spans.
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		out[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	return out
}

// writeFile flushes the spans and their self-time summary as JSON.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(struct {
		SelfNS map[string]int64 `json:"self_ns_by_name"`
		Spans  []span           `json:"spans"`
	}{t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
