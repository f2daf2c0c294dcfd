package obs

import "sync"

// TraceEvent is one recorded pipeline firing: a transition (shard
// factory or merge stage) ran once, with its queue delay and execution
// time and the tuple counts it moved.
type TraceEvent struct {
	Seq        int64  // per-ring sequence number, increasing
	Stage      string // "fire", "merge"
	Transition string // transition name (shard factories carry :sN)
	Start      int64  // engine-clock ns at which execution began
	QueueNS    int64  // wake -> execution delay (0 when not pool-driven)
	FireNS     int64  // execution duration
	TuplesIn   int64  // input tuples consumed by this firing
	TuplesOut  int64  // output tuples produced by this firing
	Err        string // non-empty if the firing failed
}

// TraceRing is a bounded ring of the last K firings of one query's
// pipeline. Writers pay one short mutex hold per firing; Snapshot
// copies out events oldest-first. The buffer grows on Add, so a ring
// nothing fires into (a routed query whose rows are handed off) costs no
// event slots.
type TraceRing struct {
	mu   sync.Mutex
	k    int
	buf  []TraceEvent // grows to k, then wraps
	next int          // once full, the slot to overwrite
	seq  int64        // total events ever added
}

// NewTraceRing returns a ring retaining the last k events (k >= 1).
func NewTraceRing(k int) *TraceRing {
	return &TraceRing{k: max(k, 1)}
}

// Add records one event, assigning its sequence number.
func (r *TraceRing) Add(ev TraceEvent) {
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if len(r.buf) < r.k {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % r.k
	}
	r.mu.Unlock()
}

// Len returns the number of retained events.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Snapshot returns the retained events, oldest first.
func (r *TraceRing) Snapshot() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, len(r.buf))
	n := copy(out, r.buf[r.next:])
	copy(out[n:], r.buf[:r.next])
	return out
}
