package ring

import (
	"sync"
	"sync/atomic"
)

// Queue is an unbounded single-producer/single-consumer FIFO: an SPSC
// ring for the common case and a mutex-guarded spill list for when the
// ring is full, so Push never fails and never blocks on the consumer.
// The producer/consumer contract is SPSC's: at most one goroutine on
// each side at a time.
//
// FIFO across the two stores rests on one rule: while the spill list is
// non-empty (spilled is set) the producer appends to it and leaves the
// ring alone, so every spilled item is newer than every ring item, and
// the ring is frozen from the producer's side until the consumer has
// emptied the list.
type Queue[T any] struct {
	ring    *SPSC[T]
	spilled atomic.Bool // spill[head:] is non-empty; written under mu
	mu      sync.Mutex
	spill   []T
	head    int // spill[:head] is consumed
}

// NewQueue returns a queue whose lock-free ring holds capacity items
// (rounded up as New does).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{ring: New[T](capacity)}
}

// Push appends v. Producer-side only.
func (q *Queue[T]) Push(v T) {
	if !q.spilled.Load() && q.ring.Push(v) {
		return
	}
	q.mu.Lock()
	// The consumer may have emptied the spill list while we waited for
	// the lock; prefer the ring again.
	if q.spilled.Load() || !q.ring.Push(v) {
		q.spill = append(q.spill, v)
		q.spilled.Store(true)
	}
	q.mu.Unlock()
}

// Len returns the number of buffered items (a racy snapshot under
// concurrent Push).
func (q *Queue[T]) Len() int {
	n := q.ring.Len()
	if q.spilled.Load() {
		q.mu.Lock()
		n += len(q.spill) - q.head
		q.mu.Unlock()
	}
	return n
}

// Peek returns the oldest item without removing it. Consumer-side only.
func (q *Queue[T]) Peek() (T, bool) {
	// spilled is read before the ring: set, it stays set until this
	// consumer clears it and the ring gains nothing meanwhile, so an
	// empty ring means the spill head is the oldest item.
	spilled := q.spilled.Load()
	if v, ok := q.ring.Peek(); ok || !spilled {
		return v, ok
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.spill[q.head], true
}

// Do calls fn for each buffered item, oldest first, without consuming.
// Consumer-side only. Items pushed during the call may or may not be
// visited, but what is visited is always a prefix of the queue.
func (q *Queue[T]) Do(fn func(T)) {
	spilled := q.spilled.Load() // before the ring, as in Peek
	q.ring.Do(fn)
	if !spilled {
		return
	}
	// Unconsumed spill slots are written once, before they are
	// published under mu, and the producer only appends past them, so
	// the slice taken here is stable without holding mu across fn.
	q.mu.Lock()
	rest := q.spill[q.head:]
	q.mu.Unlock()
	for _, v := range rest {
		fn(v)
	}
}

// PopN discards the n oldest items, which the consumer has seen through
// Peek or Do. Consumer-side only.
func (q *Queue[T]) PopN(n int) {
	k := min(n, q.ring.Len())
	q.ring.PopN(k)
	if n -= k; n == 0 {
		return
	}
	q.mu.Lock()
	clear(q.spill[q.head : q.head+n]) // release references for GC
	q.head += n
	switch live := len(q.spill) - q.head; {
	case live == 0:
		q.spill, q.head = q.spill[:0], 0
		q.spilled.Store(false)
	case live < q.head:
		// A list that never quite empties must not grow by its consumed
		// prefix forever.
		copy(q.spill, q.spill[q.head:])
		clear(q.spill[live:])
		q.spill, q.head = q.spill[:live], 0
	}
	q.mu.Unlock()
}
