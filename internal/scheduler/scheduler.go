// Package scheduler implements the DataCell's Petri-net processing model
// (§2.4): factories (and the engine's merge and shared-scan stages) are
// transitions; baskets are token places. A transition fires when all of its input places hold
// enough tuples. The scheduler continuously re-evaluates firing conditions
// and runs fireable transitions.
//
// Two modes are provided:
//
//   - Step/Drain: deterministic, single-threaded firing on the caller's
//     goroutine — used by tests and the benchmark harness.
//   - Start/Stop: an event-driven worker pool — the multi-threaded
//     architecture of the paper. Baskets wake the specific transitions
//     they feed via Handle.Wake; each wake enqueues the transition onto a
//     per-worker run-queue (with work-stealing), so there is no global
//     scan and no allocation on the firing path.
//
// A scheduler must be driven by exactly one of the two modes at a time.
//
// Each registered transition owns a four-state claim machine:
//
//	idle ──Wake──▶ queued ──worker pop──▶ running ──done──▶ idle
//	                            ▲                │
//	                            └── runningDirty ◀─ Wake while running
//
// Wakes arriving while the transition is queued or running coalesce: N
// appends during one firing produce at most one re-enqueue (runningDirty).
// After a firing the worker re-checks Ready and self-requeues at the tail
// of its run-queue, so a continuously-ready transition keeps running
// without starving others and without any periodic polling in the workers.
// There is no broadcast wake: whoever makes a transition fireable by
// other means than an append wakes that transition's Handle.
package scheduler

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Transition is a Petri-net transition: a factory or another firing stage.
type Transition interface {
	// Name identifies the transition in diagnostics.
	Name() string
	// Ready reports whether the firing condition holds (all input baskets
	// hold at least the transition's minimum tuple count).
	Ready() bool
	// Fire performs one processing step: consume inputs, produce outputs.
	Fire() error
}

// Handle claim-machine states.
const (
	stateIdle int32 = iota
	stateQueued
	stateRunning
	stateRunningDirty
)

// Handle is a registered transition's scheduling identity. Baskets (and
// other upstream places) hold the handles of the transitions they feed and
// call Wake on append — the transition→input-place edge map of the
// event-driven ready-set.
type Handle struct {
	t    Transition
	s    *Scheduler
	prio int

	state   atomic.Int32
	removed atomic.Bool

	fired     atomic.Int64 // completed firings
	misses    atomic.Int64 // dequeued while not ready (claim misses)
	coalesced atomic.Int64 // wakes absorbed by queued/running states

	// obsFn, when armed via Observe, receives (queueNS, fireNS, err)
	// after every firing. wakeNS holds the wall-clock stamp of the wake
	// that enqueued the handle; 0 when idle or unobserved.
	obsFn  atomic.Pointer[func(queueNS, fireNS int64, err error)]
	wakeNS atomic.Int64
}

// Observe arms a per-firing observer: after each firing of this
// transition, fn receives the queue delay (wake to execution start; 0 in
// deterministic Step mode), the firing duration, and the firing error if
// any. fn runs on the worker goroutine and must be fast and non-blocking.
// Passing nil disarms. Unobserved handles pay one atomic load per firing.
func (h *Handle) Observe(fn func(queueNS, fireNS int64, err error)) {
	if fn == nil {
		h.obsFn.Store(nil)
		return
	}
	h.obsFn.Store(&fn)
}

// Name returns the underlying transition's name.
func (h *Handle) Name() string { return h.t.Name() }

// Fired returns the number of times this transition has fired.
func (h *Handle) Fired() int64 { return h.fired.Load() }

// Coalesced returns the number of wakes absorbed without a new enqueue.
func (h *Handle) Coalesced() int64 { return h.coalesced.Load() }

// Wake marks the transition potentially fireable. It is safe from any
// goroutine, never blocks, and never allocates. Wakes while the transition
// is already queued or running coalesce into at most one re-enqueue.
func (h *Handle) Wake() {
	for {
		switch h.state.Load() {
		case stateIdle:
			p := h.s.pool.Load()
			if p == nil {
				return // deterministic mode: Step scans everything
			}
			if h.state.CompareAndSwap(stateIdle, stateQueued) {
				if h.obsFn.Load() != nil {
					h.wakeNS.Store(time.Now().UnixNano())
				}
				p.enqueue(h, -1)
				return
			}
		case stateQueued:
			h.coalesced.Add(1)
			return
		case stateRunning:
			if h.state.CompareAndSwap(stateRunning, stateRunningDirty) {
				h.coalesced.Add(1)
				return
			}
		case stateRunningDirty:
			h.coalesced.Add(1)
			return
		}
	}
}

// runq is one worker's run-queue: a growable power-of-two ring deque.
// Steady state never grows, so pushes and pops allocate nothing. A mutex
// (not a lock-free deque) keeps it simple; it is per-worker, so contention
// is limited to stealing.
type runq struct {
	mu   sync.Mutex
	buf  []*Handle
	head uint64
	tail uint64
}

func newRunq() *runq { return &runq{buf: make([]*Handle, 64)} }

func (q *runq) push(h *Handle) {
	q.mu.Lock()
	if q.tail-q.head == uint64(len(q.buf)) {
		bigger := make([]*Handle, len(q.buf)*2)
		for i := q.head; i < q.tail; i++ {
			bigger[i%uint64(len(bigger))] = q.buf[i%uint64(len(q.buf))]
		}
		q.buf = bigger
	}
	q.buf[q.tail%uint64(len(q.buf))] = h
	q.tail++
	q.mu.Unlock()
}

// pop removes the oldest handle (FIFO keeps firing order fair).
func (q *runq) pop() *Handle {
	q.mu.Lock()
	if q.head == q.tail {
		q.mu.Unlock()
		return nil
	}
	h := q.buf[q.head%uint64(len(q.buf))]
	q.buf[q.head%uint64(len(q.buf))] = nil
	q.head++
	q.mu.Unlock()
	return h
}

// pool is one Start/Stop generation of the worker fleet.
type pool struct {
	queues []*runq
	// beds[i] parks worker i; sleepers tracks parked workers as a bitmask
	// so a wake costs one atomic load when everyone is busy.
	beds     []chan struct{}
	sleepers atomic.Uint64
	done     chan struct{}
	rr       atomic.Uint64
}

// enqueue places h on a run-queue. from names the calling worker (its own
// queue is used, keeping self-requeues local); -1 round-robins.
func (p *pool) enqueue(h *Handle, from int) {
	i := from
	if i < 0 {
		i = int(p.rr.Add(1) % uint64(len(p.queues)))
	}
	p.queues[i].push(h)
	p.wakeOne()
}

func (p *pool) wakeOne() {
	for {
		m := p.sleepers.Load()
		if m == 0 {
			return
		}
		id := bits.TrailingZeros64(m)
		if p.sleepers.CompareAndSwap(m, m&^(1<<uint(id))) {
			select {
			case p.beds[id] <- struct{}{}:
			default:
			}
			return
		}
	}
}

// popAny pops from the worker's own queue, then steals round-robin.
func (p *pool) popAny(id int) *Handle {
	if h := p.queues[id].pop(); h != nil {
		return h
	}
	n := len(p.queues)
	for off := 1; off < n; off++ {
		if h := p.queues[(id+off)%n].pop(); h != nil {
			return h
		}
	}
	return nil
}

// WorkerStats reports one worker's accumulated busy/idle time.
type WorkerStats struct {
	BusyNS int64
	IdleNS int64
}

// TransitionStats reports one transition's scheduling counters.
type TransitionStats struct {
	Name           string
	Priority       int
	Fired          int64
	ClaimMisses    int64
	CoalescedWakes int64
}

// Stats is a snapshot of scheduler activity.
type Stats struct {
	Fired          int64
	ClaimMisses    int64
	CoalescedWakes int64
	Workers        []WorkerStats
	Transitions    []TransitionStats
}

// Scheduler organizes transition execution.
type Scheduler struct {
	mu      sync.Mutex
	entries []*Handle // priority order; ties keep registration order

	pool    atomic.Pointer[pool]
	wg      sync.WaitGroup
	started bool

	// OnError, when set, receives transition failures; by default they are
	// recorded and firing continues.
	OnError func(name string, err error)

	errMu   sync.Mutex
	lastErr error
	fired   int64

	workerStats []workerClock
}

type workerClock struct {
	busyNS atomic.Int64
	idleNS atomic.Int64
}

// New returns an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Register adds a transition and returns its wake handle. Higher-priority
// transitions are scanned (and therefore fired) first in Step mode and
// seeded first on Start — the paper's "different query priorities" hook.
// Ties keep registration order.
func (s *Scheduler) Register(t Transition, priority int) *Handle {
	h := &Handle{t: t, s: s, prio: priority}
	s.mu.Lock()
	pos := len(s.entries)
	for i, e := range s.entries {
		if e.prio < priority {
			pos = i
			break
		}
	}
	s.entries = append(s.entries, nil)
	copy(s.entries[pos+1:], s.entries[pos:])
	s.entries[pos] = h
	s.mu.Unlock()
	// If the pool is live, let the new transition compete immediately.
	h.Wake()
	return h
}

// Remove unregisters a transition by name and fences in-flight claims: it
// does not return while a worker is firing the transition, so callers can
// tear the transition's state down safely afterwards.
func (s *Scheduler) Remove(name string) {
	s.mu.Lock()
	var h *Handle
	for i, e := range s.entries {
		if e.t.Name() == name {
			h = e
			s.entries = append(s.entries[:i], s.entries[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if h == nil {
		return
	}
	h.removed.Store(true)
	// Wait out an in-flight firing. A queued (not yet claimed) handle is
	// fine: workers check removed before firing. With no pool running
	// nothing can be mid-fire, so the fence is a no-op.
	for s.pool.Load() != nil {
		st := h.state.Load()
		if st != stateRunning && st != stateRunningDirty {
			return
		}
		runtime.Gosched()
	}
}

// Transitions returns a snapshot of the registered transitions in
// scheduling order.
func (s *Scheduler) Transitions() []Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Transition, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.t
	}
	return out
}

// Step runs one deterministic pass: every currently-ready transition fires
// once, in registration order. It returns the number of firings.
func (s *Scheduler) Step() int {
	s.mu.Lock()
	es := append([]*Handle(nil), s.entries...)
	s.mu.Unlock()
	fired := 0
	for _, h := range es {
		if h.removed.Load() || !h.t.Ready() {
			continue
		}
		s.fire(h)
		fired++
	}
	return fired
}

// Drain repeatedly Steps until no transition is ready (the net is dead, in
// Petri-net terms) or maxRounds passes elapse. It returns the total number
// of firings.
func (s *Scheduler) Drain(maxRounds int) int {
	total := 0
	for round := 0; round < maxRounds; round++ {
		n := s.Step()
		total += n
		if n == 0 {
			return total
		}
	}
	return total
}

func (s *Scheduler) fire(h *Handle) {
	atomic.AddInt64(&s.fired, 1)
	h.fired.Add(1)
	fn := h.obsFn.Load()
	var t0 time.Time
	if fn != nil {
		t0 = time.Now()
	}
	err := h.t.Fire()
	if fn != nil {
		fireNS := int64(time.Since(t0))
		var queueNS int64
		if w := h.wakeNS.Swap(0); w != 0 {
			if queueNS = t0.UnixNano() - w; queueNS < 0 {
				queueNS = 0
			}
		}
		(*fn)(queueNS, fireNS, err)
	}
	if err != nil {
		s.errMu.Lock()
		s.lastErr = err
		s.errMu.Unlock()
		if s.OnError != nil {
			s.OnError(h.t.Name(), err)
		}
	}
}

// Fired returns the total number of transition firings.
func (s *Scheduler) Fired() int64 { return atomic.LoadInt64(&s.fired) }

// Err returns the most recent transition error, if any.
func (s *Scheduler) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

// Stats returns a snapshot of scheduler counters: total and per-transition
// firings, claim misses (dequeued-but-not-ready scans), coalesced wakes,
// and per-worker busy/idle time.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	ts := make([]TransitionStats, len(s.entries))
	var misses, coalesced int64
	for i, h := range s.entries {
		ts[i] = TransitionStats{
			Name:           h.t.Name(),
			Priority:       h.prio,
			Fired:          h.fired.Load(),
			ClaimMisses:    h.misses.Load(),
			CoalescedWakes: h.coalesced.Load(),
		}
		misses += ts[i].ClaimMisses
		coalesced += ts[i].CoalescedWakes
	}
	ws := make([]WorkerStats, len(s.workerStats))
	for i := range s.workerStats {
		ws[i] = WorkerStats{
			BusyNS: s.workerStats[i].busyNS.Load(),
			IdleNS: s.workerStats[i].idleNS.Load(),
		}
	}
	s.mu.Unlock()
	return Stats{
		Fired:          s.Fired(),
		ClaimMisses:    misses,
		CoalescedWakes: coalesced,
		Workers:        ws,
		Transitions:    ts,
	}
}

// Start launches the worker pool (concurrent mode). Workers drain their
// run-queues, steal from each other when empty, and park on a per-worker
// channel otherwise; there is no polling in the workers.
func (s *Scheduler) Start(workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > 64 {
		workers = 64 // sleeper bitmask width
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	p := &pool{
		queues: make([]*runq, workers),
		beds:   make([]chan struct{}, workers),
		done:   make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.queues[i] = newRunq()
		p.beds[i] = make(chan struct{}, 1)
	}
	s.workerStats = make([]workerClock, workers)
	// Seed: everything currently registered competes from the start, in
	// priority order.
	seed := append([]*Handle(nil), s.entries...)
	s.pool.Store(p)
	s.mu.Unlock()
	for _, h := range seed {
		// A handle stuck in queued from a previous generation sits in a
		// dead queue; re-enqueue it directly.
		if h.state.Load() == stateQueued {
			p.enqueue(h, -1)
		} else {
			h.Wake()
		}
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker(p, w)
	}
}

func (s *Scheduler) worker(p *pool, id int) {
	defer s.wg.Done()
	clock := &s.workerStats[id]
	for {
		select {
		case <-p.done:
			return
		default:
		}
		h := p.popAny(id)
		if h == nil {
			// Park protocol: advertise, re-scan (an enqueue may have raced
			// with the advertisement), then sleep.
			bit := uint64(1) << uint(id)
			p.sleepers.Or(bit)
			if h = p.popAny(id); h != nil {
				p.sleepers.And(^bit)
				select { // drop a stale wake token, if any
				case <-p.beds[id]:
				default:
				}
			} else {
				t0 := time.Now()
				select {
				case <-p.done:
					return
				case <-p.beds[id]:
				}
				clock.idleNS.Add(int64(time.Since(t0)))
				continue
			}
		}
		s.runHandle(p, id, h, clock)
	}
}

// runHandle claims, checks, and fires one dequeued handle, then settles
// its state machine.
func (s *Scheduler) runHandle(p *pool, id int, h *Handle, clock *workerClock) {
	if !h.state.CompareAndSwap(stateQueued, stateRunning) {
		return // defensive: only a pop should claim a queued handle
	}
	if h.removed.Load() {
		h.state.Store(stateIdle)
		return
	}
	if h.t.Ready() {
		t0 := time.Now()
		s.fire(h)
		clock.busyNS.Add(int64(time.Since(t0)))
	} else {
		h.misses.Add(1)
	}
	// Epilogue: settle running → idle, honoring wakes that arrived during
	// the firing (runningDirty) and re-queuing while still ready so a
	// continuously-ready net keeps draining without polling.
	if h.state.CompareAndSwap(stateRunning, stateIdle) {
		if !h.removed.Load() && h.t.Ready() {
			h.Wake()
		}
		return
	}
	// Dirty: new tokens arrived mid-fire; exactly one re-enqueue.
	h.state.Store(stateQueued)
	if h.removed.Load() {
		h.state.Store(stateIdle)
		return
	}
	p.enqueue(h, id)
}

// Stop terminates the worker pool and waits for in-flight firings.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return
	}
	s.started = false
	p := s.pool.Load()
	s.pool.Store(nil)
	close(p.done)
	s.mu.Unlock()
	s.wg.Wait()
}
