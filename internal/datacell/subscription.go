package datacell

import (
	"context"
	"sync"

	"repro/internal/adapters"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// Backpressure selects what a subscription does when its consumer falls
// behind; see the adapters package for the policies.
type Backpressure = adapters.Backpressure

// Backpressure policies.
const (
	// BackpressureBlock retains results until the consumer catches up.
	BackpressureBlock = adapters.BackpressureBlock
	// BackpressureDropOldest evicts the oldest undelivered batch.
	BackpressureDropOldest = adapters.BackpressureDropOldest
)

// Subscription is a handle on a continuous query's result delivery: a
// channel emitter scheduled as a Petri-net transition, wrapped with
// lifecycle control. It is created by the engine (one per subscribing
// query, and one per cascade stage) and stays valid until Close, the
// owning query's drop, or engine Stop.
type Subscription struct {
	eng *Engine
	em  *adapters.ChannelEmitter
	h   *scheduler.Handle // the emitter's transition; set before the query goes live

	mu     sync.Mutex
	closed bool
	err    error
	// unpark leaves the tick's re-wake set (nil unless blocking and
	// scheduled).
	unpark func()
}

func newSubscription(e *Engine, em *adapters.ChannelEmitter) *Subscription {
	s := &Subscription{eng: e, em: em}
	e.mu.Lock()
	e.subs = append(e.subs, s)
	e.mu.Unlock()
	return s
}

// scheduled records that the emitter runs as transition h. A blocking
// emitter goes not-ready while its channel is full and no append will
// wake it when the consumer makes room, so it joins the tick's re-wake
// set; a drop-oldest emitter is ready whenever results wait.
func (s *Subscription) scheduled(h *scheduler.Handle) {
	s.h = h
	if s.em.Policy() != BackpressureBlock {
		return
	}
	unpark := s.eng.tickRewake(h, s.em.Unparked)
	s.mu.Lock()
	s.unpark = unpark
	s.mu.Unlock()
}

// C returns the delivery channel: one relation per result batch. The
// channel is closed when the subscription closes; Err explains why.
func (s *Subscription) C() <-chan *storage.Relation { return s.em.C() }

// Recv waits for the next result batch, honoring ctx cancellation. After
// the subscription closes (and its buffer drains) it returns Err().
func (s *Subscription) Recv(ctx context.Context) (*storage.Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case rel, ok := <-s.em.C():
		if !ok {
			return nil, s.Err()
		}
		return rel, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close detaches the emitter from the scheduler and closes the delivery
// channel. The query itself keeps running — its results keep accumulating
// in the output basket, queryable via one-time SQL. Close is idempotent.
func (s *Subscription) Close() error {
	s.closeWith(ErrSubscriptionClosed)
	return nil
}

// Err reports why the subscription closed: nil while open,
// ErrSubscriptionClosed after Close or a query drop, ErrEngineStopped
// after engine shutdown.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dropped returns the number of batches evicted under the drop-oldest
// backpressure policy.
func (s *Subscription) Dropped() int64 { return s.em.Dropped() }

// closeWith records the close reason, unschedules the emitter, and closes
// the channel. First reason wins.
func (s *Subscription) closeWith(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = cause
	unpark := s.unpark
	s.mu.Unlock()
	if unpark != nil {
		unpark()
	}
	s.eng.sched.Remove(s.em.Name())
	s.em.Close()
	// Drop the engine's reference so repeated create/drop cycles don't
	// accumulate dead subscriptions.
	s.eng.mu.Lock()
	for i, x := range s.eng.subs {
		if x == s {
			s.eng.subs = append(s.eng.subs[:i], s.eng.subs[i+1:]...)
			break
		}
	}
	s.eng.mu.Unlock()
}
