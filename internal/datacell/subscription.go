package datacell

import (
	"context"
	"sync"

	"repro/internal/adapters"
	"repro/internal/basket"
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
// channel emitter on the query's output basket, wrapped with lifecycle
// control. Delivery is no transition of its own. The firing that appends
// results to the output basket delivers them, as the basket's append
// listener; under the blocking policy rows that find the channel full
// stay in the basket, and the Recv that makes room delivers them. It is
// created by the engine (one per subscribing query, and one per cascade
// stage) and stays valid until Close, the owning query's drop, or engine
// Stop.
type Subscription struct {
	eng *Engine
	em  *adapters.ChannelEmitter
	out *basket.Basket

	mu       sync.Mutex
	closed   bool
	err      error
	listener uint64 // the delivery listener on out; 0 until listen
}

func newSubscription(e *Engine, name string, out *basket.Basket, depth int, policy Backpressure) *Subscription {
	s := &Subscription{eng: e, em: adapters.NewChannelEmitter(name, out, depth, policy), out: out}
	e.mu.Lock()
	e.subs = append(e.subs, s)
	e.mu.Unlock()
	return s
}

// listen makes every append to the output basket deliver, and delivers
// what it already holds. The listener runs inside the appending firing,
// which holds the consistency gate already on a durable engine, so it
// must not take the gate again (a read lock taken twice deadlocks once a
// checkpoint waits for the write lock); the caller of listen holds it
// too, or nothing can fire yet.
func (s *Subscription) listen() {
	id := s.out.Subscribe(s.deliver)
	s.mu.Lock()
	s.listener = id
	s.mu.Unlock()
	s.deliver()
}

// deliver drains the output basket into the channel, unless another
// transition reads the basket too (a chained query): its rows then
// belong to that reader, as they do for the routed scan's hand-off.
func (s *Subscription) deliver() {
	if s.out.Listeners() == 1 {
		_ = s.em.Fire()
	}
}

// refill is the consumer's half of delivery: after a receive made room
// it moves rows waiting in the output basket into the channel. On a
// durable engine it holds the consistency gate, as a firing does — a
// checkpoint must never see the basket drained with the delivered count
// not yet advanced — and once Stop has begun it moves nothing, so no
// delivery lands after the final checkpoint.
func (s *Subscription) refill() {
	if e := s.eng; e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
		// Firings end before the final checkpoint; a receive can come
		// after it.
		if e.guard(nil) != nil {
			return
		}
	}
	s.deliver()
}

// Recv waits for the next result batch, honoring ctx cancellation. After
// the subscription closes (and its buffer drains) it returns Err().
func (s *Subscription) Recv(ctx context.Context) (*storage.Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case rel, ok := <-s.em.C():
		return s.took(rel, ok)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryRecv is Recv without waiting: it returns nil, nil when no batch is
// ready.
func (s *Subscription) TryRecv() (*storage.Relation, error) {
	select {
	case rel, ok := <-s.em.C():
		return s.took(rel, ok)
	default:
		return nil, nil
	}
}

// took finishes a receive: a closed channel reports why, a batch makes
// room that refill fills.
func (s *Subscription) took(rel *storage.Relation, ok bool) (*storage.Relation, error) {
	if !ok {
		return nil, s.Err()
	}
	s.refill()
	return rel, nil
}

// Close detaches delivery from the output basket and closes the delivery
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

// closeWith records the close reason, detaches the listener, and closes
// the channel. First reason wins.
func (s *Subscription) closeWith(cause error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = cause
	listener := s.listener
	s.mu.Unlock()
	if listener != 0 {
		s.out.Unsubscribe(listener)
	}
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
