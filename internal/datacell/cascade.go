package datacell

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/adapters"
	"repro/internal/algebra"
	"repro/internal/basket"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/vector"
)

// CascadePredicate is one stage of the cascade strategy (§2.5, third
// strategy): a range predicate lo <= attr < hi over one stream attribute.
// Stages must be pairwise disjoint for the cascade to be equivalent to
// independent queries — stage i removes its qualifying tuples, so stage
// i+1 only processes what earlier stages rejected.
type CascadePredicate struct {
	Attr   string
	Lo, Hi vector.Value // half-open [Lo, Hi); NULL bound = unbounded
}

// String renders the predicate.
func (p CascadePredicate) String() string {
	return fmt.Sprintf("%s in [%s, %s)", p.Attr, p.Lo, p.Hi)
}

// Cascade is a registered chain of disjoint-range stages over one stream.
type Cascade struct {
	Name   string
	stream string
	stages []*cascadeStage
}

// Subscription returns the i-th stage's result subscription.
func (c *Cascade) Subscription(i int) *Subscription { return c.stages[i].sub }

// Stages returns the number of stages.
func (c *Cascade) Stages() int { return len(c.stages) }

// Processed returns the number of tuples stage i examined — the quantity
// the cascade strategy reduces for later stages.
func (c *Cascade) Processed(i int) int64 { return c.stages[i].processed.Load() }

// cascadeStage is a custom transition: it selects its range from its input
// basket, forwards the rest to the next stage's basket, and consumes
// everything — q2 never sees what qualified for q1.
type cascadeStage struct {
	name    string
	pred    CascadePredicate
	attrIdx int
	in      *basket.Basket
	next    *basket.Basket // nil for the last stage
	out     *basket.Basket
	sub     *Subscription

	processed atomic.Int64 // written by the firing worker, read by Processed
}

// Name implements scheduler.Transition.
func (s *cascadeStage) Name() string { return s.name }

// Ready implements scheduler.Transition.
func (s *cascadeStage) Ready() bool { return s.in.Len() > 0 }

// Fire implements scheduler.Transition: one bulk select-and-split step.
// The drained view is processed chunk by chunk: the range select runs on
// each chunk's column segment and the split relations are gathered with
// chunk-local takes — no flat copy of the basket is materialized.
func (s *cascadeStage) Fire() error {
	s.in.Lock()
	view, n := s.in.LockedSnapshot()
	s.in.LockedDropPrefix(n)
	s.in.Unlock()
	if n == 0 {
		return nil
	}
	s.processed.Add(int64(n))

	matched := make(bat.Candidates, 0, n)
	base := 0
	for _, ch := range view.Chunks {
		cn := ch.Len()
		if cn == 0 {
			continue
		}
		for _, p := range algebra.RangeSelect(ch.Cols[s.attrIdx], nil, s.pred.Lo, s.pred.Hi, true, false) {
			matched = append(matched, base+p)
		}
		base += cn
	}
	rest := bat.Complement(0, n, matched)

	userW := s.in.UserWidth()
	split := func(pos bat.Candidates, dst *basket.Basket) error {
		if dst == nil || len(pos) == 0 {
			return nil
		}
		rel := &storage.Relation{Cols: make([]*vector.Vector, userW)}
		for c := 0; c < userW; c++ {
			rel.Cols[c] = view.TakeColumn(c, pos)
		}
		if err := dst.AppendRelation(rel); err != nil {
			return fmt.Errorf("cascade %s: %w", s.name, err)
		}
		return nil
	}
	if err := split(matched, s.out); err != nil {
		return err
	}
	return split(rest, s.next)
}

// RegisterCascade installs the cascade strategy for k disjoint range
// queries over one stream: stage i receives what stages 0..i-1 rejected.
// Each stage's matches land in basket <name>_s<i>_out with a subscription
// channel.
func (e *Engine) RegisterCascade(name, streamName string, preds []CascadePredicate) (*Cascade, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("datacell: cascade needs at least one predicate")
	}
	// Every side effect pushes its inverse before the next one runs, so a
	// failure at any stage leaves nothing behind (Query.build's pattern).
	var undo []func()
	fail := func(err error) (*Cascade, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return nil, err
	}

	// The claim comes first and is one e.mu hold: everything later is
	// keyed by the name (catalog entries, transition names), so a losing
	// concurrent registration must not get past it.
	c := &Cascade{Name: name, stream: streamName}
	key := strings.ToLower(name)
	e.mu.Lock()
	_, dup := e.cascades[key]
	s, ok := e.streams[strings.ToLower(streamName)]
	if !dup && ok {
		e.cascades[key] = c
	}
	e.mu.Unlock()
	switch {
	case dup:
		return nil, fmt.Errorf("%w: cascade %q", ErrDuplicateQuery, name)
	case !ok:
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, streamName)
	}
	undo = append(undo, func() {
		e.mu.Lock()
		delete(e.cascades, key)
		e.mu.Unlock()
	})

	// Stage 0 reads a private replica of the stream; the paper's "extra
	// basket between q1 and q2" connects consecutive stages.
	head := basket.New(name+"_s0_in", s.schema, e.clock)
	chain := head
	for i, p := range preds {
		attrIdx := s.schema.Index(p.Attr)
		if attrIdx < 0 {
			return fail(fmt.Errorf("datacell: cascade attribute %q not in stream %s", p.Attr, streamName))
		}
		var next *basket.Basket
		if i+1 < len(preds) {
			next = basket.New(fmt.Sprintf("%s_s%d_in", name, i+1), s.schema, e.clock)
		}
		out := basket.New(fmt.Sprintf("%s_s%d_out", name, i), s.schema, e.clock)
		if err := e.cat.Register(out.Name(), catalog.KindBasket, out); err != nil {
			return fail(err)
		}
		undo = append(undo, func() { _ = e.cat.Drop(out.Name()) })
		emitter := adapters.NewChannelEmitter(fmt.Sprintf("%s_s%d_emit", name, i), out, 64, adapters.BackpressureBlock)
		sub := newSubscription(e, emitter)
		undo = append(undo, func() { sub.closeWith(ErrSubscriptionClosed) })
		c.stages = append(c.stages, &cascadeStage{
			name:    fmt.Sprintf("%s_s%d", name, i),
			pred:    p,
			attrIdx: attrIdx,
			in:      chain,
			next:    next,
			out:     out,
			sub:     sub,
		})
		chain = next
	}

	// Nothing below can fail. Cascades are Go-only (no DDL spelling) and
	// therefore not journaled for recovery, but their firings are still
	// gated so a checkpoint cut never splits one. Each stage wakes on
	// appends to its input basket, each emitter on appends to its stage's
	// output.
	for _, st := range c.stages {
		h := e.addTransition(st, 0)
		st.in.Subscribe(h.Wake)
		eh := e.addTransition(st.sub.em, 0)
		st.out.Subscribe(eh.Wake)
		st.sub.scheduled(eh)
	}
	e.mu.Lock()
	// Copy-on-write: see Query.attachInput.
	s.replicas = append(append([]*basket.Basket(nil), s.replicas...), head)
	e.mu.Unlock()
	return c, nil
}
