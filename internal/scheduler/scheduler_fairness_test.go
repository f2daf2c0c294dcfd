package scheduler

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRemoveFencesInFlightFiring verifies the Remove use-after-drop fix:
// Remove must not return while a worker is inside Fire, so teardown after
// Remove cannot race with a firing.
func TestRemoveFencesInFlightFiring(t *testing.T) {
	var torn, firedAfterTeardown atomic.Bool
	inFire := make(chan struct{}, 1)
	release := make(chan struct{})
	tr := &funcTransition{
		name:  "victim",
		ready: func() bool { return true },
		fire: func() error {
			if torn.Load() {
				firedAfterTeardown.Store(true)
			}
			select {
			case inFire <- struct{}{}:
			default:
			}
			<-release
			return nil
		},
	}
	s := New()
	s.Register(tr, 0)
	s.Start(2)
	defer s.Stop()

	<-inFire // a worker is now inside Fire
	removed := make(chan struct{})
	go func() {
		s.Remove("victim")
		torn.Store(true) // simulates DROP CONTINUOUS QUERY teardown
		close(removed)
	}()
	select {
	case <-removed:
		t.Fatal("Remove returned while Fire was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release) // let the firing finish
	select {
	case <-removed:
	case <-time.After(5 * time.Second):
		t.Fatal("Remove never returned")
	}
	// Give any stray queued claim a chance to run; it must see removed.
	time.Sleep(20 * time.Millisecond)
	if firedAfterTeardown.Load() {
		t.Fatal("transition fired after Remove returned")
	}
}

// TestLowPriorityNotStarved proves a continuously-ready high-priority
// transition cannot starve a low-priority one: after each firing a ready
// transition re-queues at the tail, so the queue stays fair.
func TestLowPriorityNotStarved(t *testing.T) {
	var highFired, lowFired atomic.Int64
	high := &funcTransition{
		name:  "high",
		ready: func() bool { return true },
		fire:  func() error { highFired.Add(1); return nil },
	}
	low := &funcTransition{
		name:  "low",
		ready: func() bool { return true },
		fire:  func() error { lowFired.Add(1); return nil },
	}
	s := New()
	s.Register(high, 10)
	s.Register(low, 0)
	s.Start(1) // a single worker makes starvation possible if scheduling is unfair
	deadline := time.After(5 * time.Second)
	for lowFired.Load() < 100 {
		select {
		case <-deadline:
			t.Fatalf("low-priority starved: low=%d high=%d", lowFired.Load(), highFired.Load())
		case <-time.After(time.Millisecond):
		}
	}
	s.Stop()
	if highFired.Load() == 0 {
		t.Fatal("high-priority never fired")
	}
}

// TestWakeCoalescing proves K rapid wakes cause at most K+1 readiness
// scans of the woken transition — not K × workers. Wakes landing while
// the transition is queued or running must be absorbed.
func TestWakeCoalescing(t *testing.T) {
	var scans, tokens atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	tr := &funcTransition{
		name: "sink",
		ready: func() bool {
			scans.Add(1)
			return tokens.Load() > 0
		},
		fire: func() error {
			select {
			case started <- struct{}{}:
			default:
			}
			<-block // hold the transition in "running" while wakes arrive
			tokens.Store(0)
			return nil
		},
	}
	s := New()
	h := s.Register(tr, 0)
	s.Start(4)
	defer s.Stop()

	tokens.Store(1)
	h.Wake()
	<-started // transition is mid-fire
	scansBefore := scans.Load()
	const K = 1000
	for i := 0; i < K; i++ {
		h.Wake() // all land in running/runningDirty: one re-enqueue total
	}
	close(block)
	// Wait for the post-fire settle.
	deadline := time.After(5 * time.Second)
	for h.Coalesced() < K-1 {
		select {
		case <-deadline:
			t.Fatalf("coalesced = %d, want >= %d", h.Coalesced(), K-1)
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond) // let any residual scans land
	extra := scans.Load() - scansBefore
	// The dirty re-enqueue costs one scan, the epilogue re-check one more,
	// and the final idle settle one — far below K, and nowhere near K × 4.
	if extra > 16 {
		t.Fatalf("K=%d wakes caused %d scans; want ≤ 16", K, extra)
	}
}

// TestTargetedWakeDrivesPipeline checks that Handle.Wake alone (no global
// Notify) is enough to drive a two-stage pipeline, including the chained
// wake from stage 1's output to stage 2.
func TestTargetedWakeDrivesPipeline(t *testing.T) {
	var a, b, c int64
	s := New()
	h2 := s.Register(&tokenTransition{name: "t2", in: &b, out: &c, min: 1}, 0)
	t1 := &funcTransition{
		name:  "t1",
		ready: func() bool { return atomic.LoadInt64(&a) >= 1 },
		fire: func() error {
			n := atomic.SwapInt64(&a, 0)
			atomic.AddInt64(&b, n)
			h2.Wake() // the basket-append listener in the real wiring
			return nil
		},
	}
	h1 := s.Register(t1, 0)
	s.Start(2)
	defer s.Stop()
	for i := 0; i < 50; i++ {
		atomic.AddInt64(&a, 2)
		h1.Wake()
	}
	deadline := time.After(5 * time.Second)
	for atomic.LoadInt64(&c) != 100 {
		select {
		case <-deadline:
			t.Fatalf("timeout: a=%d b=%d c=%d", atomic.LoadInt64(&a), atomic.LoadInt64(&b), atomic.LoadInt64(&c))
		case <-time.After(time.Millisecond):
		}
	}
}

// TestStatsCounters sanity-checks the observability counters.
func TestStatsCounters(t *testing.T) {
	var in, out int64 = 5, 0
	s := New()
	h := s.Register(&tokenTransition{name: "t", in: &in, out: &out, min: 1}, 3)
	s.Step()
	st := s.Stats()
	if st.Fired != 1 || h.Fired() != 1 {
		t.Fatalf("fired: total=%d handle=%d", st.Fired, h.Fired())
	}
	if len(st.Transitions) != 1 || st.Transitions[0].Name != "t" || st.Transitions[0].Priority != 3 {
		t.Fatalf("transitions = %+v", st.Transitions)
	}
}
