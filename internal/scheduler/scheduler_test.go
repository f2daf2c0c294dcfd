package scheduler

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tokenTransition moves tokens from an input counter to an output counter,
// modeling a factory between two baskets.
type tokenTransition struct {
	name     string
	in, out  *int64
	min      int64
	failWith error
}

func (t *tokenTransition) Name() string { return t.name }
func (t *tokenTransition) Ready() bool  { return atomic.LoadInt64(t.in) >= t.min }
func (t *tokenTransition) Fire() error {
	if t.failWith != nil {
		return t.failWith
	}
	n := atomic.LoadInt64(t.in)
	atomic.AddInt64(t.in, -n)
	atomic.AddInt64(t.out, n)
	return nil
}

func TestStepFiresReadyTransitions(t *testing.T) {
	s := New()
	var a, b, c int64 = 5, 0, 0
	s.Register(&tokenTransition{name: "t1", in: &a, out: &b, min: 1}, 0)
	s.Register(&tokenTransition{name: "t2", in: &b, out: &c, min: 1}, 0)
	// First pass: t1 fires (a→b); t2 fires too because it runs after t1.
	fired := s.Step()
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	if a != 0 || b != 0 || c != 5 {
		t.Errorf("tokens: a=%d b=%d c=%d", a, b, c)
	}
	if s.Step() != 0 {
		t.Error("dead net should not fire")
	}
}

func TestMinTokensGatesFiring(t *testing.T) {
	s := New()
	var a, b int64 = 3, 0
	s.Register(&tokenTransition{name: "t", in: &a, out: &b, min: 5}, 0)
	if s.Step() != 0 {
		t.Error("transition below threshold fired")
	}
	atomic.AddInt64(&a, 2)
	if s.Step() != 1 {
		t.Error("transition at threshold did not fire")
	}
}

func TestDrainChains(t *testing.T) {
	s := New()
	// Chain of 4 stages; each Step moves tokens one stage in order, so a
	// Drain settles the whole chain.
	var stages [5]int64
	stages[0] = 7
	for i := 0; i < 4; i++ {
		s.Register(&tokenTransition{name: "t", in: &stages[i], out: &stages[i+1], min: 1}, 0)
	}
	total := s.Drain(100)
	if stages[4] != 7 {
		t.Errorf("tokens at sink = %d", stages[4])
	}
	if total < 4 {
		t.Errorf("total firings = %d", total)
	}
	if s.Fired() != int64(total) {
		t.Errorf("Fired = %d, want %d", s.Fired(), total)
	}
}

func TestErrorsRecordedAndReported(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	var a, b int64 = 1, 0
	var gotName string
	s.OnError = func(name string, err error) { gotName = name }
	s.Register(&tokenTransition{name: "bad", in: &a, out: &b, failWith: boom, min: 1}, 0)
	s.Step()
	if !errors.Is(s.Err(), boom) {
		t.Errorf("Err = %v", s.Err())
	}
	if gotName != "bad" {
		t.Errorf("OnError name = %q", gotName)
	}
}

func TestRemove(t *testing.T) {
	s := New()
	var a, b int64 = 1, 0
	s.Register(&tokenTransition{name: "t1", in: &a, out: &b, min: 1}, 0)
	s.Remove("t1")
	if len(s.Transitions()) != 0 {
		t.Error("transition not removed")
	}
	if s.Step() != 0 {
		t.Error("removed transition fired")
	}
	s.Remove("absent") // no panic
}

func TestConcurrentModeProcessesStream(t *testing.T) {
	s := New()
	var in, out int64
	h := s.Register(&tokenTransition{name: "t", in: &in, out: &out, min: 1}, 0)
	s.Start(4)
	defer s.Stop()
	for i := 0; i < 100; i++ {
		atomic.AddInt64(&in, 10)
		h.Wake()
	}
	deadline := time.After(5 * time.Second)
	for atomic.LoadInt64(&out) != 1000 {
		select {
		case <-deadline:
			t.Fatalf("timeout: out = %d", atomic.LoadInt64(&out))
		case <-time.After(time.Millisecond):
		}
	}
	s.Stop() // idempotent with deferred Stop
}

func TestNoSelfOverlapInConcurrentMode(t *testing.T) {
	// A transition that checks it is never fired concurrently with itself.
	var active, maxActive int32
	var mu sync.Mutex
	tr := &funcTransition{
		name:  "serial",
		ready: func() bool { return true },
		fire: func() error {
			cur := atomic.AddInt32(&active, 1)
			mu.Lock()
			if cur > maxActive {
				maxActive = cur
			}
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			atomic.AddInt32(&active, -1)
			return nil
		},
	}
	s := New()
	s.Register(tr, 0)
	s.Start(8)
	time.Sleep(50 * time.Millisecond)
	s.Stop()
	mu.Lock()
	defer mu.Unlock()
	if maxActive > 1 {
		t.Errorf("transition overlapped with itself: max %d", maxActive)
	}
}

type funcTransition struct {
	name  string
	ready func() bool
	fire  func() error
}

func (f *funcTransition) Name() string { return f.name }
func (f *funcTransition) Ready() bool  { return f.ready() }
func (f *funcTransition) Fire() error  { return f.fire() }

func TestStartTwiceAndStopTwice(t *testing.T) {
	s := New()
	s.Start(1)
	s.Start(1) // no-op
	s.Stop()
	s.Stop() // no-op
}

func TestStopInterruptsAlwaysReadyNet(t *testing.T) {
	// A transition that is permanently ready must not prevent Stop.
	s := New()
	s.Register(&funcTransition{
		name:  "busy",
		ready: func() bool { return true },
		fire:  func() error { return nil },
	}, 0)
	s.Start(2)
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on an always-ready transition")
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := New()
	var order []string
	mk := func(name string) *funcTransition {
		fired := false
		return &funcTransition{
			name:  name,
			ready: func() bool { return !fired },
			fire: func() error {
				fired = true
				order = append(order, name)
				return nil
			},
		}
	}
	s.Register(mk("low1"), 0)  // prio 0
	s.Register(mk("high"), 10) // scanned first
	s.Register(mk("mid"), 5)   // between
	s.Register(mk("low2"), 0)  // prio 0, after low1
	s.Step()
	want := []string{"high", "mid", "low1", "low2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
