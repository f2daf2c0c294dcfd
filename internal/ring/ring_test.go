package ring

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestPushPopFIFO(t *testing.T) {
	r := New[int](4) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push succeeded on full ring")
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("len = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop succeeded on empty ring")
	}
}

func TestPeekAndDo(t *testing.T) {
	r := New[string](8)
	r.Push("a")
	r.Push("b")
	if v, ok := r.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q,%v", v, ok)
	}
	var seen []string
	r.Do(func(s string) { seen = append(seen, s) })
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("do visited %v", seen)
	}
	if r.Len() != 2 {
		t.Fatalf("do consumed items: len = %d", r.Len())
	}
	r.PopN(2)
	if r.Len() != 0 {
		t.Fatalf("popn left %d items", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	r := New[int](8)
	next := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 5; i++ {
			r.Push(next + i)
		}
		for i := 0; i < 5; i++ {
			v, ok := r.Pop()
			if !ok || v != next+i {
				t.Fatalf("round %d: pop = %d,%v want %d", round, v, ok, next+i)
			}
		}
		next += 5
	}
}

// TestConcurrentSPSC exercises the producer/consumer pair under the race
// detector to validate the atomic publication protocol.
func TestConcurrentSPSC(t *testing.T) {
	r := New[int](64)
	const total = 100_000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; {
			if r.Push(i) {
				i++
			}
		}
	}()
	errs := make(chan int, 1)
	go func() {
		defer wg.Done()
		want := 0
		for want < total {
			v, ok := r.Pop()
			if !ok {
				continue
			}
			if v != want {
				select {
				case errs <- v:
				default:
				}
				return
			}
			want++
		}
	}()
	wg.Wait()
	select {
	case v := <-errs:
		t.Fatalf("out-of-order pop: got %d", v)
	default:
	}
}

// TestQueueConcurrentFIFO is the unbounded queue's one property: whatever
// mix of ring and spill the items travel through, and however the
// consumer interleaves Peek, Do and PopN with a racing producer, items
// come out exactly once, in push order, and Do only ever shows a prefix.
func TestQueueConcurrentFIFO(t *testing.T) {
	const total = 200_000
	q := NewQueue[int](8) // tiny ring: most items spill
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			q.Push(i)
			if i%1024 == 0 {
				runtime.Gosched() // let the consumer catch up so the ring is used again
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for want := 0; want < total; {
		switch rng.Intn(3) {
		case 0: // one at a time
			v, ok := q.Peek()
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != want {
				t.Fatalf("Peek = %d, want %d", v, want)
			}
			q.PopN(1)
			want++
		case 1: // everything visible
			n := 0
			q.Do(func(v int) {
				if v != want+n {
					t.Errorf("Do visited %d at position %d, want %d", v, n, want+n)
				}
				n++
			})
			if t.Failed() {
				t.FailNow()
			}
			q.PopN(n)
			want += n
		default: // a strict prefix of what is visible, leaving a remainder behind
			n := 0
			q.Do(func(int) { n++ })
			q.PopN(n / 2)
			want += n / 2
		}
	}
	wg.Wait()
	if _, ok := q.Peek(); ok || q.Len() != 0 {
		t.Fatalf("queue not empty after draining: len %d", q.Len())
	}
}
