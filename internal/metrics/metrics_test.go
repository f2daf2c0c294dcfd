package metrics

import "testing"

func TestManualClock(t *testing.T) {
	c := NewManualClock(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %d", c.Now())
	}
	c.Advance(50)
	if c.Now() != 150 {
		t.Errorf("after Advance: %d", c.Now())
	}
	c.Set(10)
	if c.Now() != 10 {
		t.Errorf("after Set: %d", c.Now())
	}
}

func TestWallClockMonotonicEnough(t *testing.T) {
	var w WallClock
	a := w.Now()
	b := w.Now()
	if b < a {
		t.Errorf("wall clock went backwards: %d then %d", a, b)
	}
}
