// Package metrics provides the injectable clock the engine and its
// harnesses read time through. (Histograms and counters live in
// internal/obs.) Everything is safe for concurrent use.
package metrics

import (
	"sync"
	"time"
)

// Clock abstracts time so tests and simulations can drive it manually.
type Clock interface {
	// Now returns nanoseconds since the epoch.
	Now() int64
}

// WallClock reads the system clock.
type WallClock struct{}

// Now implements Clock.
func (WallClock) Now() int64 { return time.Now().UnixNano() }

// ManualClock is an explicitly advanced clock for deterministic tests.
type ManualClock struct {
	mu sync.Mutex
	ns int64
}

// NewManualClock starts at the given nanosecond timestamp.
func NewManualClock(start int64) *ManualClock { return &ManualClock{ns: start} }

// Now implements Clock.
func (c *ManualClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

// Advance moves the clock forward by d nanoseconds.
func (c *ManualClock) Advance(d int64) {
	c.mu.Lock()
	c.ns += d
	c.mu.Unlock()
}

// Set jumps the clock to ns.
func (c *ManualClock) Set(ns int64) {
	c.mu.Lock()
	c.ns = ns
	c.mu.Unlock()
}
