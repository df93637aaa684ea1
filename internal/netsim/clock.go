package netsim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts time for the simulation. The scan pipeline stamps
// events through a Clock so mass experiments can run on a manual clock
// (advancing weeks of collection time in milliseconds of wall time) while
// the real-socket tools use the system clock.
type Clock interface {
	Now() time.Time
}

// RealClock is the system clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// ManualClock is a logical clock advanced explicitly by the experiment
// driver. It is safe for concurrent use. Reading it takes no lock: the
// instant is an immutable time.Time behind an atomic pointer, which
// Set and Advance replace while holding mu (so moves serialise and
// Changed waiters are signalled in order).
type ManualClock struct {
	now     atomic.Pointer[time.Time]
	mu      sync.Mutex
	changed chan struct{}
}

// NewManualClock returns a manual clock starting at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	c := &ManualClock{}
	c.now.Store(&start)
	return c
}

// Now implements Clock with one atomic load.
func (c *ManualClock) Now() time.Time {
	return *c.now.Load()
}

// Changed returns a channel that is closed the next time the clock
// moves. Logical-time waiters (e.g. a token bucket running on simulated
// time) grab the channel, re-read Now, and block on the channel — the
// grab-before-read order guarantees an advance between the read and the
// wait is never missed: a move stores the new instant before it closes
// the channel, both under mu.
func (c *ManualClock) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return c.changed
}

// moveTo publishes t and wakes Changed waiters. Callers hold mu.
func (c *ManualClock) moveTo(t time.Time) {
	c.now.Store(&t)
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// Advance moves the clock forward by d and returns the new time. It
// panics on negative d — the simulation is strictly monotonic.
func (c *ManualClock) Advance(d time.Duration) time.Time {
	if d < 0 {
		panic("netsim: ManualClock.Advance with negative duration")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Now()
	if d > 0 {
		now = now.Add(d)
		c.moveTo(now)
	}
	return now
}

// Set jumps the clock to t. It panics if t is before the current time.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.Now()
	if t.Before(now) {
		panic("netsim: ManualClock.Set moving backwards")
	}
	if t.After(now) {
		c.moveTo(t)
	}
}
