package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestManualClockChanged(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	c := NewManualClock(start)

	ch := c.Changed()
	select {
	case <-ch:
		t.Fatal("channel closed before any advance")
	default:
	}

	c.Advance(time.Second)
	select {
	case <-ch:
	default:
		t.Fatal("Advance did not signal")
	}

	// A fresh channel fires on Set too.
	ch = c.Changed()
	c.Set(start.Add(time.Hour))
	select {
	case <-ch:
	default:
		t.Fatal("Set did not signal")
	}

	// Zero-duration moves leave waiters parked: time did not change.
	ch = c.Changed()
	c.Advance(0)
	c.Set(c.Now())
	select {
	case <-ch:
		t.Fatal("no-op clock moves signalled")
	default:
	}
}

// Readers call Now while a mover alternates Advance and Set: no read
// may go backwards. A waiter grabs Changed, reads Now and only then
// lets the mover make one move, which must wake it and be visible. The
// mover then reports the move done, so a waiter that missed it finds
// its channel still open and says so, with no timer. Run under -race
// (make chaos) this also checks that Now's lock-free load is properly
// published by the movers.
func TestManualClockChangedConcurrent(t *testing.T) {
	c := NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := c.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now.Before(prev) {
					errs <- fmt.Errorf("Now went backwards: %v after %v", now, prev)
					return
				}
				prev = now
			}
		}()
	}
	// moved holds at most one token: the mover sends one per move, the
	// waiter takes one before it asks for the next move.
	ready, moved := make(chan struct{}), make(chan struct{}, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ready)
		for range 100 {
			ch := c.Changed()
			before := c.Now()
			ready <- struct{}{}
			var after time.Time
			select {
			case <-ch:
				after = c.Now()
				<-moved
			case <-moved:
				select {
				case <-ch:
				default:
					errs <- fmt.Errorf("waiter at %v missed the advance", before)
					return
				}
				after = c.Now()
			}
			if !after.After(before) {
				errs <- fmt.Errorf("woken at %v, clock still at %v", before, after)
				return
			}
		}
	}()
	for i := 0; ; i++ {
		if _, ok := <-ready; !ok {
			break
		}
		if i%2 == 0 {
			c.Advance(time.Millisecond)
		} else {
			c.Set(c.Now().Add(time.Millisecond))
		}
		moved <- struct{}{}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestManualClockNowAllocatesNothing(t *testing.T) {
	c := NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	if n := testing.AllocsPerRun(100, func() { c.Now() }); n != 0 {
		t.Fatalf("Now allocates %v times per call, want 0", n)
	}
}
