// Package freelist recycles the probe path's scratch objects: buffered
// readers, wire buffers, parse scratch and bound sockets. A List keeps
// up to MaxFree objects, so after warm-up a Get and its Put touch no
// allocator.
//
// It is not a sync.Pool on purpose. A sync.Pool is emptied by every
// garbage collection, so a probe would allocate again after each cycle,
// and how often depends on when the collector ran: a campaign's
// allocation count would move with the GC schedule instead of being a
// function of the work. A pooled socket dropped by a collection is
// never closed either, and keeps its port bound. The price is that
// whatever a List holds stays reachable: a user clears references out
// of an object (a reader's source, say) before putting it back.
//
// The objects sit in a buffered channel rather than behind a
// sync.Mutex. The simulated hosts' handlers use these lists too, and a
// hitlist liveness sweep starts thousands of them at once; on a mutex
// they queued behind one another as parked goroutines, each holding its
// connection, and were still queued when the sweep returned. A
// non-blocking channel operation never parks its goroutine.
package freelist

import "sync"

// MaxFree is how many objects a List keeps. A scan holds about one
// object per list per worker at a time; the bound is for bursts such as
// a liveness sweep, whose handlers would otherwise leave their
// high-water mark reachable for the life of the process.
const MaxFree = 64

// List is a free list of T. The zero List is empty and Get returns T's
// zero value when it has nothing to hand out; with New set, Get makes
// a fresh T instead. A List must not be copied after first use. Safe
// for concurrent use.
type List[T any] struct {
	// New, when set, makes a T for a Get that finds the list empty.
	New func() T

	once sync.Once
	free chan T
}

func (l *List[T]) init() {
	l.once.Do(func() { l.free = make(chan T, MaxFree) })
}

// Get takes a free T, or a new one when none is free.
func (l *List[T]) Get() T {
	l.init()
	select {
	case v := <-l.free:
		return v
	default:
	}
	if l.New != nil {
		return l.New()
	}
	var zero T
	return zero
}

// Put returns v for a later Get and reports whether the list kept it.
// A list already holding MaxFree objects drops v, which a caller whose
// objects hold more than memory (a bound socket) then releases itself.
func (l *List[T]) Put(v T) bool {
	l.init()
	select {
	case l.free <- v:
		return true
	default:
		return false
	}
}

// Drain empties the list and returns what it held, so an owner can
// release objects that hold more than memory (a bound socket).
func (l *List[T]) Drain() []T {
	l.init()
	var out []T
	for {
		select {
		case v := <-l.free:
			out = append(out, v)
		default:
			return out
		}
	}
}
