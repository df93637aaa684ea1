package freelist

import "testing"

// A List hands back what it was given, makes new objects only when
// empty, and after warm-up touches no allocator.
func TestListRecyclesWithoutAllocating(t *testing.T) {
	made := 0
	l := List[*[64]byte]{New: func() *[64]byte { made++; return new([64]byte) }}
	a, b := l.Get(), l.Get()
	if made != 2 || a == b {
		t.Fatalf("two Gets on an empty list made %d objects", made)
	}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != a && got != b {
		t.Fatal("Get did not return an object that was Put")
	} else {
		l.Put(got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		x, y := l.Get(), l.Get()
		l.Put(x)
		l.Put(y)
	}); allocs != 0 || made != 2 {
		t.Fatalf("steady state: %.1f allocations per round, %d objects made", allocs, made)
	}
}

// Without New an empty list returns the zero value, and Drain hands
// over everything the list holds and leaves it empty.
func TestListDrain(t *testing.T) {
	var l List[*int]
	if l.Get() != nil {
		t.Fatal("an empty List without New returned an object")
	}
	x, y := new(int), new(int)
	l.Put(x)
	l.Put(y)
	if got := l.Drain(); len(got) != 2 || got[0] != x || got[1] != y {
		t.Fatalf("Drain returned %v", got)
	}
	if l.Get() != nil || len(l.Drain()) != 0 {
		t.Fatal("the list is not empty after Drain")
	}
}

// A List keeps at most MaxFree objects and says which Put it dropped.
func TestListKeepsAtMostMaxFree(t *testing.T) {
	var l List[*int]
	for i := 0; i < MaxFree; i++ {
		if !l.Put(new(int)) {
			t.Fatalf("Put %d of %d was dropped", i+1, MaxFree)
		}
	}
	if l.Put(new(int)) {
		t.Fatal("a full list kept one more")
	}
	if n := len(l.Drain()); n != MaxFree {
		t.Fatalf("the list held %d objects, want %d", n, MaxFree)
	}
}
