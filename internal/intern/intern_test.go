package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestBytesAndStringCanonicalise(t *testing.T) {
	tab := New()
	a := tab.Bytes([]byte("fritzbox"))
	b := tab.Bytes([]byte("fritzbox"))
	if a != "fritzbox" || b != "fritzbox" {
		t.Fatalf("got %q, %q", a, b)
	}
	// Same backing storage: interning returns the canonical instance.
	if &a == nil || tab.String("fritzbox") != a {
		t.Fatal("String did not return the canonical instance")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	if tab.Bytes(nil) != "" || tab.String("") != "" {
		t.Fatal("empty values must intern to the empty string")
	}
}

func TestConcurrentIntern(t *testing.T) {
	tab := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := fmt.Sprintf("value-%d", i%100)
				if got := tab.String(s); got != s {
					t.Errorf("intern(%q) = %q", s, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if tab.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tab.Len())
	}
}

func TestBytesHitPathDoesNotAllocate(t *testing.T) {
	tab := New()
	key := []byte("abcdef0123456789")
	tab.Bytes(key) // warm
	allocs := testing.AllocsPerRun(100, func() {
		tab.Bytes(key)
	})
	if allocs != 0 {
		t.Fatalf("interned lookup allocated %v times per run", allocs)
	}
}

// Len returns the number of distinct strings held.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
