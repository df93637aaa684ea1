package zgrab

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

// tableStats reads the live session count and the high-water mark. The
// table never shrinks, so the mark is its size.
func tableStats(t *sessionTable) (live, high int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slots) - len(t.free), len(t.slots)
}

// TestSessionTableLifecycle exercises the dense table directly: ids are
// handed out densely, freed ids recycle LIFO, the high-water mark
// tracks peak liveness, and a double release panics.
func TestSessionTableLifecycle(t *testing.T) {
	var tab sessionTable
	a, b, c := tab.acquire(), tab.acquire(), tab.acquire()
	if a.id != 0 || b.id != 1 || c.id != 2 {
		t.Fatalf("ids not dense: %d %d %d", a.id, b.id, c.id)
	}
	if live, high := tableStats(&tab); live != 3 || high != 3 {
		t.Fatalf("stats = %d live, %d high, want 3/3", live, high)
	}
	tab.release(b)
	if got := tab.acquire(); got != b {
		t.Fatalf("freed slot not recycled: got id %d, want %d", got.id, b.id)
	}
	tab.release(a)
	tab.release(b)
	tab.release(c)
	if live, high := tableStats(&tab); live != 0 || high != 3 {
		t.Fatalf("stats = %d live, %d high, want 0/3", live, high)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	tab.release(a)
}

// TestSessionTableZeroAllocSteadyState pins the recycle path: once the
// table has grown to the in-flight high-water mark, acquire/release
// pairs never touch the allocator (the property the sync.Pool it
// replaced only provided probabilistically).
func TestSessionTableZeroAllocSteadyState(t *testing.T) {
	var tab sessionTable
	warm := make([]*session, 8)
	for i := range warm {
		warm[i] = tab.acquire()
	}
	for _, s := range warm {
		tab.release(s)
	}
	addr := netip.MustParseAddr("2001:db8::1")
	if avg := testing.AllocsPerRun(200, func() {
		s := tab.acquire()
		s.targets = append(s.targets, target{addr: addr})
		tab.release(s)
	}); avg != 0 {
		t.Fatalf("steady-state acquire/release allocates %.1f objects", avg)
	}
}

// TestScannerSessionAccounting checks the table behind a running
// scanner: after a drained run every session has been released and the
// high-water mark reflects that chunks were actually in flight. The
// targets are all dark, so the fabric runs on a ManualClock (as the
// campaign's does): dial timeouts are stamped, not waited out.
func TestScannerSessionAccounting(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	f := netsim.New(netsim.Config{Clock: clock, DialTimeout: 10 * time.Millisecond})
	s := NewScanner(Config{Fabric: f, Source: scanSrc, Workers: 4})
	s.Start(context.Background())
	defer s.Close()
	addrs := make([]netip.Addr, 0, 3*submitChunk+5)
	for i := 0; i < cap(addrs); i++ {
		addrs = append(addrs, netip.AddrFrom16(
			[16]byte{0x20, 0x01, 0xd, 0xb8, 0xfe, byte(i >> 8), byte(i)}))
	}
	s.SubmitBatch(addrs)
	s.Drain()
	live, high := tableStats(&s.sessions)
	if live != 0 {
		t.Fatalf("%d sessions still live after drain", live)
	}
	if high < 1 {
		t.Fatalf("high-water mark %d, want >= 1", high)
	}
}
