package zgrab

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

func TestRevisitSweepEvictsExpired(t *testing.T) {
	rv := NewRevisit(time.Hour)
	t0 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	a := netip.MustParseAddr("2001:db8::1")
	b := netip.MustParseAddr("2001:db8::2")
	rv.Allow(a, t0)
	rv.Allow(b, t0.Add(30*time.Minute))
	if n := len(rv.Snapshot()); n != 2 {
		t.Fatalf("tracking %d addresses, want 2", n)
	}

	// Only a's holdoff has expired at t0+1h.
	if n := rv.Sweep(t0.Add(time.Hour)); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if n := len(rv.Snapshot()); n != 1 {
		t.Fatalf("tracking %d addresses after sweep, want 1", n)
	}
	if !rv.Allow(a, t0.Add(time.Hour)) {
		t.Fatal("evicted address still suppressed")
	}
	if rv.Allow(b, t0.Add(time.Hour)) {
		t.Fatal("unexpired address admitted")
	}
}

func TestRevisitSnapshotRestore(t *testing.T) {
	rv := NewRevisit(time.Hour)
	t0 := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		rv.Allow(netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(i)}), t0.Add(time.Duration(i)*time.Minute))
	}
	snap := rv.Snapshot()
	if len(snap) != 10 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if !snap[i-1].Addr.Less(snap[i].Addr) {
			t.Fatal("snapshot not in canonical address order")
		}
	}
	rv2 := NewRevisit(time.Hour)
	rv2.Restore(snap)
	if fmt.Sprintf("%+v", rv2.Snapshot()) != fmt.Sprintf("%+v", snap) {
		t.Fatal("restore round trip diverges")
	}
}

// Satellite: cancelling the scanner's context mid-drain must not wedge
// Drain or Close — in-flight targets finish (possibly with error
// results), the pending count hits zero, and shutdown completes.
func TestScannerContextCancelMidDrain(t *testing.T) {
	f := netsim.New(netsim.Config{DialTimeout: 50 * time.Millisecond})
	// No hosts registered: every dial blackholes until DialTimeout, so
	// the queue stays busy long enough for a mid-flight cancel.
	ctx, cancel := context.WithCancel(context.Background())
	var first sync.Once
	s := NewScanner(Config{
		Fabric:  f,
		Clock:   netsim.RealClock{},
		Source:  scanSrc,
		Timeout: 50 * time.Millisecond,
		Workers: 4,
		// The first result cancels: one target is done, the other 63
		// are queued or in flight.
		OnResultWorker: func(int, *Result) { first.Do(cancel) },
	})
	s.Start(ctx)
	addrs := make([]netip.Addr, 64)
	for i := range addrs {
		addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
	}
	s.SubmitBatch(addrs)

	// A wedge here is the failure; the test binary's timeout reports it.
	s.Drain()
	s.Close()
}

// Breaker-shed targets must keep the sequence space dense: every
// module slot yields a result whether scanned or skipped.
func TestBreakerOpenKeepsSeqDense(t *testing.T) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	f := netsim.New(netsim.Config{Clock: clock, DialTimeout: time.Millisecond})

	var mu sync.Mutex
	var results []*Result
	s := NewScanner(Config{
		Fabric:  f,
		Source:  scanSrc,
		Timeout: time.Millisecond,
		Workers: 2,
		Breaker: &BreakerConfig{Threshold: 4, Cooldown: time.Hour},
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	s.Start(context.Background())

	dark := make([]netip.Addr, 8)
	for i := range dark {
		dark[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i + 1)})
	}
	s.SubmitBatch(dark[:4])
	s.Drain() // folds 4 dark targets → breaker trips
	if got := s.Metrics().BreakerOpen.Value(); got != 1 {
		t.Fatalf("breaker_open = %d, want 1", got)
	}
	s.SubmitBatch(dark[4:])
	s.Drain()
	s.Close()

	mods := len(AllModules())
	if want := 8 * mods; len(results) != want {
		t.Fatalf("got %d results, want %d (dense seq space)", len(results), want)
	}
	seen := make(map[int64]bool)
	var shed int
	for _, r := range results {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if r.Status == StatusBreakerOpen {
			shed++
		}
	}
	for i := int64(0); i < int64(8*mods); i++ {
		if !seen[i] {
			t.Fatalf("seq %d missing — sequence space has holes", i)
		}
	}
	if shed != 4*mods {
		t.Fatalf("shed %d module results, want %d", shed, 4*mods)
	}
	if got := s.Metrics().Shed.Value(); got != 4 {
		t.Fatalf("scan_shed_total = %d, want 4", got)
	}
}

// The paper spaces one target's protocols apart to spare low-powered
// devices (Appendix A.2.1). On the latency-free fabric the spacing is a
// stamp: module i's result time moves by i x InterProtocolDelay, and
// nothing else about the result — its sequence number included — does.
func TestInterProtocolDelayStampsSchedule(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	target := netip.MustParseAddr("2001:db8::d")
	const delay = 10 * time.Second
	run := func(delay time.Duration) map[string]*Result {
		f := netsim.New(netsim.Config{Clock: netsim.NewManualClock(start), DialTimeout: time.Millisecond})
		f.Register(target, fullHost())
		results := make(map[string]*Result)
		s := NewScanner(Config{
			Fabric: f, Source: scanSrc, Timeout: time.Second, Workers: 1,
			InterProtocolDelay: delay,
			OnResultWorker:     func(_ int, r *Result) { results[r.Module] = r },
		})
		s.Start(context.Background())
		s.SubmitBatch([]netip.Addr{target})
		s.Close()
		return results
	}
	plain, spaced := run(0), run(delay)
	for i, m := range AllModules() {
		p, d := plain[m.Name()], spaced[m.Name()]
		if p == nil || d == nil {
			t.Fatalf("%s: missing result", m.Name())
		}
		if d.Seq != p.Seq || d.Seq != int64(i) {
			t.Errorf("%s: Seq %d with the delay, %d without, want %d both", m.Name(), d.Seq, p.Seq, i)
		}
		if got, want := d.Time.Sub(p.Time), time.Duration(i)*delay; got != want {
			t.Errorf("%s: result time shifted by %v, want %v", m.Name(), got, want)
		}
		if d.Status != p.Status {
			t.Errorf("%s: status %q with the delay, %q without", m.Name(), d.Status, p.Status)
		}
	}
}

// Under a logical clock retries stamp their backoff into the result's
// schedule instead of sleeping, and the retry count lands in Attempts.
func TestRetryStampsBackoffOnLogicalClock(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	clock := netsim.NewManualClock(start)
	f := netsim.New(netsim.Config{Clock: clock, DialTimeout: time.Millisecond})
	// Unregistered target: every attempt times out (ClassFiltered,
	// retryable), so each module burns all attempts.
	var mu sync.Mutex
	var results []*Result
	s := NewScanner(Config{
		Fabric:  f,
		Source:  scanSrc,
		Timeout: time.Millisecond,
		Workers: 1,
		Retry:   &RetryPolicy{MaxAttempts: 3, Base: time.Second, Max: 8 * time.Second, Multiplier: 2, Jitter: 0},
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	})
	s.Start(context.Background())
	wall := time.Now()
	s.SubmitBatch([]netip.Addr{netip.MustParseAddr("2001:db8::dead")})
	s.Drain()
	s.Close()
	if elapsed := time.Since(wall); elapsed > 5*time.Second {
		t.Fatalf("logical-clock retries slept %v of wall time", elapsed)
	}

	if len(results) != len(AllModules()) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Attempts != 3 {
			t.Errorf("%s: Attempts = %d, want 3", r.Module, r.Attempts)
		}
		// Two backoffs (1s + 2s) accumulated into the schedule stamp.
		if got := r.Time.Sub(start); got != 3*time.Second {
			t.Errorf("%s: schedule offset %v, want 3s of stamped backoff", r.Module, got)
		}
	}
	probes := s.Metrics().Probes.Sum()
	if want := int64(3 * len(AllModules())); probes != want {
		t.Fatalf("probes = %d, want %d", probes, want)
	}
}

// A retry against a garbling fault plan re-rolls the fabric's fault
// hashes; one retried probe must produce at most one result per module
// (only the final attempt is emitted).
func TestRetryEmitsOnlyFinalAttempt(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())
	var mu sync.Mutex
	count := map[string]int{}
	s := NewScanner(Config{
		Fabric:  f,
		Clock:   netsim.RealClock{},
		Source:  scanSrc,
		Timeout: time.Second,
		Workers: 2,
		Retry:   &RetryPolicy{MaxAttempts: 3, Base: time.Microsecond, Multiplier: 2},
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			count[r.Module]++
			mu.Unlock()
		},
	})
	s.Start(context.Background())
	s.SubmitBatch([]netip.Addr{target})
	s.Close()
	for m, n := range count {
		if n != 1 {
			t.Errorf("module %s emitted %d results, want 1", m, n)
		}
	}
	if len(count) != len(AllModules()) {
		t.Fatalf("got %d modules, want %d", len(count), len(AllModules()))
	}
}
