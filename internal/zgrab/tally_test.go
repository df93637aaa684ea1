package zgrab

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/netsim"
	"ntpscan/internal/obs"
)

// tallyWorld is a manual-clock fabric with live hosts (every module
// answers) in 2001:db8:1::/48 and silence in 2001:db8:2::/48.
func tallyWorld(live, dark int) (*netsim.ManualClock, *netsim.Network, []netip.Addr) {
	clock := netsim.NewManualClock(time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC))
	f := netsim.New(netsim.Config{Clock: clock})
	var addrs []netip.Addr
	for i := range live {
		a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 15: byte(i + 1)})
		f.Register(a, fullHost())
		addrs = append(addrs, a)
	}
	for i := range dark {
		addrs = append(addrs, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 2, 14: byte(i >> 8), 15: byte(i)}))
	}
	return clock, f, addrs
}

// resultCounts counts what a scanner emitted: probes sent (every row
// the breaker did not shed) and successes, per module slot.
type resultCounts struct {
	mu                sync.Mutex
	probes, successes []int64
}

func (c *resultCounts) add(modules []Module) func(int, *Result) {
	c.probes, c.successes = make([]int64, len(modules)), make([]int64, len(modules))
	return func(_ int, r *Result) {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := int(r.Seq % int64(len(modules)))
		if r.Status != StatusBreakerOpen {
			c.probes[i]++
		}
		if r.Status == StatusSuccess {
			c.successes[i]++
		}
	}
}

// checkBooks holds the registry to the rows emitted so far: the scan
// conservation law (metrics.go) and, per module, the probes and
// successes the rows show.
func checkBooks(t *testing.T, at string, s *Scanner, c *resultCounts) {
	t.Helper()
	m := s.Metrics()
	submitted, suppressed, shed, completed := m.Submitted.Value(), m.Suppressed.Value(), m.Shed.Value(), m.Completed.Value()
	if submitted != suppressed+shed+completed {
		t.Errorf("%s: submitted %d != suppressed %d + shed %d + completed %d", at, submitted, suppressed, shed, completed)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.probes {
		if got := m.Probes.Value(i); got != c.probes[i] {
			t.Errorf("%s: module %d: %d probes booked, %d rows", at, i, got, c.probes[i])
		}
		if got := m.Successes.Value(i); got != c.successes[i] {
			t.Errorf("%s: module %d: %d successes booked, %d rows", at, i, got, c.successes[i])
		}
	}
	if probes, rows := m.Probes.Sum(), 8*completed; probes != rows {
		t.Errorf("%s: %d probes booked for %d completed targets", at, probes, completed)
	}
	if waits := m.LimiterWait.Count(); waits != m.Probes.Sum() {
		t.Errorf("%s: %d limiter waits booked for %d probes", at, waits, m.Probes.Sum())
	}
}

// Scan workers book probes, successes, completions and zero-length
// limiter waits in tallies of their own; the registry must still hold
// exact values at every quiescent point: after each Drain at any worker
// count (with revisit suppression and a breaker shedding the dark /48),
// after Close with no Drain before it (ScanBatch's path), and after
// ScanNow.
func TestBooksExactAtQuiescentPoints(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			clock, f, addrs := tallyWorld(3, 200)
			var c resultCounts
			s := NewScanner(Config{
				Fabric: f, Source: scanSrc, Workers: workers,
				Breaker:        &BreakerConfig{Threshold: 40, Cooldown: 100 * time.Hour},
				OnResultWorker: c.add(AllModules()),
			})
			s.Start(context.Background())
			for round := range 4 {
				s.SubmitBatch(append(addrs, addrs[:5]...)) // five repeats fall inside the holdoff
				s.Drain()
				checkBooks(t, fmt.Sprintf("drain %d", round), s, &c)
				clock.Advance(80 * time.Hour)
			}
			m := s.Metrics()
			if m.Suppressed.Value() == 0 || m.Shed.Value() == 0 || m.Successes.Sum() == 0 {
				t.Errorf("suppressed %d, shed %d, successes %d: a flow went untested",
					m.Suppressed.Value(), m.Shed.Value(), m.Successes.Sum())
			}
			s.Close()
			checkBooks(t, "close", s, &c)
		})
	}
	t.Run("close", func(t *testing.T) {
		_, f, addrs := tallyWorld(3, 20)
		var c resultCounts
		s := NewScanner(Config{Fabric: f, Source: scanSrc, Workers: 3, OnResultWorker: c.add(AllModules())})
		s.Start(context.Background())
		s.SubmitBatch(addrs)
		s.Close()
		checkBooks(t, "close", s, &c)
	})
	t.Run("scannow", func(t *testing.T) {
		_, f, addrs := tallyWorld(1, 1)
		var c resultCounts
		s := NewScanner(Config{Fabric: f, Source: scanSrc, OnResultWorker: c.add(AllModules())})
		for i, a := range addrs {
			s.ScanNow(context.Background(), a)
			checkBooks(t, fmt.Sprintf("scannow %d", i), s, &c)
		}
	})
}

// stepClock is a manual clock that moves by the next step of a script
// each time a token-bucket waiter grabs its wake channel. A waiter
// grabs the channel before it reads the time, so a Wait spans exactly
// the steps its grabs took: limiter waits of chosen, non-zero lengths
// on one goroutine, with no second goroutine moving the clock.
type stepClock struct {
	*netsim.ManualClock
	steps []time.Duration
	next  int
}

func (c *stepClock) Changed() <-chan struct{} {
	ch := c.ManualClock.Changed()
	d := c.steps[c.next%len(c.steps)]
	c.next++
	c.ManualClock.Advance(d)
	return ch
}

// scan_limiter_wait_ms books a zero-length wait in the scan worker's
// tally and a longer one directly; both must land where the registry
// put them when every wait was observed directly. A token bucket on a
// stepClock gives waits of 0, 1, 7, 40, 150, 2 000 and 30 000 ms, one
// per bucket and the overflow, over a batch scan and a ScanNow; the
// expected buckets and sum were recorded with every wait observed.
func TestLimiterWaitBuckets(t *testing.T) {
	manual, f, addrs := tallyWorld(3, 3)
	ms := time.Millisecond
	clock := &stepClock{ManualClock: manual, steps: []time.Duration{
		0, 0, ms, 7 * ms, 0, 40 * ms, 0, 150 * ms, 0, 2000 * ms, 0, 0, 30000 * ms,
	}}
	reg := obs.NewRegistry()
	s := NewScanner(Config{
		Fabric: f, Clock: clock, Source: scanSrc, Workers: 1, Obs: reg,
		Limiter: NewTokenBucketAt(1000, 4, clock),
	})
	s.Start(context.Background())
	s.SubmitBatch(addrs[1:])
	s.Drain()
	s.Close()
	s.ScanNow(context.Background(), addrs[0])
	got := reg.Snapshot()["scan_limiter_wait_ms"]
	// Buckets ≤0, ≤1, ≤10, ≤100, ≤1000, ≤10000, +Inf, then the sum.
	want := []int64{26, 4, 4, 4, 4, 3, 3, 96792}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan_limiter_wait_ms = %v, want %v", got, want)
	}
}
