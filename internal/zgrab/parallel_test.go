package zgrab

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ntpscan/internal/netsim"
)

// parkClock is a manual clock that reports each grab of its wake
// channel. A token-bucket waiter grabs the channel before it reads the
// time, so once a grab is reported an Advance can no longer be missed —
// the condition the tests below wait on instead of sleeping.
type parkClock struct {
	*netsim.ManualClock
	grabbed chan struct{}
}

func newParkClock() parkClock {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	return parkClock{netsim.NewManualClock(start), make(chan struct{}, 1)}
}

func (c parkClock) Changed() <-chan struct{} {
	ch := c.ManualClock.Changed()
	select {
	case c.grabbed <- struct{}{}:
	default:
	}
	return ch
}

// waitParked starts tb.Wait on its own goroutine and returns once that
// waiter holds the clock's wake channel.
func waitParked(ctx context.Context, tb *TokenBucket, c parkClock) <-chan error {
	select {
	case <-c.grabbed: // a grab left over from an earlier Wait
	default:
	}
	done := make(chan error, 1)
	go func() { done <- tb.Wait(ctx) }()
	<-c.grabbed
	return done
}

// The token bucket must meter against the injected clock. A mass run on
// a manual clock advances weeks in milliseconds of wall time; before
// the clock was threaded through, such runs silently rate-limited
// against time.Now() instead.
func TestTokenBucketLogicalClock(t *testing.T) {
	clock := newParkClock()
	// 0.001 tokens/s: replenishing one token takes ~17 wall minutes if
	// the bucket reads real time, but a single logical advance here.
	tb := NewTokenBucketAt(0.001, 1, clock)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2000 * time.Second)
	if err := tb.Wait(ctx); err != nil {
		t.Fatalf("token not replenished from logical time: %v", err)
	}
}

// A waiter that parked before the advance must wake when the logical
// clock moves, without any wall-clock timer involvement.
func TestTokenBucketLogicalWake(t *testing.T) {
	clock := newParkClock()
	tb := NewTokenBucketAt(1, 1, clock)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tb.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	done := waitParked(ctx, tb, clock)
	clock.Advance(5 * time.Second)
	if err := <-done; err != nil {
		t.Fatalf("waiter did not wake on clock advance: %v", err)
	}
	// And a parked waiter with no advance obeys cancellation.
	cctx, ccancel := context.WithCancel(ctx)
	done = waitParked(cctx, tb, clock)
	ccancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled logical wait returned nil")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	f := testFabric()
	s := NewScanner(Config{Fabric: f, Source: scanSrc, Workers: 2})
	s.Start(context.Background())
	s.Close()
	if n := s.SubmitBatch([]netip.Addr{netip.MustParseAddr("2001:db8::2")}); n != 0 {
		t.Fatalf("SubmitBatch accepted %d after Close", n)
	}
	s.Close() // double close is a no-op, not a panic
}

func TestSubmitCloseRace(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())
	for round := 0; round < 20; round++ {
		s := NewScanner(Config{Fabric: f, Source: scanSrc, Workers: 4, Timeout: time.Second})
		s.Start(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					a := netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(g), byte(i >> 8), byte(i)})
					s.SubmitBatch([]netip.Addr{a})
				}
			}()
		}
		s.Close() // races with the submitters; must never panic
		wg.Wait()
	}
}

func TestSubmitBatchAndDrain(t *testing.T) {
	f := testFabric()
	target := netip.MustParseAddr("2001:db8::d")
	f.Register(target, fullHost())

	addrs := make([]netip.Addr, 200)
	for i := range addrs {
		addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 1, byte(i >> 8), byte(i)})
	}
	addrs = append(addrs, addrs[0]) // one revisit duplicate

	var mu sync.Mutex
	var seqs []int64
	s := NewScanner(Config{
		Fabric: f, Source: scanSrc, Workers: 8, Timeout: time.Second,
		Modules: []Module{&HTTPModule{}},
		OnResultWorker: func(_ int, r *Result) {
			mu.Lock()
			seqs = append(seqs, r.Seq)
			mu.Unlock()
		},
	})
	s.Start(context.Background())
	if n := s.SubmitBatch(addrs); n != 200 {
		t.Fatalf("accepted %d of 200 distinct", n)
	}
	s.Drain()
	mu.Lock()
	drained := len(seqs)
	mu.Unlock()
	if drained != 200 {
		t.Fatalf("Drain returned with %d of 200 results", drained)
	}
	s.Close()

	// Sequence numbers cover [0, 200) exactly once: batch order is
	// preserved through the concurrent pool.
	seen := make(map[int64]bool, len(seqs))
	for _, q := range seqs {
		if q < 0 || q >= 200 || seen[q] {
			t.Fatalf("bad/duplicate seq %d", q)
		}
		seen[q] = true
	}

	m := s.Metrics()
	submitted, scanned, suppressed := m.Submitted.Value(), m.Completed.Value(), m.Suppressed.Value()
	if submitted != 201 || scanned != 200 || suppressed != 1 {
		t.Fatalf("stats = %d %d %d", submitted, scanned, suppressed)
	}
}

func TestDrainWithoutWork(t *testing.T) {
	s := NewScanner(Config{Fabric: testFabric(), Source: scanSrc, Workers: 2})
	s.Start(context.Background())
	s.Drain() // must not block
	s.Close()
}

// The contract core's ordered sink merges on (Config.OnResultWorker):
// with one goroutine feeding the scanner, each worker's results come in
// strictly ascending Seq — here under packet loss and garbling, with
// retries re-rolling the faults and the breaker shedding a dark /48
// after the first drain.
func TestWorkerResultsAscendInSeq(t *testing.T) {
	start := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	live := netip.MustParsePrefix("2001:db8:1::/48")
	for _, workers := range []int{1, 3, 8} {
		clock := netsim.NewManualClock(start)
		f := netsim.New(netsim.Config{Clock: clock, DialTimeout: time.Millisecond})
		plan := &netsim.FaultPlan{Seed: 5}
		plan.Add(netsim.Fault{Kind: netsim.FaultLoss, Prefix: live, From: start, Until: start.Add(time.Hour), Prob: 0.3})
		host := fullHost()
		var addrs []netip.Addr
		for i := range 3 * 4 * submitChunk {
			if i%2 == 0 {
				a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 14: byte(i >> 8), 15: byte(i)})
				f.Register(a, host)
				if i%6 == 0 {
					plan.Add(netsim.Fault{Kind: netsim.FaultGarble, Addr: a, From: start, Until: start.Add(time.Hour)})
				}
				addrs = append(addrs, a)
			} else {
				addrs = append(addrs, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 2, 14: byte(i >> 8), 15: byte(i)}))
			}
		}
		f.InstallFaults(plan)

		perWorker := make([][]*Result, workers)
		s := NewScanner(Config{
			Fabric: f, Source: scanSrc, Timeout: time.Millisecond, Workers: workers,
			Retry:          &RetryPolicy{MaxAttempts: 3, Base: time.Second, Multiplier: 2},
			Breaker:        &BreakerConfig{Threshold: 4, Cooldown: time.Hour},
			OnResultWorker: func(w int, r *Result) { perWorker[w] = append(perWorker[w], r) },
		})
		s.Start(context.Background())
		// Three drains of four sessions each, so every worker count
		// splits a batch across workers.
		for b := range 3 {
			s.SubmitBatch(addrs[b*len(addrs)/3 : (b+1)*len(addrs)/3])
			s.Drain()
		}
		s.Close()

		seen := map[int64]bool{}
		var shed, retried, busy int
		for w, rs := range perWorker {
			for i, r := range rs {
				if i > 0 && r.Seq <= rs[i-1].Seq {
					t.Fatalf("workers=%d: worker %d emitted Seq %d after Seq %d", workers, w, r.Seq, rs[i-1].Seq)
				}
				seen[r.Seq] = true
				if r.Status == StatusBreakerOpen {
					shed++
				}
				if r.Attempts > 1 {
					retried++
				}
			}
			if len(rs) > 0 {
				busy++
			}
		}
		if workers > 1 && busy < 2 {
			t.Fatalf("workers=%d: only %d worker emitted; the test needs the sessions spread", workers, busy)
		}
		if want := len(addrs) * len(AllModules()); len(seen) != want {
			t.Fatalf("workers=%d: %d distinct Seqs, want %d", workers, len(seen), want)
		}
		if shed == 0 || retried == 0 {
			t.Fatalf("workers=%d: %d shed and %d retried results; the test needs both", workers, shed, retried)
		}
	}
}
