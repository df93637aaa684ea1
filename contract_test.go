package ntpscan_test

import (
	"runtime"
	"testing"
	"time"

	"ntpscan"
	"ntpscan/internal/netsim/link"
)

// contractOptions is the default reproduction world shrunk (a fifth of
// the devices, a third of the addresses) so a campaign costs a few
// hundred milliseconds.
func contractOptions() ntpscan.Options {
	return ntpscan.Options{
		Seed:        20240720,
		DeviceScale: 3e-3 / 5,
		AddrScale:   6e-6 / 3,
		ASScale:     0.03,
		Workers:     64,
	}
}

// liveHeap is the heap still reachable after full collections: two, so
// that nothing a sync.Pool holds — kept through one collection as its
// victim cache — is in any reading.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// settleGoroutines yields until no more than want goroutines are left.
// The public-hitlist sweep inside a collection closes every connection
// it dials, but the fabric serves each accepted connection on a handler
// goroutine of its own that nobody joins; until those have seen the
// close and returned, each holds its connection and through it the
// world, so a heap read taken earlier follows the scheduler.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	const yields = 1_000_000
	for i := 0; i < yields; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%d goroutines still running after %d yields, want at most %d", runtime.NumGoroutine(), yields, want)
}

// TestLiveHeapSubLinearInWorldScale climbs the memory scale ladder: the
// address-only eyeball population (the bulk of the world) grows
// 1x/10x/100x while the reachable population, and so the campaign's
// work, stays fixed. The world derives that population on demand
// through the bounded shard arenas and never holds it resident, so the
// live heap a collection retains must grow sub-linearly: the 100x world
// fails at 20x the 1x world's bytes (it reads about 2x).
func TestLiveHeapSubLinearInWorldScale(t *testing.T) {
	// rung is the world at scale times the address-only population, at
	// fixed measurement effort: left to its default the capture budget
	// tracks client mass, and the retained datasets scale linearly by
	// construction.
	rung := func(scale int) ntpscan.Options {
		opts := contractOptions()
		opts.AddrScale *= float64(scale)
		opts.CaptureBudget = 20000
		return opts
	}
	// One throwaway run warms process-global state (the intern table,
	// lazily-built profile tables), so a rung's delta is what its own
	// run retains whichever tests ran before this one.
	goroutines := runtime.NumGoroutine()
	ntpscan.CollectExperiments(rung(1))
	settleGoroutines(t, goroutines)

	live := map[int]float64{}
	for _, scale := range []int{1, 10, 100} {
		opts := rung(scale)
		before := liveHeap()
		s := ntpscan.CollectExperiments(opts)
		if s.HitFullSum.Set().Len() == 0 {
			t.Fatalf("scale %d: empty collection", scale)
		}
		settleGoroutines(t, goroutines)
		live[scale] = liveHeap() - before
		runtime.KeepAlive(s)
		t.Logf("scale %3d: %.2f MB live heap retained", scale, live[scale]/1e6)
	}
	if live[1] <= 0 {
		t.Fatalf("the 1x collection retained %.0f bytes; the ladder has no base", live[1])
	}
	if ratio := live[100] / live[1]; ratio >= 20 {
		t.Fatalf("the 100x world retains %.0f live-heap bytes, %.1fx the 1x world's %.0f; the ladder requires < 20x",
			live[100], ratio, live[1])
	}
}

// TestCongestionCostsArithmeticNotSleep runs the full campaign clean
// and behind a utilization-0.9 default link, where every flow crosses a
// queued, delayed, bandwidth-limited hop (internal/netsim/link). Queue
// outcomes are pure hash draws and delays are stamped on the logical
// clock, so congestion must cost arithmetic, not wall time: the
// congested campaign fails at 2x the clean one. Best of three a side,
// so one stall on a loaded host does not decide it.
func TestCongestionCostsArithmeticNotSleep(t *testing.T) {
	clean := contractOptions()
	congested := clean
	congested.LinkPlan = &link.Plan{
		Seed: clean.Seed ^ 0xc049,
		Default: &link.Params{
			QueuePackets: 16,
			BytesPerSec:  64 << 20,
			PropDelay:    15 * time.Microsecond,
			Utilization:  0.9,
			JitterMax:    10 * time.Microsecond,
		},
	}
	// timed runs one campaign; pairs alternate so a change in host load
	// falls on both sides.
	timed := func(opts ntpscan.Options) time.Duration {
		t0 := time.Now()
		s := ntpscan.RunExperiments(opts)
		d := time.Since(t0)
		if s.Err != nil || s.P.Summary.Set().Len() == 0 {
			t.Fatalf("campaign collected nothing (err %v)", s.Err)
		}
		return d
	}
	c, q := timed(clean), timed(congested)
	for i := 1; i < 3; i++ {
		c, q = min(c, timed(clean)), min(q, timed(congested))
	}
	t.Logf("clean %v, congested %v (%.2fx)", c, q, float64(q)/float64(c))
	if q >= 2*c {
		t.Fatalf("the congested campaign costs %v, %.2fx the clean run's %v; the contract is < 2x",
			q, float64(q)/float64(c), c)
	}
}
