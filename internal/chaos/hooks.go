package chaos

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

// Test hooks: the chaos scenario matrix as exported helpers, so other
// packages' test suites (the observability invariant tests in
// internal/obs) run the exact same campaigns the chaos suite does —
// one scenario definition, many oracles.

// Seeds returns the chaos seed matrix: NTPSCAN_CHAOS_SEEDS
// (space-separated, set by `make chaos`) when present, else a single
// default seed. A malformed entry panics — a misconfigured matrix must
// not silently shrink coverage.
func Seeds() []uint64 {
	env := os.Getenv("NTPSCAN_CHAOS_SEEDS")
	if env == "" {
		return []uint64{11}
	}
	var seeds []uint64
	for _, f := range strings.Fields(env) {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			panic(fmt.Sprintf("chaos: bad seed %q in NTPSCAN_CHAOS_SEEDS: %v", f, err))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// Config is the canonical chaos-scale pipeline configuration for a
// seed: small world scales, retries and the circuit breaker on. One
// environment knob widens the matrix without touching the scenario
// definition: NTPSCAN_CHAOS_SCALE multiplies the address-only eyeball
// population (`make chaos` runs one seed against a 10x world through
// the arenas). The capture budget is pinned, so scaled runs do the same
// campaign work against a bigger universe. A malformed scale panics,
// like a malformed seed matrix.
func Config(seed uint64) core.Config {
	scale := 1.0
	if env := os.Getenv("NTPSCAN_CHAOS_SCALE"); env != "" {
		f, err := strconv.ParseFloat(env, 64)
		if err != nil || f <= 0 {
			panic(fmt.Sprintf("chaos: bad NTPSCAN_CHAOS_SCALE %q", env))
		}
		scale = f
	}
	return core.Config{
		Seed: seed,
		World: world.Config{
			DeviceScale: 1e-3,
			AddrScale:   1e-6 * scale,
			ASScale:     0.02,
		},
		Workers:       8,
		CaptureBudget: 2500,
		Retry:         zgrab.DefaultRetryPolicy(),
		Breaker:       &zgrab.BreakerConfig{},
	}
}

// NoGoroutineLeaks arms a leak check on the test: at cleanup, the
// goroutine count must settle back to its value at arm time (worker
// pools, per-node executors and monitor goroutines all join before a
// campaign returns). On a leak it fails with a full stack dump, so the
// stuck goroutine is named, not guessed at.
func NoGoroutineLeaks(t testing.TB) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		after := runtime.NumGoroutine()
		for after > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s", before, after, buf[:n])
		}
	})
}

// SameEveryRun is the repeat gate for a program that prints results:
// run — one whole invocation, returning everything it wrote — is called
// three times at GOMAXPROCS 1 and three times at the host's CPU count,
// and every call must return the same bytes. Go randomises map order
// per range statement and the scheduler interleaves workers differently
// each time, so a handful of repeats is a cheap, sharp detector for
// output that depends on either. It returns those bytes.
func SameEveryRun(t testing.TB, run func() string) string {
	t.Helper()
	var want string
	runs := 0
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 3; i++ {
			got := run()
			if runs++; runs == 1 {
				want = got
			} else if got != want {
				t.Errorf("GOMAXPROCS=%d, run %d: output differs from the first run's (%d bytes vs %d)",
					procs, i+1, len(got), len(want))
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	return want
}

// CongestedSpec is DefaultSpec plus a congested link layer: two
// vantage access links and four device /48s behind short queues at 0.9
// utilization, with two mid-campaign route flaps. Heavy — most
// congested-path exchanges queue visibly, a tail drops — but the
// campaign stays productive.
func CongestedSpec() Spec {
	s := DefaultSpec()
	s.CongestedVantages = 2
	s.CongestedPrefixes = 4
	s.LinkQueuePkts = 12
	s.LinkBytesPerSec = 32 << 20 // ~15µs per queued 512B cross packet
	s.LinkPropDelay = 20 * time.Microsecond
	s.LinkUtilization = 0.9
	s.LinkJitter = 25 * time.Microsecond
	s.RouteChurns = 2
	s.ChurnDownSlices = 12
	return s
}

// SaturatedSpec pushes CongestedSpec to utilization 1.0 on six
// prefixes with three route flaps: congested links drop or arrive late
// almost always. The `make chaos` congested leg and the
// stamped-not-slept benchmark both pin this spec.
func SaturatedSpec() Spec {
	s := CongestedSpec()
	s.LinkUtilization = 1.0
	s.CongestedPrefixes = 6
	s.RouteChurns = 3
	return s
}

// FaultedPipeline builds a pipeline and installs the plan derived for
// (planSeed, spec). The plan is a pure function of the arguments, so a
// second call builds a bit-identical setup — the property resume (and
// every cross-run comparison) relies on.
func FaultedPipeline(cfg core.Config, planSeed uint64, spec Spec) *core.Pipeline {
	p := core.NewPipeline(cfg)
	p.InstallFaults(PlanFor(p, planSeed, spec))
	return p
}
