package zgrab

import (
	"net/netip"
	"time"

	"ntpscan/internal/rng"
)

// ErrorClass partitions grab outcomes by what a rescheduler should do
// with them. The classification is structural (status + grab fields),
// never string matching on error text.
type ErrorClass int

// Outcome classes.
const (
	// ClassNone: success or a definitive answer (TLS alert, breaker
	// skip). Retrying buys nothing.
	ClassNone ErrorClass = iota
	// ClassRefused: the host answered with a reset. Definitive — the
	// port is closed — but proof the host is alive.
	ClassRefused
	// ClassFiltered: silence. Either dark space, a firewall, or
	// transient loss on the path; only a retry can tell the last apart.
	ClassFiltered
	// ClassTransient: local I/O trouble (socket exhaustion, bind
	// failure). Unrelated to the target; retry.
	ClassTransient
	// ClassGarbled: bytes arrived but did not parse — a truncated or
	// corrupted banner. The host speaks; retry for a clean read.
	ClassGarbled
)

// String names the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassRefused:
		return "refused"
	case ClassFiltered:
		return "filtered"
	case ClassTransient:
		return "transient"
	case ClassGarbled:
		return "garbled"
	}
	return "unknown"
}

// Retryable reports whether a retry could plausibly change the
// outcome.
func (c ErrorClass) Retryable() bool {
	return c == ClassFiltered || c == ClassTransient || c == ClassGarbled
}

// Classify maps a grab result onto its error class.
//
// TLS failures split structurally: a handshake that died with an alert
// is the peer's deliberate answer (ClassNone), while one that died
// without an alert ran into a truncated or corrupted stream
// (ClassGarbled).
func Classify(r *Result) ErrorClass {
	switch r.Status {
	case StatusRefused:
		return ClassRefused
	case StatusTimeout:
		return ClassFiltered
	case StatusIOError:
		return ClassTransient
	case StatusProtocolError:
		return ClassGarbled
	case StatusTLSError:
		if r.TLS != nil && r.TLS.Alert != "" {
			return ClassNone
		}
		return ClassGarbled
	}
	return ClassNone
}

// Alive reports whether the result proves a host exists at the address
// — any answer at all, including refusals and broken banners. The
// circuit breaker counts targets with no alive signal across all
// modules as dark.
func Alive(r *Result) bool {
	switch Classify(r) {
	case ClassFiltered, ClassTransient:
		return false
	}
	return true
}

// RetryPolicy is the per-probe retry schedule: exponential backoff
// with deterministic jitter. The jitter is a pure hash of (address,
// module, attempt), so the backoff a probe experiences is a property
// of the experiment, not of scheduling — on a logical clock the delay
// is stamped into the result's schedule rather than slept.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per module probe (first try
	// included). Values < 1 mean 1.
	MaxAttempts int
	// Base is the backoff before the second attempt; each further
	// attempt multiplies it by Multiplier, capped at Max.
	Base       time.Duration
	Max        time.Duration
	Multiplier float64
	// Jitter is the fraction of each backoff randomised around its
	// nominal value (0.5 → uniform in [0.75x, 1.25x]).
	Jitter float64
}

// DefaultRetryPolicy mirrors common scanner practice: three tries,
// 1 s → 2 s backoff with ±25% jitter.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 3, Base: time.Second, Max: 30 * time.Second, Multiplier: 2, Jitter: 0.5}
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay before attempt+1 (attempt counts from 0).
func (p *RetryPolicy) Backoff(addr netip.Addr, module string, attempt int) time.Duration {
	d := p.Base
	if d <= 0 {
		d = time.Second
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	for i := 0; i < attempt; i++ {
		d = time.Duration(float64(d) * mult)
		if p.Max > 0 && d > p.Max {
			d = p.Max
			break
		}
	}
	if p.Jitter > 0 {
		// frac in [0,1) from a pure hash; shift d to [1-J/2, 1+J/2) x d.
		// The attempt is xored in as one word, not folded byte-wise.
		frac := rng.NewHash().Addr(addr).String(module).Step(uint64(attempt)).Float64()
		d = time.Duration(float64(d) * (1 - p.Jitter/2 + frac*p.Jitter))
	}
	return d
}
