package zgrab

import "ntpscan/internal/obs"

// Metrics bundles the scanner's observability handles. Target-level
// flows obey a conservation law checked by the invariant suite: at any
// quiescent point (after Drain, nothing in flight)
//
//	scan_submitted_total == scan_suppressed_total
//	                      + scan_shed_total
//	                      + scan_completed_total
//
// Per-module series are dense vectors indexed by the module's slot in
// Config.Modules; duration histograms record milliseconds of logical
// time (stamped backoff, limiter waits on the injected clock), so the
// whole bundle is byte-identical across worker counts.
//
// Probes, Successes, Completed and the zero-length limiter waits are
// counted per scan worker and folded into the registry at quiescent
// points — Drain, Close and the end of ScanNow — where every registry
// value is exact. Between them those series may lag by up to one
// slice (one Drain's worth of work): queryd's /metrics, read during a
// campaign, shows them as of the last barrier.
type Metrics struct {
	// Target-level flow.
	Submitted  *obs.Counter // targets offered to Submit/SubmitBatch
	Suppressed *obs.Counter // rejected by revisit holdoff
	Shed       *obs.Counter // skipped whole by an open breaker
	Completed  *obs.Counter // ran the full module loop

	// Per-module probe flow.
	Probes    *obs.CounterVec // attempts sent, including retries
	Successes *obs.CounterVec // final results with StatusSuccess
	Retries   *obs.CounterVec // re-attempts after a retryable failure

	RetryExhausted *obs.Counter   // probes that used every retry and still failed retryably
	Backoff        *obs.Histogram // stamped/slept retry backoff, ms
	LimiterWait    *obs.Histogram // limiter wait per probe, ms (0 under a frozen logical clock)

	// Breaker lifecycle: transition counters plus the current open-set
	// gauge, all updated at the drain barrier. Pairing invariant:
	// opened + reopened - probation == open (once every open prefix has
	// either closed or re-opened, the books balance exactly).
	BreakerOpened    *obs.Counter // closed -> open trips
	BreakerProbation *obs.Counter // open -> probing admissions
	BreakerClosed    *obs.Counter // probing -> closed recoveries
	BreakerReopened  *obs.Counter // probing -> open relapses
	BreakerOpen      *obs.Gauge   // prefixes currently shedding
}

// newScanMetrics registers the scanner's metric families on r. The
// per-module vectors take their label set from the configured modules,
// so two scanners sharing a registry must run the same module list (the
// registry panics on a shape mismatch — by design).
func newScanMetrics(r *obs.Registry, modules []Module) *Metrics {
	names := make([]string, len(modules))
	for i, m := range modules {
		names[i] = m.Name()
	}
	return &Metrics{
		Submitted:  r.NewCounter("scan_submitted_total", "targets offered to the scanner"),
		Suppressed: r.NewCounter("scan_suppressed_total", "targets rejected by the revisit holdoff"),
		Shed:       r.NewCounter("scan_shed_total", "targets skipped whole by an open circuit breaker"),
		Completed:  r.NewCounter("scan_completed_total", "targets scanned through the full module loop"),

		Probes:    r.NewCounterVec("scan_probes_total", "probe attempts sent, including retries", "module", names),
		Successes: r.NewCounterVec("scan_success_total", "final module results with a successful grab", "module", names),
		Retries:   r.NewCounterVec("scan_retries_total", "probe re-attempts after a retryable failure", "module", names),

		RetryExhausted: r.NewCounter("scan_retry_exhausted_total", "probes that spent every retry and still failed retryably"),
		Backoff: r.NewHistogram("scan_retry_backoff_ms", "retry backoff stamped into result schedules, ms",
			[]int64{250, 500, 1000, 2000, 4000, 8000, 16000, 30000}),
		LimiterWait: r.NewHistogram("scan_limiter_wait_ms", "rate-limiter wait per probe, ms of injected-clock time",
			[]int64{0, 1, 10, 100, 1000, 10000}),

		BreakerOpened:    r.NewCounter("breaker_opened_total", "prefix breakers tripped closed -> open"),
		BreakerProbation: r.NewCounter("breaker_probation_total", "open prefixes admitted to a probation slice"),
		BreakerClosed:    r.NewCounter("breaker_closed_total", "probing prefixes recovered to closed"),
		BreakerReopened:  r.NewCounter("breaker_reopened_total", "probing prefixes relapsed to open"),
		BreakerOpen:      r.NewGauge("breaker_open", "prefixes currently shedding"),
	}
}

// Metrics returns the scanner's observability handles (never nil: a
// scanner built without Config.Obs carries a private registry).
func (s *Scanner) Metrics() *Metrics { return s.met }
