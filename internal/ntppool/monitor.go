package ntppool

import (
	"sync"

	"ntpscan/internal/obs"
)

// MonitorMetrics counts the monitor's probe outcomes and, more
// importantly, health *transitions*: a server crossing below MinScore
// is one degradation event, crossing back is one recovery. The
// invariant suite checks degraded - recovered == currently-unhealthy
// servers (every degradation is eventually paired with a recovery or
// still visible in the pool).
type MonitorMetrics struct {
	Checks    *obs.Counter // probe outcomes recorded
	Failures  *obs.Counter // probes that failed
	Degraded  *obs.Counter // servers crossing below MinScore
	Recovered *obs.Counter // servers crossing back to MinScore or above
}

// NewMonitorMetrics registers the monitor's families on r.
func NewMonitorMetrics(r *obs.Registry) *MonitorMetrics {
	return &MonitorMetrics{
		Checks:    r.NewCounter("pool_checks_total", "monitor probe outcomes recorded"),
		Failures:  r.NewCounter("pool_check_failures_total", "monitor probes that failed"),
		Degraded:  r.NewCounter("pool_degraded_total", "servers crossing below the serving threshold"),
		Recovered: r.NewCounter("pool_recovered_total", "servers recovering to the serving threshold"),
	}
}

// Monitor models the pool's monitoring system: servers are probed
// periodically, failures push the score down, successes recover it. A
// server below MinScore stops receiving clients until it recovers —
// why the paper insisted on near-100%-uptime hosting for its vantage
// deployments (Appendix A.1.1).
type Monitor struct {
	mu   sync.Mutex
	pool *Pool
	// Step sizes follow the real monitor's asymmetric behaviour:
	// failures hurt much faster than successes heal.
	FailPenalty   float64
	SuccessCredit float64
	MaxScore      float64
	MinFloor      float64

	met *MonitorMetrics // optional; set via SetMetrics
}

// SetMetrics attaches observability counters. Scores set directly on
// the pool (e.g. a checkpoint restore via SetScore) bypass the monitor
// and are deliberately not counted — restoring state must not re-count
// the events that produced it.
func (m *Monitor) SetMetrics(met *MonitorMetrics) {
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
}

// NewMonitor returns a monitor for the pool with the production-like
// default steps.
func NewMonitor(pool *Pool) *Monitor {
	return &Monitor{
		pool:          pool,
		FailPenalty:   15,
		SuccessCredit: 5,
		MaxScore:      20,
		MinFloor:      -100,
	}
}

// Check records one probe outcome for a server and returns its new
// score.
func (m *Monitor) Check(id string, ok bool) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, found := m.pool.Server(id)
	if !found {
		return 0
	}
	score := s.Score
	if ok {
		score += m.SuccessCredit
		if score > m.MaxScore {
			score = m.MaxScore
		}
	} else {
		score -= m.FailPenalty
		if score < m.MinFloor {
			score = m.MinFloor
		}
	}
	if m.met != nil {
		m.met.Checks.Inc()
		if !ok {
			m.met.Failures.Inc()
		}
		wasHealthy := s.Score >= MinScore
		isHealthy := score >= MinScore
		if wasHealthy && !isHealthy {
			m.met.Degraded.Inc()
		} else if !wasHealthy && isHealthy {
			m.met.Recovered.Inc()
		}
	}
	m.pool.SetScore(id, score)
	return score
}
