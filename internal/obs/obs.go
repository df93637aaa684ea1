// Package obs is the pipeline's deterministic observability layer:
// counters, gauges, and fixed-bucket histograms registered by dense
// index on a Registry, whose timings are read from the experiment's
// injected clock rather than wall time.
//
// Design rules (see DESIGN.md "Observability"):
//
//   - Hot-path updates are single atomic adds on preallocated dense
//     slices — no map lookups, no allocation, no locks. Vec metrics are
//     indexed by the caller's existing dense index (VantageServer.idx,
//     the module slot) and carry the label only for exposition.
//   - Every value is an int64. Observations that are durations are
//     recorded in milliseconds of *logical* time, so a snapshot is a
//     pure function of the experiment definition: the same (seed,
//     shards, fault plan) yields byte-identical snapshots at any worker
//     count.
//   - Registration is get-or-create: a second registration of the same
//     name returns the same metric (the campaign and hitlist scanners
//     share one registry), and re-registering with a different shape
//     panics — silent divergence is the one thing an oracle must not do.
//   - The whole registry snapshots to (and restores from) plain data,
//     so metrics ride along in campaign checkpoints and a resumed run's
//     telemetry continues the interrupted run's byte-for-byte.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the minimal clock surface a timing is read through
// (netsim.Clock satisfies it).
type Clock interface {
	Now() time.Time
}

// Kind discriminates metric shapes.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in the Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered family: a scalar (len(vals)==1), a dense
// label vector, or a histogram.
type metric struct {
	name string
	help string
	kind Kind

	// label/labelVals describe the vector dimension ("" for scalars).
	// The value slice is preallocated at registration and never grows:
	// hot paths index it, they never hash.
	label     string
	labelVals []string
	vals      []atomic.Int64

	// Histogram state: bounds are inclusive upper bounds in the
	// metric's native unit; counts has len(bounds)+1 (last = overflow).
	bounds []int64
	counts []atomic.Int64
	sum    atomic.Int64

	// keys are the metric's flattened series keys, spelled once at
	// registration (see seriesKeys).
	keys []string
}

// Registry holds registered metrics. All methods are safe for
// concurrent use; the returned handles are the hot-path API.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
	// pending holds restored raw values for series not yet registered
	// (a resumed campaign restores the checkpoint before the scanner —
	// and its metrics — exist). Applied at registration.
	pending map[string][]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register is the get-or-create core. Shape mismatches panic: an
// observability layer that silently forked a metric would corrupt the
// very invariants it exists to check.
func (r *Registry) register(name, help string, kind Kind, label string, labelVals []string, bounds []int64) *metric {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byName[name]; m != nil {
		if m.kind != kind || m.label != label ||
			len(m.labelVals) != len(labelVals) || len(m.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, label: label}
	if kind == KindHistogram {
		m.bounds = append([]int64(nil), bounds...)
		for i := 1; i < len(m.bounds); i++ {
			if m.bounds[i] <= m.bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not increasing", name))
			}
		}
		m.counts = make([]atomic.Int64, len(m.bounds)+1)
	} else if len(labelVals) > 0 {
		m.labelVals = append([]string(nil), labelVals...)
		m.vals = make([]atomic.Int64, len(labelVals))
	} else {
		m.vals = make([]atomic.Int64, 1)
	}
	m.keys = m.seriesKeys()
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	if raw, ok := r.pending[name]; ok {
		m.load(raw)
		delete(r.pending, name)
	}
	return m
}

// load installs raw snapshot values (see raw) onto the metric. Length
// mismatches are ignored wholesale: a checkpoint from a different
// configuration must not half-apply.
func (m *metric) load(raw []int64) {
	if m.kind == KindHistogram {
		if len(raw) != len(m.counts)+1 {
			return
		}
		for i := range m.counts {
			m.counts[i].Store(raw[i])
		}
		m.sum.Store(raw[len(raw)-1])
		return
	}
	if len(raw) != len(m.vals) {
		return
	}
	for i := range m.vals {
		m.vals[i].Store(raw[i])
	}
}

// raw exports the metric's values as a flat int64 slice (histograms:
// per-bucket counts then the sum).
func (m *metric) raw() []int64 {
	if m.kind == KindHistogram {
		out := make([]int64, len(m.counts)+1)
		for i := range m.counts {
			out[i] = m.counts[i].Load()
		}
		out[len(out)-1] = m.sum.Load()
		return out
	}
	out := make([]int64, len(m.vals))
	for i := range m.vals {
		out[i] = m.vals[i].Load()
	}
	return out
}

// Counter is a monotonically increasing scalar.
type Counter struct{ v *atomic.Int64 }

// NewCounter registers (or fetches) a scalar counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	m := r.register(name, help, KindCounter, "", nil, nil)
	return &Counter{v: &m.vals[0]}
}

// LocalCounter returns a free-standing counter attached to no
// registry: a private accumulation buffer whose owner folds it into a
// registered family (and zeroes it with Take) at a synchronisation
// point. Collection shards use these so hot-path increments stay off
// shared cachelines and an execution can be discarded — buffered
// counts dropped — before anything global saw them.
func LocalCounter() *Counter { return &Counter{v: new(atomic.Int64)} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only move forward).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Take reads the current count and resets it to zero — the fold-and-
// clear primitive behind LocalCounter buffers.
func (c *Counter) Take() int64 { return c.v.Swap(0) }

// CounterVec is a dense vector of counters over a fixed label set. The
// index space is the caller's existing dense index; Inc/Add perform one
// atomic add with no hashing.
type CounterVec struct{ vals []atomic.Int64 }

// NewCounterVec registers (or fetches) a counter vector with the given
// label key and the full, fixed set of label values.
func (r *Registry) NewCounterVec(name, help, label string, labelVals []string) *CounterVec {
	if len(labelVals) == 0 {
		panic(fmt.Sprintf("obs: counter vec %q needs label values", name))
	}
	m := r.register(name, help, KindCounter, label, labelVals, nil)
	return &CounterVec{vals: m.vals}
}

// Inc adds one to series i.
func (v *CounterVec) Inc(i int) { v.vals[i].Add(1) }

// Add adds n to series i.
func (v *CounterVec) Add(i int, n int64) { v.vals[i].Add(n) }

// Value reads series i.
func (v *CounterVec) Value(i int) int64 { return v.vals[i].Load() }

// Sum totals every series.
func (v *CounterVec) Sum() int64 {
	var n int64
	for i := range v.vals {
		n += v.vals[i].Load()
	}
	return n
}

// Gauge is a scalar that can move both ways.
type Gauge struct{ v *atomic.Int64 }

// NewGauge registers (or fetches) a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	m := r.register(name, help, KindGauge, "", nil, nil)
	return &Gauge{v: &m.vals[0]}
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of int64 observations. Bucket
// bounds are fixed at registration, so the exposition shape — like
// everything else here — is a constant of the build, not of the data.
type Histogram struct{ m *metric }

// NewHistogram registers (or fetches) a histogram with the given
// inclusive upper bounds (strictly increasing; an implicit +Inf bucket
// is always appended).
func (r *Registry) NewHistogram(name, help string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs buckets", name))
	}
	m := r.register(name, help, KindHistogram, "", nil, bounds)
	return &Histogram{m: m}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v at once (n >= 0): the fold of a
// private tally of equal observations into the shared histogram, made
// at a synchronisation point. Linear scan over the (short, fixed)
// bounds, then two atomic adds — no allocation.
func (h *Histogram) ObserveN(v, n int64) {
	m := h.m
	i := 0
	for i < len(m.bounds) && v > m.bounds[i] {
		i++
	}
	m.counts[i].Add(n)
	m.sum.Add(v * n)
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.m.counts {
		n += h.m.counts[i].Load()
	}
	return n
}

// Sum is the running total of observed values.
func (h *Histogram) Sum() int64 { return h.m.sum.Load() }

// DurationMS converts a duration to the millisecond unit histograms
// record (for stamped — not slept — delays).
func DurationMS(d time.Duration) int64 { return d.Milliseconds() }
