package obs

// Snapshot is the registry's state as plain data: metric name → raw
// value array (scalar/vec values in registration order; histograms:
// per-bucket counts then the sum). encoding/json writes it with its
// keys sorted, so checkpoint bytes are a pure function of the state.
type Snapshot map[string][]int64

// Snapshot exports every registered metric's raw values. Take it from
// a quiescent point (the campaign's drain barrier) — mid-flight
// atomics would still be racing.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.metrics))
	for _, m := range r.metrics {
		out[m.name] = m.raw()
	}
	return out
}

// Restore loads a snapshot. Values for metrics not yet registered are
// kept pending and applied when the metric registers (a resumed
// campaign restores its checkpoint before the scanner — and the
// scanner's metrics — are built). Shape mismatches are dropped whole.
func (r *Registry) Restore(s Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, raw := range s {
		if m := r.byName[name]; m != nil {
			m.load(raw)
			continue
		}
		if r.pending == nil {
			r.pending = make(map[string][]int64)
		}
		r.pending[name] = append([]int64(nil), raw...)
	}
}

// Reread sets the named metrics in s to their current values: for a
// snapshot cut while late work still moved those series, which must
// show them where that work left them. Names s does not hold are
// skipped.
func (r *Registry) Reread(s Snapshot, names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		if m := r.byName[name]; m != nil {
			if _, ok := s[name]; ok {
				s[name] = m.raw()
			}
		}
	}
}
