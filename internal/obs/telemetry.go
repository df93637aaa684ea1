package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// series is one flattened (key, value) sample. Keys follow the
// Prometheus series notation without quotes — `name{label=VAL}`,
// `name_bucket{le=N}` — so telemetry lines stay greppable without
// JSON-escaped quote noise.
type series struct {
	key string
	val int64
}

func compareSeries(a, b series) int { return strings.Compare(a.key, b.key) }

// seriesKeys spells the metric's series keys in flatten's order: a
// histogram's cumulative buckets, then _sum and _count; a vector's
// labels; a scalar's bare name.
func (m *metric) seriesKeys() []string {
	switch {
	case m.kind == KindHistogram:
		keys := make([]string, 0, len(m.counts)+2)
		for i := range m.counts {
			le := "+Inf"
			if i < len(m.bounds) {
				le = strconv.FormatInt(m.bounds[i], 10)
			}
			keys = append(keys, m.name+"_bucket{le="+le+"}")
		}
		return append(keys, m.name+"_sum", m.name+"_count")
	case len(m.labelVals) > 0:
		keys := make([]string, len(m.labelVals))
		for i, lv := range m.labelVals {
			keys[i] = m.name + "{" + m.label + "=" + lv + "}"
		}
		return keys
	}
	return []string{m.name}
}

// flatten appends every metric's series samples to dst, sorted by key.
// Histogram buckets are cumulative, mirroring the exposition format.
// With room in dst it allocates nothing: the keys were spelled at
// registration.
func (r *Registry) flatten(dst []series) []series {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		if m.kind != KindHistogram {
			for i := range m.vals {
				dst = append(dst, series{m.keys[i], m.vals[i].Load()})
			}
			continue
		}
		var cum int64
		for i := range m.counts {
			cum += m.counts[i].Load()
			dst = append(dst, series{m.keys[i], cum})
		}
		n := len(m.counts)
		dst = append(dst, series{m.keys[n], m.sum.Load()}, series{m.keys[n+1], cum})
	}
	slices.SortFunc(dst, compareSeries)
	return dst
}

// TelemetryWriter emits one JSONL line per campaign slice with the full
// registry state: sorted series keys, int64 values, logical timestamps
// — byte-identical across worker counts and across a checkpoint resume
// (the resumed registry continues from the checkpointed values).
type TelemetryWriter struct {
	r   *Registry
	w   io.Writer
	buf []byte
	// held is the line Capture took: its slice, time and samples.
	held      []series
	heldSlice int
	heldAt    time.Time
}

// NewTelemetryWriter returns a per-slice telemetry stream over w.
func NewTelemetryWriter(r *Registry, w io.Writer) *TelemetryWriter {
	return &TelemetryWriter{r: r, w: w}
}

// WriteSlice emits the slice's telemetry line. Call from a quiescent
// point (the drain barrier): no metric may be mid-update.
func (t *TelemetryWriter) WriteSlice(slice int, at time.Time) error {
	t.Capture(slice, at)
	return t.WriteCaptured()
}

// Capture takes the slice's line as the registry stands now, for
// WriteCaptured to write later: WriteSlice in two steps, for a caller
// that has work still moving some series when the line is due. Call
// from a quiescent point, like WriteSlice. The samples reuse the
// writer's buffer, so once it has grown a capture allocates nothing.
func (t *TelemetryWriter) Capture(slice int, at time.Time) {
	t.held = t.r.flatten(t.held[:0])
	t.heldSlice, t.heldAt = slice, at
}

// WriteCaptured writes the line Capture took. The scalar series named
// in reread are read again now, and every other sample keeps its
// captured value: reread names the series the caller's late work
// advances, which the line must show where that work left them. A name
// the registry does not hold as a scalar is ignored.
func (t *TelemetryWriter) WriteCaptured(reread ...string) error {
	for _, name := range reread {
		t.r.mu.Lock()
		m := t.r.byName[name]
		t.r.mu.Unlock()
		if m == nil || m.kind == KindHistogram || len(m.labelVals) > 0 {
			continue
		}
		// A scalar's one sample is keyed by its bare name.
		if i, ok := slices.BinarySearchFunc(t.held, series{key: name}, compareSeries); ok {
			t.held[i].val = m.vals[0].Load()
		}
	}
	b := t.buf[:0]
	b = append(b, `{"slice":`...)
	b = strconv.AppendInt(b, int64(t.heldSlice), 10)
	b = append(b, `,"time":"`...)
	b = t.heldAt.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, `","metrics":{`...)
	for i, s := range t.held {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, s.key...) // keys are metric identifiers: no JSON escaping needed
		b = append(b, `":`...)
		b = strconv.AppendInt(b, s.val, 10)
	}
	b = append(b, "}}\n"...)
	t.buf = b
	_, err := t.w.Write(b)
	return err
}

// Value returns a named series' current value (the invariant tests'
// read API): scalar/vec metrics by flattened key, histograms via their
// _sum/_count/_bucket series.
func (r *Registry) Value(key string) (int64, bool) {
	for _, s := range r.flatten(nil) {
		if s.key == key {
			return s.val, true
		}
	}
	return 0, false
}
