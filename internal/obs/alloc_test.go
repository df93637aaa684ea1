package obs

import (
	"io"
	"testing"
	"time"
)

// The capture/scan fast paths increment metrics per event; the whole
// point of dense preallocated storage is that those updates never
// allocate. This pins it.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	vec := r.NewCounterVec("v_total", "v", "k", []string{"a", "b", "c"})
	g := r.NewGauge("g", "g")
	h := r.NewHistogram("h_ms", "h", []int64{1, 10, 100, 1000})

	for name, fn := range map[string]func(){
		"Counter.Inc":        func() { c.Inc() },
		"Counter.Add":        func() { c.Add(3) },
		"CounterVec.Inc":     func() { vec.Inc(1) },
		"CounterVec.Add":     func() { vec.Add(2, 5) },
		"Gauge.Set":          func() { g.Set(7) },
		"Histogram.Observe":  func() { h.Observe(42) },
		"Histogram.ObserveN": func() { h.ObserveN(0, 9) },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, n)
		}
	}
}

// A campaign captures one telemetry line per slice at its drain
// barrier. Once the writer's buffer has grown, the capture allocates
// nothing: series keys are spelled at registration, and the samples
// land in the buffer the previous capture used.
func TestCaptureAllocs(t *testing.T) {
	tw := NewTelemetryWriter(goldenRegistry(), io.Discard)
	at := time.Unix(0, 0)
	tw.Capture(0, at)
	if n := testing.AllocsPerRun(100, func() { tw.Capture(1, at) }); n != 0 {
		t.Errorf("Capture allocates %.1f per call, want 0", n)
	}
}
