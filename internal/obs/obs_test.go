package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "x")
	b := r.NewCounter("x_total", "x")
	a.Add(3)
	if got := b.Value(); got != 3 {
		t.Fatalf("second registration got its own storage: %d", got)
	}
	v1 := r.NewCounterVec("v_total", "v", "k", []string{"p", "q"})
	v2 := r.NewCounterVec("v_total", "v", "k", []string{"p", "q"})
	v1.Inc(1)
	if got := v2.Value(1); got != 1 {
		t.Fatalf("vec re-registration got its own storage: %d", got)
	}
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("m", "m")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.NewGauge("m", "m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat_ms", "latency", []int64{10, 20})
	for _, v := range []int64{5, 10, 15, 20, 25} {
		h.Observe(v)
	}
	// Bounds are inclusive: 10 lands in le=10, 20 in le=20, 25 overflows.
	m := h.m
	got := []int64{m.counts[0].Load(), m.counts[1].Load(), m.counts[2].Load()}
	if want := []int64{2, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket counts %v, want %v", got, want)
	}
	if h.Count() != 5 || h.Sum() != 75 {
		t.Fatalf("count=%d sum=%d, want 5/75", h.Count(), h.Sum())
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	build := func() (*Registry, *Counter, *Gauge, *Histogram) {
		r := NewRegistry()
		c := r.NewCounter("c_total", "c")
		g := r.NewGauge("g", "g")
		h := r.NewHistogram("h_ms", "h", []int64{1, 10})
		return r, c, g, h
	}
	r1, c, g, h := build()
	c.Add(7)
	g.Set(-2)
	h.Observe(5)
	h.Observe(50)

	// Through JSON, like a checkpoint on disk.
	blob, err := json.Marshal(r1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}

	r2, _, _, _ := build()
	r2.Restore(snap)
	if !reflect.DeepEqual(r2.Snapshot(), r1.Snapshot()) {
		t.Fatalf("round-trip diverged:\n got %v\nwant %v", r2.Snapshot(), r1.Snapshot())
	}
}

func TestRestorePendingAppliesAtRegistration(t *testing.T) {
	// A resumed campaign restores the checkpoint before the scanner —
	// and the scanner's metrics — are built: values must wait for the
	// registration and land then.
	r := NewRegistry()
	r.Restore(Snapshot{"late_total": {42}})
	c := r.NewCounter("late_total", "late")
	if got := c.Value(); got != 42 {
		t.Fatalf("pending restore not applied at registration: %d", got)
	}
}

func TestSnapshotJSONSortedAndStable(t *testing.T) {
	s := Snapshot{"b": {2}, "a": {1}, "c": {3}}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"a":[1],"b":[2],"c":[3]}`; string(b1) != want {
		t.Fatalf("snapshot JSON %s, want %s", b1, want)
	}
}

func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("s_total", "s").Add(4)
	r.NewCounterVec("v_total", "v", "k", []string{"x", "y"}).Add(1, 9)
	r.NewHistogram("h_ms", "h", []int64{10}).Observe(3)

	for key, want := range map[string]int64{
		"s_total":            4,
		"v_total{k=y}":       9,
		"h_ms_count":         1,
		"h_ms_sum":           3,
		"h_ms_bucket{le=10}": 1,
	} {
		if got, ok := r.Value(key); !ok || got != want {
			t.Errorf("Value(%q) = %d,%v, want %d", key, got, ok, want)
		}
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value found a series that was never registered")
	}
}

// ObserveN(v, n) is n calls of Observe(v) in two atomic adds: a scan
// worker's tally of zero-length waits folds in with it.
func TestObserveNFoldsEqualObservations(t *testing.T) {
	bounds := []int64{0, 10, 100}
	r := NewRegistry()
	one, folded := r.NewHistogram("one_ms", "", bounds), r.NewHistogram("folded_ms", "", bounds)
	for _, o := range []struct{ v, n int64 }{{0, 7}, {4, 3}, {250, 2}, {0, 0}, {-1, 1}} {
		for range o.n {
			one.Observe(o.v)
		}
		folded.ObserveN(o.v, o.n)
	}
	snap := r.Snapshot()
	if got, want := snap["folded_ms"], snap["one_ms"]; !reflect.DeepEqual(got, want) {
		t.Errorf("ObserveN booked %v, Observe %v", got, want)
	}
}
