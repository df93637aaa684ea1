package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds one metric of every shape with fixed values, so
// the fixtures cover every exposition branch.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.NewCounter("scan_completed_total", "targets fully scanned").Add(1234)
	r.NewGauge("breaker_open", "modules currently open").Set(2)
	vec := r.NewCounterVec("capture_events_total", "captures per vantage", "vantage", []string{"DE", "US"})
	vec.Add(0, 40)
	vec.Add(1, 2)
	h := r.NewHistogram("scan_retry_backoff_ms", "stamped retry backoff", []int64{250, 500, 1000})
	for _, v := range []int64{100, 250, 900, 5000} {
		h.Observe(v)
	}
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverges from golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.golden", buf.Bytes())

	// Exposition is read-only: a second write is byte-identical.
	var again bytes.Buffer
	r := goldenRegistry()
	_ = r.WritePrometheus(&again)
	again.Reset()
	_ = r.WritePrometheus(&again)
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("repeated exposition writes diverge")
	}
}

func TestTelemetryLineGolden(t *testing.T) {
	r := goldenRegistry()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(r, &buf)
	at := time.Date(2025, 6, 1, 0, 15, 0, 0, time.UTC)
	if err := tw.WriteSlice(0, at); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteSlice(1, at.Add(15*time.Minute)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "telemetry.golden", buf.Bytes())
}

// The two-step write is WriteSlice taken apart: a line captured, then
// written after one captured and one re-read series both moved, equals
// the line WriteSlice wrote at capture time with only the re-read
// series changed. Names that are not scalars are not re-read.
func TestCaptureThenWriteRereadsOnlyNamedSeries(t *testing.T) {
	r := goldenRegistry()
	at := time.Date(2025, 6, 1, 0, 15, 0, 0, time.UTC)
	var want bytes.Buffer
	if err := NewTelemetryWriter(r, &want).WriteSlice(3, at); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	tw := NewTelemetryWriter(r, &got)
	tw.Capture(3, at)
	r.NewGauge("breaker_open", "").Set(9)           // captured: keeps 2
	r.NewCounter("scan_completed_total", "").Add(1) // re-read: 1235
	r.NewCounterVec("capture_events_total", "", "vantage", []string{"DE", "US"}).Add(0, 5)
	r.NewHistogram("scan_retry_backoff_ms", "", []int64{250, 500, 1000}).Observe(1)
	if err := tw.WriteCaptured("scan_completed_total", "capture_events_total",
		"scan_retry_backoff_ms", "scan_retry_backoff_ms_sum", "no_such_total"); err != nil {
		t.Fatal(err)
	}
	line := strings.Replace(want.String(), `"scan_completed_total":1234`, `"scan_completed_total":1235`, 1)
	if line == want.String() {
		t.Fatal("fixture holds no scan_completed_total sample")
	}
	if got.String() != line {
		t.Errorf("two-step line:\n got %s\nwant %s", got.String(), line)
	}
}
