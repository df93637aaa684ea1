package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/world"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{1: 50, 19: 50, 20: 50, 40: 75, 100: 90, 199: 94, 200: 95, 1000: 95, 100000: 95} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	for n := 20; n <= 400; n++ {
		p := tailPercentile(n)
		if p > 50 && n*(100-p) < 1000 {
			t.Errorf("n=%d: p%d leaves only %d/100 samples beyond it", n, p, n*(100-p))
		}
		if p < 95 && n*(100-p-1) >= 1000 {
			t.Errorf("n=%d: p%d chosen though p%d still has ten samples beyond it", n, p, p+1)
		}
	}
}

func TestSummarize(t *testing.T) {
	var s []float64
	for i := 1; i <= 101; i++ {
		s = append(s, float64(102-i)) // unsorted input
	}
	d := summarize(s)
	if d.N != 101 || d.Median != 51 || d.Q1 != 26 || d.Q3 != 76 {
		t.Errorf("summarize = %+v", d)
	}
	if d.TailP != 90 || d.Tail != 91 {
		t.Errorf("tail = p%d %v, want p90 91", d.TailP, d.Tail)
	}
}

func TestRelWorse(t *testing.T) {
	if got := relWorse("lower", 100, 110); got != 0.1 {
		t.Errorf("lower 100→110 = %v", got)
	}
	if got := relWorse("higher", 100, 90); got != 0.1 {
		t.Errorf("higher 100→90 = %v", got)
	}
	if got := relWorse("higher", 100, 120); got != -0.2 {
		t.Errorf("higher 100→120 = %v", got)
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{Name: "b", ID: 3, Parent: 1, StartNs: 30, EndNs: 60},   // overlaps a by 10
		{Name: "c", ID: 4, Parent: 1, StartNs: 90, EndNs: 120},  // reaches 20 past root
		{Name: "a1", ID: 5, Parent: 2, StartNs: 15, EndNs: 25},  // nested in a
		{Name: "a2", ID: 6, Parent: 2, StartNs: 20, EndNs: 35},  // overlaps a1 by 5
		{Name: "in", ID: 7, Parent: 3, StartNs: 35, EndNs: 36},  // inside b
		{Name: "in2", ID: 8, Parent: 3, StartNs: 35, EndNs: 36}, // same interval again
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 + 10), // [10,60) and [90,100)
		2: 30 - 20,         // [15,35)
		3: 30 - 1,
		4: 30, 5: 10, 6: 15, 7: 1, 8: 1,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	by := selfByName(spans, spans)
	if by["root"].Count != 2 || by["root"].SelfNs != 80 {
		t.Errorf("selfByName over two recorders = %+v", by["root"])
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.open("x", 0, time.Now())
	r.done(id, time.Now())
	if r.add("y", id, time.Now(), time.Now()) != 0 || r.snapshot() != nil {
		t.Error("nil recorder recorded something")
	}
}

func TestBudgetResidual(t *testing.T) {
	b := &budget{Workload: "w", Figure: "f", EndMs: 100, Rows: []budgetRow{{"a", 2, 10, ""}, {"b", 0.5, 100, ""}}}
	if b.sumMs() != 70 || b.residualShare() != 0.3 {
		t.Errorf("sum %v residual %v", b.sumMs(), b.residualShare())
	}
	path := filepath.Join(t.TempDir(), "budget.txt")
	if err := b.write(path, nil); err != nil {
		t.Fatal(err)
	}
	text, _ := os.ReadFile(path)
	for _, want := range []string{"residual (unattributed)", "sum of layers", "end to end"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("budget table lacks a %q row:\n%s", want, text)
		}
	}
}

func TestValidateSpec(t *testing.T) {
	if err := validateSpec(workloadSpecs, endToEnd, gate, perLayer); err != nil {
		t.Fatalf("the benchmark's own definition: %v", err)
	}
	ws := func(n int) []workloadSpec {
		out := make([]workloadSpec, n)
		for i := range out {
			out[i] = workloadSpec{fmt.Sprintf("w%d", i), "why"}
		}
		return out
	}
	ms := func(n int) []metricSpec {
		out := make([]metricSpec, n)
		for i := range out {
			out[i] = metricSpec{Name: fmt.Sprintf("m%d", i), Unit: "ms", Better: "lower", Bound: 0.1}
		}
		return out
	}
	g := func(e2e []metricSpec, w []workloadSpec) []gateSpec {
		from := map[string]string{}
		for _, x := range w {
			from[x.Name] = e2e[0].Name
		}
		return []gateSpec{{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}, from}}
	}
	setup := []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2}}
	ok := func(w []workloadSpec, e2e, layers []metricSpec) error {
		return validateSpec(w, e2e, g(e2e, w), layers)
	}
	if err := ok(ws(2), setup, ms(1)); err != nil {
		t.Fatalf("minimal definition rejected: %v", err)
	}
	bad := []struct {
		name string
		err  error
	}{
		{"one workload", ok(ws(1), setup, ms(1))},
		{"nine workloads", ok(ws(9), setup, ms(1))},
		{"seventeen end-to-end", ok(ws(2), append(setup, ms(16)...), ms(1))},
		{"129 per-layer", ok(ws(2), setup, ms(129))},
		{"no per-layer", ok(ws(2), setup, nil)},
		{"space in workload name", ok([]workloadSpec{{"a b", "why"}, {"c", "why"}}, setup, ms(1))},
		{"slash in metric name", ok(ws(2), setup, []metricSpec{{Name: "a/b", Unit: "ms", Better: "lower"}})},
		{"name starting with a dot", ok(ws(2), setup, []metricSpec{{Name: ".a", Unit: "ms", Better: "lower"}})},
		{"65-character name", ok(ws(2), setup, []metricSpec{{Name: strings.Repeat("x", 65), Unit: "ms", Better: "lower"}})},
		{"duplicate metric", ok(ws(2), setup, append(ms(1), ms(1)...))},
		{"per-layer name reusing a gate name", ok(ws(2), setup, []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower"}})},
		{"bad unit", ok(ws(2), setup, []metricSpec{{Name: "a", Unit: "m s", Better: "lower"}})},
		{"bad direction", ok(ws(2), setup, []metricSpec{{Name: "a", Unit: "ms", Better: "faster"}})},
		{"empty why", ok([]workloadSpec{{"a", ""}, {"b", "why"}}, setup, ms(1))},
		{"unknown workload on a metric", ok(ws(2), []metricSpec{{Name: "setup_s", Unit: "s", Better: "lower", On: []string{"nope"}}}, ms(1))},
		{"gate bound above a quarter", validateSpec(ws(2), setup,
			[]gateSpec{{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.3}, map[string]string{"w0": "setup_s", "w1": "setup_s"}}}, ms(1))},
		{"gate without setup_s", validateSpec(ws(2), setup,
			[]gateSpec{{metricSpec{Name: "other_s", Unit: "s", Better: "lower", Bound: 0.2}, map[string]string{"w0": "setup_s", "w1": "setup_s"}}}, ms(1))},
		{"gate source missing on a workload", validateSpec(ws(2), setup,
			[]gateSpec{{metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2}, map[string]string{"w0": "setup_s"}}}, ms(1))},
	}
	for _, c := range bad {
		if c.err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// benchmarkJSON mirrors the driver's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json and spec.go describe one benchmark: same workloads,
// same metrics, same units, directions and bounds, both ways round.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, got, w)
		}
	}
	if len(doc.EndToEnd) != len(gate) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the gate", len(doc.EndToEnd), len(gate))
	}
	for i, g := range gate {
		got := doc.EndToEnd[i]
		if got.Name != g.Name || got.Unit != g.Unit || got.Better != g.Better || got.Bound != g.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, g.metricSpec)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
}

func TestRefusesOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", wClean, "-out", t.TempDir()}, &stdout, &stderr); code == 0 {
		t.Error("ran at GOMAXPROCS=1")
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "GOMAXPROCS is 1") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", wClean, "-trace", "2"},
		{"-workload", wClean, "-seconds", "0"}, {"-all", "-workload", wClean},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", t.TempDir()), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// smallEnv is a world small enough for tier-1: the campaign keeps its 96
// slices and eleven checkpoints on 8 shards, with a few thousand rows.
func smallEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(7, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	e.cfg = core.Config{World: world.Config{DeviceScale: 4e-4, AddrScale: 4e-7, ASScale: 0.02}, CaptureBudget: 800, CollectShards: 8}
	e.quick = true
	return e
}

// One iteration of every workload: the oracles pass, every end-to-end
// metric marked for the workload comes out non-zero, and the driver
// line carries exactly BENCHMARK.json's end_to_end names.
func TestSmokeWorkloads(t *testing.T) {
	e := smallEnv(t)
	for _, spec := range workloadSpecs {
		w, err := newWorkload(spec.Name, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s set-up: %v", spec.Name, err)
		}
		// A deadline already past: one iteration for the campaign
		// workloads; one cold pass, then a table and a scan per client
		// for serve_sealed.
		err = w.run(time.Now())
		w.teardown()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		m := w.report()
		b := w.acct()
		if b.attempted == 0 || b.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", spec.Name, b.attempted, b.failed, b.failures)
		}
		m["setup_s"], m["peak_rss_mb"], m["failed_share"] = 1, 1, 0
		for _, ms := range endToEnd {
			v, has := m[ms.Name]
			switch {
			case ms.reports(spec.Name) && !has:
				t.Errorf("%s does not report %s", spec.Name, ms.Name)
			case !ms.reports(spec.Name) && has:
				t.Errorf("%s reports %s, which is not marked for it", spec.Name, ms.Name)
			case has && v <= 0 && ms.Name != "failed_share":
				t.Errorf("%s: %s = %v", spec.Name, ms.Name, v)
			}
		}
		for name := range m {
			if _, ok := findMetric(endToEnd, name); !ok {
				t.Errorf("%s reports %s, which spec.go does not define", spec.Name, name)
			}
		}
		line := (&result{Workload: spec.Name, Attempted: b.attempted, Failed: b.failed, EndToEnd: m}).driverLine(false)
		if !line.Correct || len(line.Metrics) != len(gate) {
			t.Errorf("%s: driver line %+v", spec.Name, line)
		}
		for _, g := range gate {
			if v, ok := line.Metrics[g.Name]; !ok || v.Value == 0 || v.Unit != g.Unit {
				t.Errorf("%s: driver line has %s = %+v", spec.Name, g.Name, v)
			}
		}
	}
}

// The traced run: every per-layer metric is measured, a traced turn
// records spans, and the span file and budget table come out with an
// explicit residual row.
func TestSmokeTrace(t *testing.T) {
	e := smallEnv(t)
	layers, err := runLayers(e, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := layers.m[m.Name]; !ok && m.Name != "trace.overhead_share" {
			t.Errorf("layer run lacks %s", m.Name)
		}
	}
	for name := range layers.m {
		if _, ok := findMetric(perLayer, name); !ok {
			t.Errorf("layer run measures %s, which spec.go does not define", name)
		}
	}

	w, err := newWorkload(wDurable, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	tr := newTracedRun(e, w)
	if err := tr.turn(0); err != nil {
		t.Fatal(err)
	}
	if b := w.acct(); b.attempted != 2 || b.failed != 0 {
		t.Fatalf("traced turn: %d attempted, %d failed: %v", b.attempted, b.failed, b.failures)
	}
	out := t.TempDir()
	if _, err := tr.finish(out, layers); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range tr.rec.snapshot() {
		names[s.Name]++
	}
	// One traced iteration: 97 slice flushes in the full run, 9 after
	// the resume at slice 88 is not traced separately; 11 checkpoints.
	if names["iteration"] != 1 || names["slice"] < core.CollectSlices || names["checkpoint"] != 11 || names["resume"] != 1 {
		t.Errorf("spans of one traced iteration: %v", names)
	}
	spans, err := os.ReadFile(filepath.Join(out, "trace-"+wDurable+".jsonl"))
	if err != nil || bytes.Count(spans, []byte("\n")) != len(tr.rec.snapshot()) {
		t.Errorf("span file: %v, %d lines for %d spans", err, bytes.Count(spans, []byte("\n")), len(tr.rec.snapshot()))
	}
	table, err := os.ReadFile(filepath.Join(out, "budget-"+wDurable+".txt"))
	if err != nil || !strings.Contains(string(table), "residual (unattributed)") || !strings.Contains(string(table), "store append") {
		t.Errorf("budget table: %v\n%s", err, table)
	}

	res := &result{Workload: wDurable, Layers: map[string]float64{"trace.overhead_share": 0}}
	for k, v := range layers.m {
		res.Layers[k] = v
	}
	line := res.driverLine(true)
	if !line.Correct || len(line.Metrics) != len(perLayer) {
		t.Errorf("traced driver line: correct=%v, %d metrics for %d per-layer names", line.Correct, len(line.Metrics), len(perLayer))
	}
}

func TestCompareSets(t *testing.T) {
	set := func(rps, failed float64) *resultSet {
		return &resultSet{Results: []*result{{Workload: wClean, EndToEnd: map[string]float64{"results_per_s": rps, "failed_share": failed}}}}
	}
	var out bytes.Buffer
	rps, _ := findMetric(endToEnd, "results_per_s")
	in, beyond := 90*rps.Bound, 120*rps.Bound
	if !compareSets(set(100, 0), set(100-in, 0), &out) || !compareSets(set(100, 0), set(100+in, 0), &out) {
		t.Errorf("0.9 of the bound apart judged outside it:\n%s", out.String())
	}
	if compareSets(set(100, 0), set(100-beyond, 0), &out) || compareSets(set(100, 0), set(100+beyond, 0), &out) {
		t.Error("1.2 of the bound apart judged inside it")
	}
	if compareSets(set(100, 0), set(100, 0.01), &out) {
		t.Error("failed operations accepted")
	}
}
