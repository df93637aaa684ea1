// Command benchmark is the repository's benchmark: five named workloads
// over the campaign, cluster and serving paths, end-to-end metrics with
// regression bounds, and a traced run that drives each layer's exported
// functions for per-layer numbers and a reconciled budget. README.md in
// this directory says why each workload and metric exists and how to
// run them; BENCHMARK.json at the repository root describes the same
// benchmark to the driver.
//
//	go run ./benchmark -workload campaign_clean
//	go run ./benchmark -all
//	go run ./benchmark -workload serve_sealed -trace 1
//	go run ./benchmark -repeat-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	defaultSeed = 20240720
	// defaultSeconds is BENCHMARK.json's run_seconds: the driver makes
	// 114 runs in 3420 s, set-up and two builds included, which leaves
	// no room for the 24 s the issue sized the workloads at.
	defaultSeconds = 16
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps = 3
	// rounds is how many turns each workload gets when several run from
	// one command: a burst of interference on a shared host then lands
	// on a minority of each workload's samples, not on all of one's.
	rounds = 4
	outDir = "benchmark/out"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workloads   []string
	seed        uint64
	seconds     int
	trace       bool
	repeatCheck bool
	out         string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		all    = fs.Bool("all", false, "run every workload, interleaved in rounds")
		seed   = fs.Uint64("seed", defaultSeed, "seed of every generated input")
		secs   = fs.Int("seconds", defaultSeconds, "measured seconds per workload")
		trace  = fs.Int("trace", 0, "1: traced run with per-layer metrics, span files and budget tables")
		repeat = fs.Bool("repeat-check", false, "run every workload twice and compare the sets against the bounds")
		out    = fs.String("out", outDir, "directory for reports, span files and scratch stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateSpec(workloadSpecs, endToEnd, gate, perLayer); err != nil {
		fmt.Fprintln(stderr, "benchmark: definition invalid:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, repeatCheck: *repeat, out: *out}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case *secs < 1:
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	case *all || *repeat:
		if *name != "" {
			fmt.Fprintln(stderr, "benchmark: -workload excludes -all and -repeat-check")
			return 2
		}
		o.workloads = workloadNames()
	case findWorkload(*name):
		o.workloads = []string{*name}
	default:
		fmt.Fprintf(stderr, "benchmark: -workload must be one of %s (or use -all)\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// The committed BENCH_*.json were recorded at GOMAXPROCS=1, where
	// worker counts change nothing and a reader starves the writer it
	// runs beside; numbers taken that way describe no deployment.
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(stderr, "benchmark: GOMAXPROCS is 1; refusing to emit numbers (workers, nodes and clients would share one processor)")
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	if o.repeatCheck {
		return repeatCheck(o, stdout, stderr)
	}
	set, err := runSet(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	set.print(stdout)
	if err := set.save(reportPath(o.out, o.workloads, o.trace)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// The driver's contract: one workload per invocation, its result as
	// the last line of standard output.
	if len(set.Results) == 1 {
		line, err := json.Marshal(set.Results[0].driverLine(o.trace))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !set.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// result is one workload's outcome in one set.
type result struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds the workload's end-to-end metrics by name, the
	// time-based ones in reference-host time (calib.go); Measured holds
	// them as the clock read, and HostFactor is the run's ratio of the
	// two.
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Measured   map[string]float64 `json:"measured"`
	HostFactor float64            `json:"host_factor"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"per_layer,omitempty"`
	// Dists gives, for each timing, its quartiles, tail and sample
	// count.
	Dists                 map[string]dist `json:"distributions"`
	SetupS                []float64       `json:"setup_s_samples"`
	Notes                 []string        `json:"notes,omitempty"`
	Failures              []string        `json:"failures,omitempty"`
	RSSWholeProcessrocess bool            `json:"peak_rss_covers_whole_process,omitempty"`
}

// resultSet is everything one command measured.
type resultSet struct {
	Seed    uint64     `json:"seed"`
	Seconds int        `json:"seconds"`
	Traced  bool       `json:"traced"`
	Host    hostRecord `json:"host"`
	Results []*result  `json:"results"`
}

// reportPath names the file a set is saved under: report-<workload or
// all>[-traced].json.
func reportPath(dir string, workloads []string, traced bool) string {
	name := "report-all"
	if len(workloads) == 1 {
		name = "report-" + workloads[0]
	}
	if traced {
		name += "-traced"
	}
	return filepath.Join(dir, name+".json")
}

func (s *resultSet) correct() bool {
	for _, r := range s.Results {
		if r.Failed > 0 {
			return false
		}
	}
	return true
}

func (s *resultSet) save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSet sets every requested workload up, measures them — interleaved
// in rounds when there are several — and collects their metrics.
func runSet(o options) (*resultSet, error) {
	set := &resultSet{Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Host: newHostRecord()}
	e, err := newEnv(o.seed, runtime.GOMAXPROCS(0), o.out)
	if err != nil {
		return nil, err
	}
	defer e.close()

	type running struct {
		w      workload
		res    *result
		traced *tracedRun
	}
	var ws []*running
	for _, name := range o.workloads {
		w, err := newWorkload(name, e)
		if err != nil {
			return nil, err
		}
		res := &result{Workload: name}
		for i := 0; i < setupReps; i++ {
			if i > 0 {
				w.teardown()
			}
			t0 := time.Now()
			if err := w.setup(); err != nil {
				w.teardown()
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		}
		defer w.teardown()
		ws = append(ws, &running{w: w, res: res})
	}

	turns := 1
	if len(ws) > 1 {
		turns = rounds
	}
	turn := time.Duration(o.seconds) * time.Second / time.Duration(turns)
	peak := make([]float64, len(ws))
	for t := 0; t < turns; t++ {
		for i, r := range ws {
			r.res.RSSWholeProcessrocess = !resetPeakRSS()
			var err error
			if o.trace {
				if r.traced == nil {
					r.traced = newTracedRun(e, r.w)
				}
				err = r.traced.turn(turn)
			} else {
				err = r.w.run(time.Now().Add(turn))
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name(), err)
			}
			if p := peakRSSMB(); p > peak[i] {
				peak[i] = p
			}
		}
	}

	// The layers are driven once per command, after the workloads: every
	// traced workload's budget multiplies the same unit costs.
	var layers *layerRun
	if o.trace {
		rec := newRecorder()
		if layers, err = runLayers(e, rec); err != nil {
			return nil, fmt.Errorf("layer run: %w", err)
		}
		if err := rec.flush(filepath.Join(o.out, "trace-layers.jsonl")); err != nil {
			return nil, err
		}
	}

	for i, r := range ws {
		b := r.w.acct()
		m := r.w.report()
		m["setup_s"] = median(r.res.SetupS)
		m["peak_rss_mb"] = peak[i]
		r.res.Attempted, r.res.Failed = b.attempted, b.failed
		m["failed_share"] = float64(b.failed) / float64(max(b.attempted, 1))
		r.res.Measured = maps.Clone(m)
		r.res.HostFactor = b.hostFactor()
		toReferenceHost(m, r.res.HostFactor)
		r.res.EndToEnd = m
		r.res.Dists = map[string]dist{}
		for name, vals := range b.series {
			r.res.Dists[name] = summarize(vals)
		}
		r.res.Notes, r.res.Failures = b.notes, b.failures
		if r.traced != nil {
			overhead, err := r.traced.finish(o.out, layers)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name(), err)
			}
			r.res.Layers = maps.Clone(layers.m)
			r.res.Layers["trace.overhead_share"] = overhead
		}
		set.Results = append(set.Results, r.res)
	}
	set.Host.LoadavgEnd = loadavg()
	return set, nil
}

// metricVal is one metric on the driver's result line.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the driver's result line.
type driverResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// driverLine projects a result onto BENCHMARK.json: every gate metric
// for an untraced run, every per-layer metric for a traced one.
func (r *result) driverLine(traced bool) driverResult {
	d := driverResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricVal{}}
	if traced {
		for _, m := range perLayer {
			v, ok := r.Layers[m.Name]
			d.Correct = d.Correct && ok
			d.Metrics[m.Name] = metricVal{v, m.Unit}
		}
		return d
	}
	for _, g := range gate {
		v, ok := r.EndToEnd[g.From[r.Workload]]
		d.Correct = d.Correct && ok && v != 0
		d.Metrics[g.Name] = metricVal{v, g.Unit}
	}
	return d
}

func (s *resultSet) print(w io.Writer) {
	h := s.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg start=[%s] end=[%s]\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LoadavgStart, h.LoadavgEnd)
	fmt.Fprintf(w, "run: seed=%d seconds=%d per workload, traced=%v, set-up repeated %d times\n", s.Seed, s.Seconds, s.Traced, setupReps)
	for _, r := range s.Results {
		fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "   %s\n", n)
		}
		for _, f := range r.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		if r.RSSWholeProcessrocess {
			fmt.Fprintf(w, "   peak_rss_mb covers the whole process (VmHWM could not be reset)\n")
		}
		fmt.Fprintf(w, "   host factor %.4f: calibration kernel took %.1f ms (median of %d), the reference host takes %.1f ms\n",
			r.HostFactor, r.Dists["calibration_ms"].Median, r.Dists["calibration_ms"].N, calibRefMs)
		fmt.Fprintf(w, "   %-22s %16s %16s %-6s %s\n", "end-to-end metric", "reference host", "as measured", "unit", "bound")
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				continue
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if m.Bound == 0 {
				bound = "any increase"
			}
			fmt.Fprintf(w, "   %-22s %16.4f %16.4f %-6s %s\n", m.Name, v, r.Measured[m.Name], m.Unit, bound)
		}
		fmt.Fprintf(w, "   %-22s %10s %12s %12s %12s %12s\n", "timing", "n", "q1", "median", "q3", "tail")
		names := make([]string, 0, len(r.Dists))
		for n := range r.Dists {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := r.Dists[n]
			fmt.Fprintf(w, "   %-22s %10d %12.4f %12.4f %12.4f %12.4f (p%d)\n", n, d.N, d.Q1, d.Median, d.Q3, d.Tail, d.TailP)
		}
		if r.Layers != nil {
			fmt.Fprintf(w, "   %-40s %16s %s\n", "per-layer metric", "value", "unit")
			for _, m := range perLayer {
				fmt.Fprintf(w, "   %-40s %16.4f %s\n", m.Name, r.Layers[m.Name], m.Unit)
			}
		}
	}
}
