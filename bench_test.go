// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
// the shape comparison). Each benchmark runs the relevant pipeline
// stage and renders the corresponding output; `go test -bench=. -benchmem`
// therefore reproduces the complete evaluation.
//
// The heavy campaign (collection + real-time scan + hitlist scan) is
// executed once per process and shared, as the paper derives all of its
// tables from one measurement run.
package ntpscan_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ntpscan"
	"ntpscan/internal/analysis"
	"ntpscan/internal/experiments"
	"ntpscan/internal/netsim/link"
)

// benchOptions reads the scale from NTPSCAN_SCALE (a multiplier on the
// default bench scales) so larger reproductions can be requested
// without recompiling: NTPSCAN_SCALE=5 go test -bench=.
func benchOptions() ntpscan.Options {
	mult := 1.0
	if v := os.Getenv("NTPSCAN_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			mult = f
		}
	}
	return ntpscan.Options{
		Seed:        20240720,
		DeviceScale: 3e-3 * mult,
		AddrScale:   6e-6 * mult,
		ASScale:     0.03,
		Workers:     64,
	}
}

var (
	benchOnce  sync.Once
	benchSuite *ntpscan.Suite
)

func sharedSuite(b *testing.B) *ntpscan.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = ntpscan.RunExperiments(benchOptions())
	})
	return benchSuite
}

// BenchmarkFullCampaign measures the complete pipeline end to end:
// world build, vantage deployment, four-week collection with real-time
// scanning, hitlist build + batch scan, R&L-era run.
func BenchmarkFullCampaign(b *testing.B) {
	opts := benchOptions()
	opts.DeviceScale /= 5 // keep per-iteration cost sane
	opts.AddrScale /= 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(1000 + i)
		s := ntpscan.RunExperiments(opts)
		if s.P.Summary.Set().Len() == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkCampaignWorkers runs the same campaign at several worker
// counts. The collection shard count is fixed, so every variant
// produces a bit-identical dataset; only wall-clock should move. On a
// multi-core host the 8-worker variant is the pipeline speedup
// headline recorded in BENCH_pipeline.json.
func BenchmarkCampaignWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchOptions()
			opts.DeviceScale /= 5
			opts.AddrScale /= 3
			opts.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts.Seed = uint64(1000 + i)
				s := ntpscan.RunExperiments(opts)
				if s.P.Summary.Set().Len() == 0 {
					b.Fatal("empty run")
				}
			}
		})
	}
}

// BenchmarkCampaignCongested runs the full campaign behind a
// utilization-0.9 default link (every flow crosses a queued, delayed,
// bandwidth-limited hop — see internal/netsim/link) and reports its
// cost relative to an identical clean-fabric run as the x-clean
// metric. Queue outcomes are pure hash draws on the logical clock, so
// congestion must cost arithmetic, not wall-clock: with
// NTPSCAN_BENCH_COMPARE=1 the benchmark fails if the congested run
// reaches 2x the clean ns/op.
func BenchmarkCampaignCongested(b *testing.B) {
	opts := benchOptions()
	opts.DeviceScale /= 5
	opts.AddrScale /= 3
	b.ReportAllocs()
	var cleanNs int64
	for i := 0; i < b.N; i++ {
		seed := uint64(4000 + i)
		b.StopTimer()
		clean := opts
		clean.Seed = seed
		t0 := time.Now()
		if s := ntpscan.RunExperiments(clean); s.P.Summary.Set().Len() == 0 {
			b.Fatal("empty clean run")
		}
		cleanNs += time.Since(t0).Nanoseconds()
		b.StartTimer()

		congested := opts
		congested.Seed = seed
		congested.LinkPlan = &link.Plan{
			Seed: seed ^ 0xc049,
			Default: &link.Params{
				QueuePackets: 16,
				BytesPerSec:  64 << 20,
				PropDelay:    15 * time.Microsecond,
				Utilization:  0.9,
				JitterMax:    10 * time.Microsecond,
			},
		}
		if s := ntpscan.RunExperiments(congested); s.P.Summary.Set().Len() == 0 {
			b.Fatal("empty congested run")
		}
	}
	b.StopTimer()
	if cleanNs > 0 {
		ratio := float64(b.Elapsed().Nanoseconds()) / float64(cleanNs)
		b.ReportMetric(ratio, "x-clean")
		if os.Getenv("NTPSCAN_BENCH_COMPARE") == "1" && ratio >= 2 {
			b.Fatalf("congested campaign costs %.2fx the clean run; the gate requires < 2x", ratio)
		}
	}
}

// liveHeap returns the collected live-heap size after a full GC.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// scaleHeap shares the measured live-heap growth across the SCALE
// ladder's sub-benchmarks so the top rung can assert sub-linear memory
// against the bottom one.
var scaleHeap = map[int]float64{}

// BenchmarkCampaignScale climbs the memory scale ladder: the
// address-only eyeball population (the bulk of the world) grows
// 1x/10x/100x while the reachable population — and therefore the
// campaign's work — stays fixed. The world derives that population on
// demand through the bounded shard arenas and never holds it resident,
// so the live heap retained by a run must grow sub-linearly: the
// SCALE=100 rung fails if it holds >= 20x the SCALE=1 rung's bytes.
// The per-rung live-heap-B metric is the number recorded in
// BENCH_pipeline.json.
func BenchmarkCampaignScale(b *testing.B) {
	// One throwaway run warms process-global state (the intern table,
	// lazily-built profile tables) so each rung's live-heap delta
	// measures only what that run retains — and so the numbers match
	// whether the ladder runs alone (make bench-scale) or after the
	// other campaign benchmarks (make bench).
	warm := benchOptions()
	warm.DeviceScale /= 5
	warm.AddrScale /= 3
	warm.CaptureBudget = 20000
	ntpscan.CollectExperiments(warm)
	for _, scale := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			opts := benchOptions()
			opts.DeviceScale /= 5
			opts.AddrScale = opts.AddrScale / 3 * float64(scale)
			// Fixed measurement effort against a growing world: without
			// the pin, the default budget tracks client mass and the
			// retained datasets scale linearly by construction.
			opts.CaptureBudget = 20000
			b.ReportAllocs()
			var live float64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				s := ntpscan.CollectExperiments(opts)
				if s.HitFullSum.Set().Len() == 0 {
					b.Fatal("empty collection")
				}
				live = liveHeap() - before
				runtime.KeepAlive(s)
			}
			b.ReportMetric(live, "live-heap-B")
			scaleHeap[scale] = live
			if base, ok := scaleHeap[1]; scale == 100 && ok && base > 0 {
				if ratio := live / base; ratio >= 20 {
					b.Fatalf("SCALE=100 retains %.0f live-heap bytes, %.1fx the SCALE=1 rung (%.0f); the ladder requires < 20x",
						live, ratio, base)
				}
			}
		})
	}
}

// BenchmarkTable1Collection regenerates Table 1 (dataset sizes and
// overlaps).
func BenchmarkTable1Collection(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table1", s.Table1())
}

// BenchmarkFigure1IIDClasses regenerates Figure 1 (IID classes and
// Cable/DSL/ISP shares).
func BenchmarkFigure1IIDClasses(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Figure1(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.StopTimer()
	reportOnce(b, "figure1", s.Figure1())
}

// BenchmarkTable2ScanResults regenerates Table 2 (successful scans by
// protocol, including the hit-rate note).
func BenchmarkTable2ScanResults(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table2(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table2", s.Table2())
}

// BenchmarkTable3DeviceTypes regenerates Table 3 (title groups, SSH
// OSes, CoAP resources).
func BenchmarkTable3DeviceTypes(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table3(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table3", s.Table3())
}

// BenchmarkFigure2SSHOutdated regenerates Figure 2.
func BenchmarkFigure2SSHOutdated(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Figure2(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.StopTimer()
	reportOnce(b, "figure2", s.Figure2())
}

// BenchmarkFigure3AccessControl regenerates Figure 3.
func BenchmarkFigure3AccessControl(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Figure3(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.StopTimer()
	reportOnce(b, "figure3", s.Figure3())
}

// BenchmarkSecureShareHeadline regenerates the §4.4 headline.
func BenchmarkSecureShareHeadline(b *testing.B) {
	s := sharedSuite(b)
	var ntpShare, hitShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares := analysis.SecureShares(s.NTP, s.Hitlist)
		ntpShare, hitShare = shares[0].Share(), shares[1].Share()
	}
	b.StopTimer()
	b.ReportMetric(ntpShare*100, "%secure-ntp")
	b.ReportMetric(hitShare*100, "%secure-hitlist")
	reportOnce(b, "headline", s.Headline())
}

// BenchmarkSection5Telescope regenerates the §5 actor-detection
// experiment.
func BenchmarkSection5Telescope(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := ntpscan.DetectScanners(uint64(100 + i))
		if len(res.Report.Campaigns) != 2 {
			b.Fatalf("campaigns = %d", len(res.Report.Campaigns))
		}
	}
	b.StopTimer()
	reportOnce(b, "section5", ntpscan.DetectScanners(7).Rendered)
}

// BenchmarkTable4EUI64Vendors regenerates Table 4 and Figure 4
// (Appendix B).
func BenchmarkTable4EUI64Vendors(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table4(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table4", s.Table4()+s.Figure4())
}

// BenchmarkTable5NetworkAggregation regenerates Table 5 (Appendix C).
func BenchmarkTable5NetworkAggregation(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table5(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table5", s.Table5())
}

// BenchmarkTable6NetworkCounts regenerates Table 6 plus the by-network
// Figure 5/6 variants (Appendix C).
func BenchmarkTable6NetworkCounts(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table6(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table6", s.Table6())
}

// BenchmarkTable7PerServer regenerates Table 7 (Appendix D).
func BenchmarkTable7PerServer(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table7(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table7", s.Table7())
}

// BenchmarkTable8Top100 regenerates the Appendix D top-group lists
// (Tables 8/9).
func BenchmarkTable8Top100(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Table8(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
	b.StopTimer()
	reportOnce(b, "table8", s.Table8())
}

// BenchmarkKeyReuse regenerates the §6 key-reuse analysis.
func BenchmarkKeyReuse(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.KeyReuse(); len(out) == 0 {
			b.Fatal("empty analysis")
		}
	}
	b.StopTimer()
	reportOnce(b, "keyreuse", s.KeyReuse())
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationFeedVsBatch: real-time feed vs stale aggregated
// list (§6 "Dynamic IP Addresses").
func BenchmarkAblationFeedVsBatch(b *testing.B) {
	opts := benchOptions()
	opts.DeviceScale /= 5
	opts.AddrScale /= 3
	var out string
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(2000 + i)
		out = experiments.AblationFeedVsBatch(opts)
	}
	b.StopTimer()
	reportOnce(b, "ablation-feed-vs-batch", out)
}

// BenchmarkAblationDedupStrategies: cert/key vs network vs MAC host
// counting.
func BenchmarkAblationDedupStrategies(b *testing.B) {
	s := sharedSuite(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.AblationDedup(s)
	}
	b.StopTimer()
	reportOnce(b, "ablation-dedup", out)
}

// BenchmarkAblationNetspeed: capture share vs configured weight.
func BenchmarkAblationNetspeed(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.AblationNetspeed(uint64(3000 + i))
	}
	b.StopTimer()
	reportOnce(b, "ablation-netspeed", out)
}

// BenchmarkAblationTitleThreshold: Levenshtein grouping threshold
// sweep.
func BenchmarkAblationTitleThreshold(b *testing.B) {
	s := sharedSuite(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.AblationTitleThreshold(s)
	}
	b.StopTimer()
	reportOnce(b, "ablation-title-threshold", out)
}

// reportOnce prints a rendered table once per bench run when verbose
// reproduction output is requested via NTPSCAN_PRINT=1.
var reported sync.Map

func reportOnce(b *testing.B, key, out string) {
	if os.Getenv("NTPSCAN_PRINT") == "" {
		return
	}
	if _, dup := reported.LoadOrStore(key, true); dup {
		return
	}
	fmt.Printf("\n--- %s (%s) ---\n%s\n", key, b.Name(), out)
}

// BenchmarkFigure5SSHByNetwork regenerates Figure 5 (Appendix C).
func BenchmarkFigure5SSHByNetwork(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Figure5(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.StopTimer()
	reportOnce(b, "figure5", s.Figure5())
}

// BenchmarkFigure6AccessByNetwork regenerates Figure 6 (Appendix C).
func BenchmarkFigure6AccessByNetwork(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.Figure6(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.StopTimer()
	reportOnce(b, "figure6", s.Figure6())
}

// BenchmarkExtensionTargetGen runs the §6 future-work experiment:
// target generation trained on each source.
func BenchmarkExtensionTargetGen(b *testing.B) {
	s := sharedSuite(b)
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = experiments.ExtensionTargetGen(s, 1000)
	}
	b.StopTimer()
	reportOnce(b, "extension-targetgen", out)
}
