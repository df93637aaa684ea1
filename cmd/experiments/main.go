// Command experiments regenerates every table and figure of the paper's
// evaluation from one simulated measurement campaign.
//
// Usage:
//
//	experiments [-seed N] [-device-scale F] [-addr-scale F] [-as-scale F]
//	            [-collect-only] [-ablations] [-linkplan FILE]
//	            [-congestion-ladder] [-out FILE]
//
// The output is the complete rendered evaluation; EXPERIMENTS.md embeds
// a run of this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ntpscan"
	"ntpscan/internal/experiments"
	"ntpscan/internal/netsim/link"
	"ntpscan/internal/prof"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 20240720, "experiment seed")
		deviceScale = flag.Float64("device-scale", 3e-3, "scan-responsive population scale")
		addrScale   = flag.Float64("addr-scale", 6e-6, "address-only population scale")
		asScale     = flag.Float64("as-scale", 0.03, "AS count scale")
		workers     = flag.Int("workers", 64, "scan worker pool size")
		nodes       = flag.Int("nodes", 1, "run the NTP campaign through a fault-tolerant cluster of N nodes (coordinator + shard leases; output is byte-identical at any N)")
		clusterURL  = flag.String("cluster", "", "multi-process node mode: clusterd base URL (http://addr); pair with -node and -nodes")
		nodeID      = flag.Int("node", 0, "this process's node index under -cluster (0-based)")
		collectOnly = flag.Bool("collect-only", false, "collection tables only (fast)")
		ablations   = flag.Bool("ablations", false, "also run the ablation experiments")
		out         = flag.String("out", "", "write output to file instead of stdout")
		storeDir    = flag.String("store", "", "persist campaign results to a columnar store DIR (readable by cmd/analyze)")
		metricsOut  = flag.String("metrics", "", "write the campaign's Prometheus-format metrics to FILE at exit")
		linkPlan    = flag.String("linkplan", "", "run the campaign behind the queued-link emulation described by this JSON plan FILE (see internal/netsim/link)")
		ladder      = flag.Bool("congestion-ladder", false, "run only the congestion ladder: the collection campaign at increasing link utilization")
	)
	profCfg := prof.Flags(nil)
	flag.Parse()
	stopProf, err := profCfg.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	opts := ntpscan.Options{
		Seed:        *seed,
		DeviceScale: *deviceScale,
		AddrScale:   *addrScale,
		ASScale:     *asScale,
		Workers:     *workers,
		Nodes:       *nodes,
		ClusterURL:  *clusterURL,
		NodeID:      *nodeID,
		StoreDir:    *storeDir,
	}
	if *clusterURL != "" && *collectOnly {
		fmt.Fprintln(os.Stderr, "experiments: -cluster needs the scan campaign (drop -collect-only)")
		os.Exit(2)
	}
	if *linkPlan != "" {
		blob, err := os.ReadFile(*linkPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		lp, err := link.Decode(blob)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", *linkPlan, err)
			os.Exit(1)
		}
		opts.LinkPlan = lp
	}
	if *ladder {
		fmt.Fprintln(os.Stderr, "running congestion ladder (collection at increasing link utilization)...")
		render := experiments.CongestionLadder(*seed)
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		if *out != "" {
			if err := os.WriteFile(*out, []byte(render), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "write:", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "wrote", *out)
			return
		}
		fmt.Print(render)
		return
	}

	var b strings.Builder
	var suite *ntpscan.Suite
	if *collectOnly {
		if *storeDir != "" {
			fmt.Fprintln(os.Stderr, "experiments: -store needs the scan campaign (drop -collect-only)")
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "running collection phases...")
		suite = ntpscan.CollectExperiments(opts)
	} else {
		fmt.Fprintln(os.Stderr, "running full campaign (collection, real-time scan, hitlist, R&L era)...")
		suite = ntpscan.RunExperiments(opts)
	}
	if suite.Err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", suite.Err)
		os.Exit(1)
	}
	if *storeDir != "" {
		fmt.Fprintln(os.Stderr, "wrote campaign store to", *storeDir)
	}
	b.WriteString(suite.All())

	if !*collectOnly {
		fmt.Fprintln(os.Stderr, "running telescope experiment (§5)...")
		b.WriteString(ntpscan.DetectScanners(*seed).Rendered)
	}
	if *ablations && !*collectOnly {
		fmt.Fprintln(os.Stderr, "running ablations and extensions...")
		b.WriteString(experiments.AblationDedup(suite))
		b.WriteString(experiments.AblationNetspeed(*seed))
		b.WriteString(experiments.AblationTitleThreshold(suite))
		abOpts := opts
		abOpts.DeviceScale /= 5
		b.WriteString(experiments.AblationFeedVsBatch(abOpts))
		b.WriteString(experiments.ExtensionTargetGen(suite, 2000))
		b.WriteString(experiments.ExtensionGeneratedVsLive(suite))
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = suite.P.Obs.WritePrometheus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote metrics to", *metricsOut)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *out)
		return
	}
	fmt.Print(b.String())
}
