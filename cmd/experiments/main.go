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
	"io"
	"net/url"
	"os"
	"strings"

	"ntpscan"
	"ntpscan/internal/core"
	"ntpscan/internal/experiments"
	"ntpscan/internal/netsim/link"
	"ntpscan/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 20240720, "experiment seed")
		deviceScale = fs.Float64("device-scale", 3e-3, "scan-responsive population scale")
		addrScale   = fs.Float64("addr-scale", 6e-6, "address-only population scale")
		asScale     = fs.Float64("as-scale", 0.03, "AS count scale")
		workers     = fs.Int("workers", 64, "scan worker pool size")
		nodes       = fs.Int("nodes", 1, "run the NTP campaign through a fault-tolerant cluster of N nodes (coordinator + shard leases; output is byte-identical at any N)")
		clusterURL  = fs.String("cluster", "", "multi-process node mode: clusterd base URL (http://addr); pair with -node and -nodes")
		nodeID      = fs.Int("node", 0, "this process's node index under -cluster (0-based)")
		collectOnly = fs.Bool("collect-only", false, "collection tables only (fast)")
		ablations   = fs.Bool("ablations", false, "also run the ablation experiments")
		out         = fs.String("out", "", "write output to file instead of stdout")
		storeDir    = fs.String("store", "", "persist campaign results to a columnar store DIR (readable by cmd/analyze)")
		metricsOut  = fs.String("metrics", "", "write the campaign's Prometheus-format metrics to FILE at exit")
		linkPlan    = fs.String("linkplan", "", "run the campaign behind the queued-link emulation described by this JSON plan FILE (see internal/netsim/link)")
		ladder      = fs.Bool("congestion-ladder", false, "run only the congestion ladder: the collection campaign at increasing link utilization")
	)
	profCfg := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err any) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return code
	}
	if err := core.CheckWorldFlags(fs); err != nil {
		return fail(2, err)
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
	if *collectOnly && *clusterURL != "" {
		return fail(2, "-cluster needs the scan campaign (drop -collect-only)")
	}
	if *clusterURL != "" {
		// A replica that cannot reach its coordinator retries for over a
		// minute and then prints a campaign it took no part in: refuse
		// what can never connect before building a world.
		u, err := url.Parse(*clusterURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fail(2, fmt.Sprintf("-cluster %q is not an http(s)://host[:port] URL", *clusterURL))
		}
		if *nodeID < 0 || *nodeID >= *nodes {
			return fail(2, fmt.Sprintf("-node %d is outside [0, -nodes %d)", *nodeID, *nodes))
		}
	}
	if *collectOnly && *storeDir != "" {
		return fail(2, "-store needs the scan campaign (drop -collect-only)")
	}
	if *linkPlan != "" {
		blob, err := os.ReadFile(*linkPlan)
		if err != nil {
			return fail(2, err)
		}
		if opts.LinkPlan, err = link.Decode(blob); err != nil {
			return fail(2, fmt.Sprintf("%s: %v", *linkPlan, err))
		}
	}

	// render is everything the profiles cover.
	render := func() (string, error) {
		if *ladder {
			fmt.Fprintln(stderr, "running congestion ladder (collection at increasing link utilization)...")
			return experiments.CongestionLadder(*seed), nil
		}
		var suite *ntpscan.Suite
		if *collectOnly {
			fmt.Fprintln(stderr, "running collection phases...")
			suite = ntpscan.CollectExperiments(opts)
		} else {
			fmt.Fprintln(stderr, "running full campaign (collection, real-time scan, hitlist, R&L era)...")
			suite = ntpscan.RunExperiments(opts)
		}
		if suite.Err != nil {
			return "", suite.Err
		}
		if *storeDir != "" {
			fmt.Fprintln(stderr, "wrote campaign store to", *storeDir)
		}
		var b strings.Builder
		b.WriteString(suite.All())

		if !*collectOnly {
			fmt.Fprintln(stderr, "running telescope experiment (§5)...")
			b.WriteString(ntpscan.DetectScanners(*seed).Rendered)
		}
		if *ablations && !*collectOnly {
			fmt.Fprintln(stderr, "running ablations and extensions...")
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
				return "", err
			}
			fmt.Fprintln(stderr, "wrote metrics to", *metricsOut)
		}
		return b.String(), nil
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		return fail(1, err)
	}
	text, err := render()
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(stderr, "experiments:", perr)
	}
	if err != nil {
		return fail(1, err)
	}
	if *out == "" {
		fmt.Fprint(stdout, text)
		return 0
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		return fail(1, err)
	}
	fmt.Fprintln(stderr, "wrote", *out)
	return 0
}
