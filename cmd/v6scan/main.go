// Command v6scan is the zgrab2-style application-layer scanner. It
// scans IPv6 targets with the paper's module set (HTTP, HTTPS, SSH,
// MQTT, MQTTS, AMQP, AMQPS, CoAP) and writes one JSON result per probe
// to stdout.
//
// It is a flag parser in front of core.ScanBatch, the batch scan the
// pipeline's hitlist scan uses: the flags build one zgrab.Config, and
// the results come back in submission order — targets are sorted, so
// stdout is a function of the input at any -workers — written once the
// scan has drained.
//
// By default targets live in the simulated world, regenerated from the
// seed so a target list produced by poolsim with the same seed hits the
// same hosts:
//
//	poolsim -seed 7 | v6scan -seed 7 -targets -
//	v6scan -seed 7 -hitlist
//
// With -real the scanner uses kernel sockets instead and probes actual
// hosts (only scan infrastructure you operate; see the paper's
// Appendix A):
//
//	v6scan -real -targets targets.txt -modules http,ssh -ports ssh=2222
//
// -store DIR additionally persists the results to a columnar store
// directory that cmd/analyze reads directly:
//
//	v6scan -seed 7 -hitlist -store scan.store && analyze -ntp scan.store
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ntpscan/internal/core"
	"ntpscan/internal/hitlist"
	"ntpscan/internal/obs"
	"ntpscan/internal/prof"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("v6scan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 20240720, "world seed (must match the target source)")
		deviceScale = fs.Float64("device-scale", 3e-3, "responsive population scale")
		addrScale   = fs.Float64("addr-scale", 6e-6, "address-only population scale")
		asScale     = fs.Float64("as-scale", 0.03, "AS count scale")
		targets     = fs.String("targets", "", "target file, '-' for stdin")
		useHitlist  = fs.Bool("hitlist", false, "build and scan the TUM-style hitlist")
		workers     = fs.Int("workers", 64, "worker pool size")
		rate        = fs.Float64("rate", 0, "probe rate limit in pps (0 = unlimited)")
		modules     = fs.String("modules", "", "comma-separated module subset (default: all)")
		real        = fs.Bool("real", false, "scan real networks with kernel sockets instead of the simulation")
		ports       = fs.String("ports", "", "port overrides, e.g. http=8080,ssh=2222")
		storeDir    = fs.String("store", "", "also persist results to a columnar store DIR (readable by cmd/analyze)")
		metricsOut  = fs.String("metrics", "", "write Prometheus-format metrics to FILE at exit")
	)
	profCfg := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err any) int {
		fmt.Fprintln(stderr, "v6scan:", err)
		return code
	}
	if err := core.CheckWorldFlags(fs); err != nil {
		return fail(2, err)
	}
	if !*useHitlist && *targets == "" {
		return fail(2, "need -targets FILE or -hitlist")
	}
	if *real && *useHitlist {
		return fail(2, "-hitlist requires the simulation (drop -real)")
	}
	overrides, err := parsePorts(*ports)
	if err != nil {
		return fail(2, err)
	}
	var mods []zgrab.Module
	if *modules != "" {
		if mods, err = zgrab.ModulesByName(strings.Split(*modules, ",")); err != nil {
			return fail(2, err)
		}
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		return fail(1, err)
	}

	// The scanner assembly: under -real a bare kernel-socket one with
	// its own registry, in simulation the pipeline's (so collection
	// metrics land in the same exposition).
	var cfg zgrab.Config
	var p *core.Pipeline
	if *real {
		cfg = zgrab.Config{
			Net:     zgrab.NewRealNet(),
			Source:  core.ScanSource,
			Obs:     obs.NewRegistry(),
			Workers: *workers,
			Timeout: 3 * time.Second,
		}
	} else {
		p = core.NewPipeline(core.Config{
			Seed: *seed,
			World: world.Config{
				DeviceScale: *deviceScale,
				AddrScale:   *addrScale,
				ASScale:     *asScale,
			},
			Workers: *workers,
		})
		// Reconstruct the world at the end of the collection window:
		// static deployments plus every dynamic device at its final
		// address. Targets captured in earlier epochs have churned and
		// stay dark — exactly the staleness §6 warns saved lists suffer
		// from.
		p.W.RegisterAllAt(p.W.Cfg.Start.Add(world.CollectionWindow))
		cfg = p.ScanConfig()
	}
	cfg.Modules = mods
	cfg.PortOverrides = overrides
	if *rate > 0 {
		cfg.Limiter = zgrab.NewTokenBucket(*rate, *rate/10+1)
	}

	var list []netip.Addr
	if *useHitlist {
		h := p.BuildHitlist(hitlist.Config{})
		list = h.Full
		fmt.Fprintf(stderr, "v6scan: hitlist with %d targets\n", len(list))
	} else {
		list, err = readTargets(*targets, stdin)
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stderr, "v6scan: %d targets\n", len(list))
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.Options{Obs: cfg.Obs})
		if err != nil {
			return fail(1, err)
		}
	}

	rows, err := core.ScanBatch(context.Background(), cfg, list, stdout)
	if err != nil {
		return fail(1, fmt.Errorf("write results: %w", err))
	}
	if st != nil {
		err := st.AppendResults(rows)
		if err == nil {
			err = st.Seal()
		}
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stderr, "v6scan: wrote store to", *storeDir)
	}
	if *metricsOut != "" {
		if err := writeMetrics(cfg.Obs, *metricsOut); err != nil {
			return fail(1, err)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "v6scan:", err)
	}
	fmt.Fprintf(stderr, "v6scan: wrote %d results\n", len(rows))
	return 0
}

func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parsePorts(spec string) (map[string]uint16, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]uint16{}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad port override %q (want module=port)", kv)
		}
		port, err := strconv.ParseUint(val, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad port in %q: %v", kv, err)
		}
		out[name] = uint16(port)
	}
	return out, nil
}

func readTargets(path string, stdin io.Reader) ([]netip.Addr, error) {
	in := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	var out []netip.Addr
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		a, err := netip.ParseAddr(line)
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %v", line, err)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, sc.Err()
}
