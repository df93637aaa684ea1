// Command poolsim runs the NTP Pool collection simulation: deploy the
// eleven vantage servers, tune netspeed, collect client addresses for
// the four-week window, and stream every distinct captured address to
// stdout (one per line), followed by a per-server summary on stderr.
//
// Usage:
//
//	poolsim [-seed N] [-addr-scale F] [-device-scale F] [-summary-only]
//
// The streamed list is exactly what the paper warns against treating as
// a hitlist (it goes stale immediately); pipe it into v6scan -targets -
// to see why.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"

	"ntpscan/internal/core"
	"ntpscan/internal/tabulate"
	"ntpscan/internal/world"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("poolsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 20240720, "experiment seed")
		addrScale   = fs.Float64("addr-scale", 6e-6, "address-only population scale")
		deviceScale = fs.Float64("device-scale", 3e-3, "responsive population scale")
		asScale     = fs.Float64("as-scale", 0.03, "AS count scale")
		summaryOnly = fs.Bool("summary-only", false, "suppress the address stream")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := core.CheckWorldFlags(fs); err != nil {
		fmt.Fprintln(stderr, "poolsim:", err)
		return 2
	}

	p := core.NewPipeline(core.Config{
		Seed: *seed,
		World: world.Config{
			DeviceScale: *deviceScale,
			AddrScale:   *addrScale,
			ASScale:     *asScale,
		},
	})
	fmt.Fprintf(stderr, "poolsim: %d vantage servers deployed, collecting...\n", len(p.Servers))

	// A bufio.Writer keeps its first error and refuses every later
	// write, so the one Flush after the collection reports it.
	out := bufio.NewWriter(stdout)
	seen := make(map[netip.Addr]struct{})
	p.Collect(func(batch []netip.Addr) {
		for _, a := range batch {
			if _, dup := seen[a]; !dup && !*summaryOnly {
				seen[a] = struct{}{}
				fmt.Fprintln(out, a)
			}
		}
	})
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "poolsim: write addresses:", err)
		return 1
	}

	st := p.Summary.Stats()
	t := tabulate.New("collection summary", "metric", "value").
		SetAligns(tabulate.Left, tabulate.Right)
	t.Cells("capture events", tabulate.Count(p.Captures))
	t.Cells("distinct addresses", tabulate.Count(st.Addrs))
	t.Cells("/48 networks", tabulate.Count(st.Nets48))
	t.Cells("ASes", tabulate.Count(st.ASes))
	fmt.Fprint(stderr, t.String())

	per := tabulate.New("addresses per vantage server", "location", "#addresses").
		SetAligns(tabulate.Left, tabulate.Right)
	for _, row := range p.PerCountrySorted() {
		per.Cells(row.Country, tabulate.Count(row.Addrs))
	}
	fmt.Fprint(stderr, per.String())
	return 0
}
