// Command telescope runs the §5 scanner-detection experiment: query
// pool servers from distinct source addresses in a monitored prefix,
// capture everything arriving there, and attribute inbound scans to the
// NTP queries that leaked the addresses.
//
// Usage:
//
//	telescope [-seed N] [-v]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ntpscan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("telescope", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed    = fs.Uint64("seed", 7, "experiment seed")
		verbose = fs.Bool("v", false, "dump per-campaign source addresses")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	res := ntpscan.DetectScanners(*seed)
	out := bufio.NewWriter(stdout)
	fmt.Fprint(out, res.Rendered)

	if *verbose {
		for _, c := range res.Report.Campaigns {
			fmt.Fprintf(out, "campaign %s sources:\n", c.SourceNet)
			for _, s := range c.Sources {
				fmt.Fprintf(out, "  %s\n", s)
			}
		}
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "telescope: write report:", err)
		return 1
	}
	if res.Report.ScatterPackets > 0 {
		fmt.Fprintf(stderr,
			"warning: %d packets hit never-queried addresses (random scanning in the area)\n",
			res.Report.ScatterPackets)
	}
	return 0
}
