// Command analyze is the offline half of cmd/experiments: it renders
// the scan-side tables and figures (Tables 2, 3, 5, 6, 8, Figures 2, 3,
// 5, 6, the §4.4 headline, §6 key reuse) from saved scan results,
// through the same renderers, without re-running any scans:
//
//	poolsim -seed 7 | v6scan -seed 7 -targets -  > ntp.jsonl
//	v6scan -seed 7 -hitlist                      > hitlist.jsonl
//	analyze -seed 7 -ntp ntp.jsonl -hitlist hitlist.jsonl
//
// An input path may be a JSONL file (decoded as a stream — no slurp)
// or a columnar store directory (read through the query engine, which
// skips non-result blocks outright; the pruning stats land on stderr).
// A store directory is opened read-only (store.OpenReadOnly), so
// analyze changes nothing in it and may read one a campaign is still
// filling; a MANIFEST.json that does not parse, or a segment that fails
// its size, checksum or footer, stops it with exit 1 naming each.
// Without -hitlist the hitlist columns are those of an empty dataset.
// The seed regenerates the world's registries (AS, geolocation, OUI)
// so addresses resolve; it must match the seed the scans ran under.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ntpscan/internal/analysis"
	"ntpscan/internal/core"
	"ntpscan/internal/experiments"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 20240720, "world seed the scans ran under")
		deviceScale = fs.Float64("device-scale", 3e-3, "must match the scan run")
		addrScale   = fs.Float64("addr-scale", 6e-6, "must match the scan run")
		asScale     = fs.Float64("as-scale", 0.03, "must match the scan run")
		ntpPath     = fs.String("ntp", "", "results of the NTP-sourced scan: JSONL file or store directory")
		hitPath     = fs.String("hitlist", "", "results of the hitlist scan: JSONL file or store directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := core.CheckWorldFlags(fs); err != nil {
		fmt.Fprintln(stderr, "analyze:", err)
		return 2
	}
	if *ntpPath == "" {
		fmt.Fprintln(stderr, "analyze: need -ntp PATH (and optionally -hitlist PATH)")
		return 2
	}

	s := &experiments.Suite{
		Opts:    experiments.Options{Seed: *seed, DeviceScale: *deviceScale, AddrScale: *addrScale, ASScale: *asScale},
		Hitlist: analysis.NewDataset("hitlist", nil),
	}
	var err error
	if s.NTP, err = loadDataset("ntp", *ntpPath, stderr); err == nil && *hitPath != "" {
		s.Hitlist, err = loadDataset("hitlist", *hitPath, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "analyze:", err)
		return 1
	}
	w := world.New(world.Config{
		Seed: *seed, DeviceScale: *deviceScale, AddrScale: *addrScale, ASScale: *asScale,
	})
	s.Ctx = &analysis.Context{AS: w.ASReg, Geo: w.Geo, OUI: w.OUIReg}
	fmt.Fprint(stdout, s.All())
	return 0
}

// loadDataset reads one scan's results into a dataset, from a JSONL
// file or a columnar store directory.
func loadDataset(name, path string, stderr io.Writer) (*analysis.Dataset, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	d := analysis.NewDataset(name, nil)
	if fi.IsDir() {
		if err := addStoreResults(d, path, stderr); err != nil {
			return nil, err
		}
		return d, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	err = zgrab.DecodeJSONL(bufio.NewReaderSize(f, 1<<20), func(r *zgrab.Result) error {
		d.Add(r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// addStoreResults adds every result row of the store directory to d.
// The result-kind predicate pushes down to the footer index, so capture
// blocks are skipped without being read; the scan stats quantify it.
func addStoreResults(d *analysis.Dataset, dir string, stderr io.Writer) error {
	st, err := store.OpenReadOnly(dir, store.Options{})
	if err != nil {
		return err
	}
	it := st.Scan(store.Pred{Kind: store.KindResults})
	defer it.Close()
	for it.Next() {
		d.Add(it.Row().Result)
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	s := it.Stats()
	fmt.Fprintf(stderr,
		"analyze: %s: %d segments, read %d blocks (%d bytes), skipped %d blocks (%d bytes) via index pruning\n",
		dir, s.Segments, s.BlocksRead, s.BytesRead, s.BlocksSkipped, s.BytesSkipped)
	return nil
}
