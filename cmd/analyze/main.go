// Command analyze turns saved scan results into the paper's analysis
// tables without re-running any scans:
//
//	poolsim -seed 7 | v6scan -seed 7 -targets -  > ntp.jsonl
//	v6scan -seed 7 -hitlist                      > hitlist.jsonl
//	analyze -seed 7 -ntp ntp.jsonl -hitlist hitlist.jsonl
//
// An input path may be a JSONL file (decoded as a stream — no slurp)
// or a columnar store directory (read through the query engine, which
// skips non-result blocks outright; the pruning stats land on stderr).
// The seed regenerates the world's registries (AS, geolocation, OUI)
// so addresses resolve; it must match the seed the scans ran under.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"ntpscan/internal/analysis"
	"ntpscan/internal/store"
	"ntpscan/internal/tabulate"
	"ntpscan/internal/world"
	"ntpscan/internal/zgrab"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 20240720, "world seed the scans ran under")
		deviceScale = flag.Float64("device-scale", 3e-3, "must match the scan run")
		addrScale   = flag.Float64("addr-scale", 6e-6, "must match the scan run")
		asScale     = flag.Float64("as-scale", 0.03, "must match the scan run")
		ntpPath     = flag.String("ntp", "", "JSONL results of the NTP-sourced scan")
		hitPath     = flag.String("hitlist", "", "JSONL results of the hitlist scan")
	)
	flag.Parse()
	if *ntpPath == "" {
		fmt.Fprintln(os.Stderr, "analyze: need -ntp FILE (and optionally -hitlist FILE)")
		os.Exit(2)
	}

	w := world.New(world.Config{
		Seed: *seed, DeviceScale: *deviceScale, AddrScale: *addrScale, ASScale: *asScale,
	})
	ctx := &analysis.Context{AS: w.ASReg, Geo: w.Geo, OUI: w.OUIReg}

	ntp, err := loadDataset("ntp", *ntpPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	datasets := []*analysis.Dataset{ntp}
	names := []string{"NTP-sourced"}
	if *hitPath != "" {
		hit, err := loadDataset("hitlist", *hitPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		datasets = append(datasets, hit)
		names = append(names, "Hitlist")
	}

	// Table 2.
	t2 := tabulate.New("Successful scans by protocol",
		append([]string{"Protocol"}, expand(names, "#Addrs", "Certs/Keys")...)...)
	rowsPer := make([][]analysis.Table2Row, len(datasets))
	for i, d := range datasets {
		rowsPer[i] = analysis.Table2(d)
	}
	for ri := range rowsPer[0] {
		cells := []string{rowsPer[0][ri].Protocol}
		for i := range datasets {
			cells = append(cells,
				tabulate.Count(rowsPer[i][ri].Addrs),
				tabulate.Count(rowsPer[i][ri].CertsKeys))
		}
		t2.Cells(cells...)
	}
	fmt.Print(t2.String())
	fmt.Println()

	// Device types.
	for i, d := range datasets {
		tt := tabulate.New("Title groups ("+names[i]+")", "Group", "#Certs").
			SetAligns(tabulate.Left, tabulate.Right)
		for gi, g := range analysis.TitleGroups(d) {
			if gi >= 12 {
				break
			}
			tt.Cells(g.Representative, tabulate.Count(g.Certs))
		}
		fmt.Print(tt.String())
		fmt.Println()
	}

	// Security.
	patch := analysis.SSHOutdated(datasets...)
	ts := tabulate.New("SSH patch state", "Dataset", "Assessable", "Outdated", "Share").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	for i := range datasets {
		ts.Cells(names[i], tabulate.Count(patch[i].Assessable),
			tabulate.Count(patch[i].Outdated), tabulate.Pct(patch[i].OutdatedShare()))
	}
	fmt.Print(ts.String())
	fmt.Println()

	shares := analysis.SecureShares(datasets...)
	th := tabulate.New("Secure share (SSH + IoT hosts)", "Dataset", "Hosts", "Secure", "Share").
		SetAligns(tabulate.Left, tabulate.Right, tabulate.Right, tabulate.Right)
	for i := range datasets {
		th.Cells(names[i], tabulate.Count(shares[i].Hosts),
			tabulate.Count(shares[i].Secure), tabulate.Pct(shares[i].Share()))
	}
	fmt.Print(th.String())

	kr := analysis.KeyReuse(ctx, ntp)
	fmt.Printf("\nkey reuse (NTP): %d reused keys over %d addresses (top key: %d addrs, %d ASes)\n",
		kr.ReusedKeys, kr.ReusedIPs, kr.TopKeyIPs, kr.TopKeyASes)
}

func loadDataset(name, path string) (*analysis.Dataset, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return loadStoreDataset(name, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	d := analysis.NewDataset(name, nil)
	if err := zgrab.DecodeJSONL(br, func(r *zgrab.Result) error {
		d.Add(r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// loadStoreDataset streams result rows out of a columnar store
// directory. The result-kind predicate pushes down to the footer
// index, so capture blocks are skipped without being read; the scan
// stats quantify it.
func loadStoreDataset(name, dir string) (*analysis.Dataset, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	next, stats := st.Results(store.Pred{})
	d, err := analysis.NewDatasetStream(name, next)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	s := stats()
	fmt.Fprintf(os.Stderr,
		"analyze: %s: %d segments, read %d blocks (%d bytes), skipped %d blocks (%d bytes) via index pruning\n",
		dir, s.Segments, s.BlocksRead, s.BytesRead, s.BlocksSkipped, s.BytesSkipped)
	return d, nil
}

func expand(names []string, cols ...string) []string {
	var out []string
	for _, n := range names {
		for _, c := range cols {
			out = append(out, n+" "+c)
		}
	}
	return out
}
