package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ntpscan/internal/analysis"
	"ntpscan/internal/chaos"
	"ntpscan/internal/core"
	"ntpscan/internal/experiments"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// tinyOpts is a world small enough for a campaign per test; tinyFlags
// says the same thing to analyze.
var (
	tinyOpts  = experiments.Options{Seed: 7, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02, Workers: 4, CaptureBudget: 1500}
	tinyFlags = []string{"-seed", "7", "-device-scale", "1e-3", "-addr-scale", "1e-6", "-as-scale", "0.02"}
)

// tinyPipeline is a campaign pipeline over the same world.
func tinyPipeline() *core.Pipeline {
	return core.NewPipeline(core.Config{
		Seed:          tinyOpts.Seed,
		World:         world.Config{DeviceScale: tinyOpts.DeviceScale, AddrScale: tinyOpts.AddrScale, ASScale: tinyOpts.ASScale},
		Workers:       tinyOpts.Workers,
		CaptureBudget: tinyOpts.CaptureBudget,
	})
}

// analyze runs the command and returns its exit code and both streams.
func analyze(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(append(append([]string{}, tinyFlags...), args...), &o, &e)
	return code, o.String(), e.String()
}

// TestAnalyzeRendersWhatExperimentsRenders is the offline half against
// the online one: a suite run with a store attached, its hitlist scan
// saved as JSONL. analyze over the saved results — the NTP side read
// from the store directory and from the store's JSONL export — must
// print the suite's header and, byte for byte, every scan-side section
// the in-memory suite prints.
func TestAnalyzeRendersWhatExperimentsRenders(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOpts
	opts.StoreDir = filepath.Join(dir, "ntp.store")
	s := experiments.Run(opts)
	if s.Err != nil {
		t.Fatal(s.Err)
	}

	writeFile := func(name string, fill func(w io.Writer) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		err = fill(w)
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	hitPath := writeFile("hitlist.jsonl", func(w io.Writer) error {
		var line []byte
		for _, r := range s.Hitlist.Results {
			var err error
			if line, err = r.AppendJSON(line[:0]); err != nil {
				return err
			}
			if _, err = w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
	exportPath := writeFile("ntp.jsonl", func(w io.Writer) error {
		st, err := store.Open(opts.StoreDir, store.Options{})
		if err != nil {
			return err
		}
		return st.ExportJSONL(w, store.Pred{})
	})

	all := s.All()
	cut := func(marker string) int {
		i := strings.Index(all, marker)
		if i < 0 {
			t.Fatalf("suite output has no %q", marker)
		}
		return i
	}
	want := all[:cut("== Table 1 ==")] + all[cut("== Table 2 =="):cut("== Table 4 (Appendix B) ==")]
	if !strings.Contains(want, "Tables 8/9") || strings.Contains(want, "Figure 1") {
		t.Fatalf("scan-side block cut wrong:\n%s", want)
	}
	if resp, _, _ := analysis.HitRate(s.NTP); resp == 0 {
		t.Fatal("no target answered: the tables are empty and prove nothing")
	}

	// Each input is also analyze's repeat gate: the same bytes on every
	// run, at one processor and at all of them.
	for _, ntpPath := range []string{opts.StoreDir, exportPath} {
		stdout := chaos.SameEveryRun(t, func() string {
			code, stdout, stderr := analyze("-ntp", ntpPath, "-hitlist", hitPath)
			if code != 0 {
				t.Fatalf("-ntp %s: exit %d (stderr: %s)", ntpPath, code, stderr)
			}
			return stdout
		})
		if stdout != want {
			t.Errorf("-ntp %s printed\n%s\nthe suite printed\n%s", ntpPath, stdout, want)
		}
	}

	// No -hitlist is the same renderer over an empty hitlist dataset.
	code, stdout, stderr := analyze("-ntp", exportPath)
	if code != 0 {
		t.Fatalf("without -hitlist: exit %d (stderr: %s)", code, stderr)
	}
	s.Hitlist = analysis.NewDataset("hitlist", nil)
	if all = s.All(); !strings.Contains(all, stdout[strings.Index(stdout, "== Table 2 =="):]) {
		t.Errorf("without -hitlist printed\n%s\nnot the suite's sections over an empty hitlist", stdout)
	}
}

func TestAnalyzeRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-hitlist", "hitlist.jsonl"},
		{"-no-such-flag"},
		{"-ntp", "x.jsonl", "-seed", "minus one"},
		{"-ntp", "x.jsonl", "-device-scale", "-0.5"},
	} {
		if code, stdout, _ := analyze(args...); code != 2 || stdout != "" {
			t.Errorf("analyze %v: exit %d, stdout %q; want exit 2 and nothing printed", args, code, stdout)
		}
	}
	// Inputs that cannot be read are failures, not usage errors: exit 1
	// naming the path, and no table from the rows before the bad one.
	dir := t.TempDir()
	garbled := filepath.Join(dir, "garbled.jsonl")
	if err := os.WriteFile(garbled, []byte("{\"ip\":\"2001:db8::1\",\"module\":\"http\"}\n{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.jsonl"), garbled} {
		if code, stdout, stderr := analyze("-ntp", path); code != 1 || stdout != "" || !strings.Contains(stderr, path) {
			t.Errorf("analyze -ntp %s: exit %d, stdout %q, stderr %q; want exit 1 naming the file", path, code, stdout, stderr)
		}
	}
}

// A store segment whose footer rots after it was sealed fails at
// store.Open, which parses every live segment's footer. analyze must
// stop with the store's error and render no tables. (The manifest's
// whole-file checksum is recomputed over the rotten bytes: store.Open
// is the writer's crash recovery and would otherwise drop the segment
// as a torn write.)
func TestAnalyzeReportsCorruptStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tinyPipeline().RunCampaign(context.Background(), core.CampaignOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := analyze("-ntp", dir); code != 0 {
		t.Fatalf("intact store: exit %d (stderr: %s)", code, stderr)
	}

	man := st.Manifest()
	seg := &man.Segments[len(man.Segments)-1]
	path := filepath.Join(dir, seg.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xff // inside the footer checksum
	seg.CRC32 = crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	blob, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := analyze("-ntp", dir)
	if code != 1 || stdout != "" || !strings.Contains(stderr, "store: segment "+seg.Name) {
		t.Fatalf("rotten segment %s: exit %d, stdout %d bytes, stderr %q; want exit 1 with the store's error and no tables",
			seg.Name, code, len(stdout), stderr)
	}
}

// analyze is the result encoder's one consumer outside the process: it
// reads back the JSONL the campaign's sink wrote (Result.AppendJSON,
// decoded by encoding/json) or the store directory (envelope columns
// plus the Result.AppendGrabs value). One small campaign written both
// ways must load to the same rows and the same Table 2 — the table the
// campaign's own in-memory dataset gives.
func TestLoadDatasetJSONLAndStoreAgree(t *testing.T) {
	dir := t.TempDir()
	jsonlPath, storeDir := filepath.Join(dir, "ntp.jsonl"), filepath.Join(dir, "ntp.store")

	f, err := os.Create(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	out := bufio.NewWriter(f)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := tinyPipeline().RunCampaign(context.Background(), core.CampaignOpts{Out: out, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fromJSONL, err := loadDataset("ntp", jsonlPath, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := loadDataset("ntp", storeDir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mem.Results); n == 0 || len(fromJSONL.Results) != n || len(fromStore.Results) != n {
		t.Fatalf("rows: campaign %d, JSONL %d, store %d", n, len(fromJSONL.Results), len(fromStore.Results))
	}
	want := analysis.Table2(mem)
	successes := 0
	for _, row := range want {
		successes += row.Addrs
	}
	if successes == 0 {
		t.Fatal("campaign had no successful grab: Table 2 is empty and proves nothing")
	}
	if got := analysis.Table2(fromJSONL); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 2 from JSONL %+v, from the campaign %+v", got, want)
	}
	if got := analysis.Table2(fromStore); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 2 from the store %+v, from the campaign %+v", got, want)
	}

	if _, err := loadDataset("ntp", filepath.Join(dir, "missing.jsonl"), io.Discard); err == nil {
		t.Error("a missing input loaded")
	}
}
