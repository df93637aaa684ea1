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

// analyze only reads a store directory: it opens it with
// store.OpenReadOnly, which checks every manifest entry and repairs
// nothing. Damage — a footer that rots after sealing (its whole-file
// checksum recomputed, so no crash explains it), one flipped body byte
// in a middle segment, a garbled MANIFEST.json, a directory that is not
// there — stops analyze with exit 1, no tables, and an error naming the
// segment or file, and leaves the directory byte for byte as it was
// (and a missing one missing). A listed segment a crash left only under
// its .retired name is read there: analyze prints the intact store's
// tables, and renames nothing back.
func TestAnalyzeReportsCorruptStore(t *testing.T) {
	intact := t.TempDir()
	st, err := store.Open(intact, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tinyPipeline().RunCampaign(context.Background(), core.CampaignOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	code, want, stderr := analyze("-ntp", intact)
	if code != 0 {
		t.Fatalf("intact store: exit %d (stderr: %s)", code, stderr)
	}
	man := st.Manifest()
	last, middle := man.Segments[len(man.Segments)-1].Name, man.Segments[len(man.Segments)/2].Name

	// edit rewrites one file of dir.
	edit := func(t *testing.T, dir, name string, fn func([]byte) []byte) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string) (path string)
		want   string // in stderr; "" means analyze must succeed
	}{
		{"footer-rot", func(t *testing.T, dir string) string {
			m := st.Manifest()
			seg := &m.Segments[len(m.Segments)-1]
			edit(t, dir, seg.Name, func(b []byte) []byte {
				b[len(b)-6] ^= 0xff // inside the footer checksum
				seg.CRC32 = crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
				return b
			})
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			edit(t, dir, "MANIFEST.json", func([]byte) []byte { return blob })
			return dir
		}, "store: segment " + last},
		{"body-byte", func(t *testing.T, dir string) string {
			edit(t, dir, middle, func(b []byte) []byte { b[20] ^= 0xff; return b }) // inside the first block
			return dir
		}, "store: segment " + middle},
		{"garbled-manifest", func(t *testing.T, dir string) string {
			edit(t, dir, "MANIFEST.json", func(b []byte) []byte { b[0] = '#'; return b })
			return dir
		}, "MANIFEST.json"},
		{"missing-dir", func(t *testing.T, dir string) string {
			return filepath.Join(dir, "nodir")
		}, "nodir"},
		{"retired-only", func(t *testing.T, dir string) string {
			path := filepath.Join(dir, middle)
			if err := os.Rename(path, path+".retired"); err != nil {
				t.Fatal(err)
			}
			return dir
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(intact)); err != nil {
				t.Fatal(err)
			}
			path := tc.damage(t, dir)
			var digest string
			if path == dir {
				digest = store.DirDigest(t, dir)
			}
			code, stdout, stderr := analyze("-ntp", path)
			switch {
			case tc.want == "" && (code != 0 || stdout != want):
				t.Errorf("exit %d, stdout %d bytes (intact: %d), stderr %q; want the intact store's tables", code, len(stdout), len(want), stderr)
			case tc.want != "" && (code != 1 || stdout != "" || !strings.Contains(stderr, tc.want)):
				t.Errorf("exit %d, stdout %d bytes, stderr %q; want exit 1, no tables, an error naming %s", code, len(stdout), stderr, tc.want)
			}
			if path != dir {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("analyze created %s (%v)", path, err)
				}
			} else if store.DirDigest(t, dir) != digest {
				t.Error("analyze changed the store directory")
			}
		})
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
