package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/store"
)

var update = flag.Bool("update", false, "rewrite docs/measured_output.txt from this build's -ablations output")

var tinyWorld = []string{"-seed", "9", "-device-scale", "1e-3", "-addr-scale", "1e-6", "-as-scale", "0.02", "-workers", "4"}

// TestExperimentsCollectOnlySmoke drives the binary's one cheap mode
// end to end: the collection sections on stdout — the same bytes on
// every run (the repeat gate) — none of the scan-side ones, and the
// same text in the -out file.
func TestExperimentsCollectOnlySmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	text := chaos.SameEveryRun(t, func() string {
		stdout.Reset()
		if code := run(append([]string{"-collect-only"}, tinyWorld...), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
		}
		return stdout.String()
	})
	for _, want := range []string{"seed=9", "== Table 1 ==", "== Figure 1 ==", "== Table 4 (Appendix B) ==", "== Table 7 (Appendix D) =="} {
		if !strings.Contains(text, want) {
			t.Errorf("output has no %q", want)
		}
	}
	for _, not := range []string{"== Table 2 ==", "Section 5"} {
		if strings.Contains(text, not) {
			t.Errorf("-collect-only printed %q", not)
		}
	}

	outPath := filepath.Join(t.TempDir(), "out.txt")
	stdout.Reset()
	if code := run(append([]string{"-collect-only", "-out", outPath}, tinyWorld...), &stdout, &stderr); code != 0 {
		t.Fatalf("-out: exit %d (stderr: %s)", code, stderr.String())
	}
	if file, err := os.ReadFile(outPath); err != nil || string(file) != text || stdout.Len() != 0 {
		t.Errorf("-out wrote %d bytes (err %v) and %d to stdout; want the %d bytes stdout carried and nothing on it",
			len(file), err, stdout.Len(), len(text))
	}
}

// TestNodesAndStorePrintThePlainRun: routing the campaign through a
// three-node cluster, or into a columnar store, changes where the work
// runs and what is kept, never what is printed — stdout is the plain
// run's, byte for byte. The store leg runs through the repeat gate,
// each run into a fresh directory: its stdout and the sealed store's
// DirDigest must not depend on scheduling, although the store is
// written behind the scanner and each L1 is built while its window
// fills.
func TestNodesAndStorePrintThePlainRun(t *testing.T) {
	stdoutOf := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, tinyWorld...), &stdout, &stderr); code != 0 {
			t.Fatalf("experiments %v: exit %d (stderr: %s)", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain := stdoutOf()
	if !strings.Contains(plain, "== Table 2 ==") {
		t.Fatal("the plain run printed no scan-side section")
	}
	stored := chaos.SameEveryRun(t, func() string {
		dir := filepath.Join(t.TempDir(), "s.store")
		out := stdoutOf("-store", dir)
		return store.DirDigest(t, dir) + "\n" + out
	})
	stored = stored[strings.IndexByte(stored, '\n')+1:]
	for args, got := range map[string]string{"-nodes 3": stdoutOf("-nodes", "3"), "-store": stored} {
		if got != plain {
			line := 1 + strings.Count(got[:commonPrefix([]byte(got), []byte(plain))], "\n")
			t.Errorf("experiments %s printed %d bytes, the plain run %d; first difference on line %d", args, len(got), len(plain), line)
		}
	}
}

// Argument errors exit 2 before a profile file is created or a world
// is built.
func TestExperimentsRejectsBadArguments(t *testing.T) {
	dir := t.TempDir()
	garbled := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.out")
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-collect-only", "-cluster", "http://127.0.0.1:1"},
		{"-cluster", "://nope", "-nodes", "2", "-node", "0"},
		{"-cluster", "127.0.0.1:1", "-nodes", "2", "-node", "0"},
		{"-cluster", "http://127.0.0.1:1", "-nodes", "2", "-node", "2"},
		{"-collect-only", "-store", filepath.Join(dir, "s.store")},
		{"-linkplan", filepath.Join(dir, "missing.json")},
		{"-linkplan", garbled},
		{"-collect-only", "-device-scale", "-1"},
		{"-workers", "-3"},
		{"-nodes", "0"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-cpuprofile", prof}, args...), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("experiments %v: exit %d, stdout %q, stderr %q; want exit 2 and a message", args, code, stdout.String(), stderr.String())
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Errorf("rejected runs left files behind: %v (err %v)", ents, err)
	}
}

// TestAblationsPrintTheCommittedEvaluation makes the printed evaluation
// an oracle: `experiments -ablations` at the default seed and scales is
// docs/measured_output.txt byte for byte, on one CPU and on all of
// them. EXPERIMENTS.md's tables are read off that file, so a change
// that moves a number moves the document in the same commit:
//
//	go test ./cmd/experiments -run TestAblationsPrintTheCommittedEvaluation -update
func TestAblationsPrintTheCommittedEvaluation(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the default-scale evaluation takes over a minute under the race detector; the campaign's determinism has its own -race oracles")
			}
		}
	}
	const golden = "../../docs/measured_output.txt"
	want, err := os.ReadFile(golden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-ablations"}, &stdout, &stderr)
		runtime.GOMAXPROCS(prev)
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d (stderr: %s)", procs, code, stderr.String())
		}
		got := stdout.Bytes()
		if *update && procs == 1 {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			want = got
		}
		if !bytes.Equal(got, want) {
			line := 1 + bytes.Count(got[:commonPrefix(got, want)], []byte("\n"))
			t.Fatalf("GOMAXPROCS=%d: -ablations printed %d bytes, %s holds %d; first difference on line %d (rerun with -update if the change is meant)",
				procs, len(got), golden, len(want), line)
		}
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// TestCongestionLadderPrintsThisDocument holds EXPERIMENTS.md
// "Congestion ladder" to the program: the fenced block under its
// "Measured" line is what `experiments -congestion-ladder -seed 7`
// prints, byte for byte, on every run at GOMAXPROCS 1 and nproc.
func TestCongestionLadderPrintsThisDocument(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(doc), "Measured (`cmd/experiments -congestion-ladder -seed 7`")
	_, rest, fenced := strings.Cut(rest, "```\n")
	want, _, closed := strings.Cut(rest, "```")
	if !found || !fenced || !closed {
		t.Fatal("EXPERIMENTS.md has no fenced block under \"Measured (`cmd/experiments -congestion-ladder -seed 7`\"")
	}
	got := chaos.SameEveryRun(t, func() string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-congestion-ladder", "-seed", "7"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d (stderr: %s)", code, stderr.String())
		}
		return stdout.String()
	})
	if got = strings.TrimRight(got, "\n") + "\n"; got != want {
		t.Errorf("-congestion-ladder -seed 7 printed\n%s\nEXPERIMENTS.md shows\n%s", got, want)
	}
}
