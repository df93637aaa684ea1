package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"path/filepath"
	"strings"
	"testing"

	"ntpscan/internal/chaos"
	"ntpscan/internal/store"
	"ntpscan/internal/world"
)

// tinyWorld is the flag set of a world small enough for a smoke run.
var tinyWorld = []string{"-seed", "7", "-device-scale", "1e-3", "-addr-scale", "1e-6", "-as-scale", "0.02"}

// tinyTargets lists fifty targets in that world as v6scan sees it (end
// of the collection window): forty reachable devices, ten dark
// addresses.
func tinyTargets(t *testing.T) string {
	t.Helper()
	w := world.New(world.Config{Seed: 7, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02})
	end := w.Cfg.Start.Add(world.CollectionWindow)
	var b strings.Builder
	n := 0
	for _, d := range w.Reachable() {
		if n == 40 {
			break
		}
		fmt.Fprintln(&b, w.AddrAt(d, d.EpochAt(end, w.Cfg.Start)))
		n++
	}
	if n < 40 {
		t.Fatalf("tiny world has only %d reachable devices", n)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintln(&b, netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i + 1)}))
	}
	return b.String()
}

// TestV6scanStoreIsAFunctionOfTheInput is v6scan's repeat gate: a
// target list and the hitlist, each scanned with eight workers and a
// store attached, three times at GOMAXPROCS 1 and three at the host's
// CPU count. Results reach core.ScanBatch's sink on every worker (so
// under -race this is also its data-race check) and leave it in
// submission order: stdout and the store directory must be identical
// byte for byte whatever order the workers finished in, and equal to a
// one-worker run's; every JSONL line must have a store row.
func TestV6scanStoreIsAFunctionOfTheInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		stdin string
	}{
		{"targets", []string{"-targets", "-"}, tinyTargets(t)},
		// A third of the tiny world's devices: the hitlist is 5 000
		// targets instead of 17 000, and seven scans of it take a second.
		{"hitlist", []string{"-hitlist", "-device-scale", "3e-4"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dir string
			var lines int
			scan := func(workers string) string {
				dir = filepath.Join(t.TempDir(), "scan.store")
				args := append(append([]string{"-workers", workers, "-store", dir}, tinyWorld...), tc.args...)
				var stdout, stderr bytes.Buffer
				if code := run(args, strings.NewReader(tc.stdin), &stdout, &stderr); code != 0 {
					t.Fatalf("v6scan exit %d (stderr: %s)", code, stderr.String())
				}
				lines = bytes.Count(stdout.Bytes(), []byte("\n"))
				return fmt.Sprintf("%x %s", sha256.Sum256(stdout.Bytes()), store.DirDigest(t, dir))
			}
			want := chaos.SameEveryRun(t, func() string { return scan("8") })
			if scan("1") != want {
				t.Error("one worker wrote different bytes than eight")
			}
			if lines == 0 {
				t.Fatal("no JSONL output")
			}

			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			it := st.Scan(store.Pred{Kind: store.KindResults})
			rows, lastSeq, responsive := 0, int64(-1), 0
			for it.Next() {
				r := it.Row().Result
				if r.Seq <= lastSeq {
					t.Fatalf("store row %d has Seq %d after %d: not in submission order", rows, r.Seq, lastSeq)
				}
				lastSeq = r.Seq
				if r.Success() {
					responsive++
				}
				rows++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if rows != lines {
				t.Fatalf("store holds %d result rows, stdout carried %d JSONL lines", rows, lines)
			}
			if responsive == 0 {
				t.Fatal("no target answered: the list missed the world")
			}
		})
	}
}

func TestV6scanRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-real", "-hitlist"},
		{"-targets", "-", "-ports", "ssh"},
		{"-targets", "-", "-modules", "gopher"},
		{"-no-such-flag"},
		{"-targets", "-", "-addr-scale", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 2 {
			t.Errorf("v6scan %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("v6scan %v: no diagnostic", args)
		}
	}
}

// fullDisk accepts a few bytes and then fails every write.
type fullDisk struct{ room int }

func (w *fullDisk) Write(p []byte) (int, error) {
	if len(p) > w.room {
		return 0, fmt.Errorf("no space left on device")
	}
	w.room -= len(p)
	return len(p), nil
}

// A result stream that cannot be written is the run's failure: v6scan
// keeps the first write error, names it, and exits non-zero instead of
// reporting every row as written.
func TestV6scanReportsWriteError(t *testing.T) {
	args := append([]string{"-targets", "-", "-workers", "4"}, tinyWorld...)
	var stderr bytes.Buffer
	code := run(args, strings.NewReader(tinyTargets(t)), &fullDisk{room: 6000}, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "write results: no space left on device") {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "wrote ") {
		t.Fatalf("a failed run still reported its rows as written: %s", stderr.String())
	}
}
