package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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

func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", n, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestV6scanStoreIsAFunctionOfTheInput runs the scanner twice over the
// same fifty targets with eight workers and a store attached. OnResult
// fires on every worker, so under -race this is also the check that the
// store's rows are collected without a data race; every JSONL line must
// have a store row, and the two store directories must be identical
// byte for byte whatever order the workers finished in.
func TestV6scanStoreIsAFunctionOfTheInput(t *testing.T) {
	targets := tinyTargets(t)
	scan := func() (dir string, lines int) {
		dir = filepath.Join(t.TempDir(), "scan.store")
		args := append([]string{"-targets", "-", "-workers", "8", "-store", dir}, tinyWorld...)
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(targets), &stdout, &stderr); code != 0 {
			t.Fatalf("v6scan exit %d (stderr: %s)", code, stderr.String())
		}
		return dir, bytes.Count(stdout.Bytes(), []byte("\n"))
	}
	dirA, lines := scan()
	if lines == 0 {
		t.Fatal("no JSONL output")
	}

	st, err := store.Open(dirA, store.Options{})
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

	dirB, _ := scan()
	if a, b := dirDigest(t, dirA), dirDigest(t, dirB); a != b {
		t.Fatalf("two runs over the same input wrote different stores: %s vs %s", a, b)
	}
}

func TestV6scanRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-real", "-hitlist"},
		{"-targets", "-", "-ports", "ssh"},
		{"-targets", "-", "-modules", "gopher"},
		{"-no-such-flag"},
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
