package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ntpscan/internal/zgrab"
)

// TestOpenReadOnlyChangesNothing is OpenReadOnly's contract: it names
// every entry that fails its check in the one error, every writer call
// on the store it returns fails without touching the directory, and on
// an intact directory it reads what the writer's handle reads.
func TestOpenReadOnlyChangesNothing(t *testing.T) {
	const (
		nSlices = 6
		rowsPer = 40
	)
	dir := t.TempDir()
	w, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, w, 2, rowsPer)
	early := w.Manifest()
	for sl := 2; sl < nSlices; sl++ {
		appendOne(t, w, sl, rowsPer)
	}
	// One L1 over slices 0-3, its inputs retired beside it, two L0s.
	if n := len(w.Manifest().Segments); n != 3 {
		t.Fatalf("want 3 live segments, got %+v", w.Manifest().Segments)
	}
	digest := DirDigest(t, dir)

	ro, err := OpenReadOnly(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantOut, gotOut bytes.Buffer
	if err := w.ExportJSONL(&wantOut, Pred{}); err != nil {
		t.Fatal(err)
	}
	if err := ro.ExportJSONL(&gotOut, Pred{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) || wantOut.Len() == 0 {
		t.Errorf("read-only ExportJSONL wrote %d bytes, the writer's handle %d", gotOut.Len(), wantOut.Len())
	}
	wc, wr, _ := w.Rows()
	if c, r, err := ro.Rows(); err != nil || c != wc || r != wr {
		t.Errorf("read-only Rows() = %d, %d, %v; the writer's handle %d, %d", c, r, err, wc, wr)
	}
	if got, want := scanRows(t, ro), scanRows(t, w); got != want || want != 2*nSlices*rowsPer {
		t.Errorf("read-only Scan: %d rows, the writer's handle %d", got, want)
	}

	for name, call := range map[string]func() error{
		"AppendSlice":   func() error { return ro.AppendSlice(nSlices, []CaptureRow{testCapture(0)}, nil) },
		"AppendResults": func() error { return ro.AppendResults([]*zgrab.Result{testResult(0, nSlices)}) },
		"ResetTo":       func() error { return ro.ResetTo(early) },
		"Seal":          ro.Seal,
	} {
		if err := call(); err == nil {
			t.Errorf("%s on a read-only store succeeded", name)
		}
		if DirDigest(t, dir) != digest {
			t.Fatalf("%s on a read-only store changed the directory", name)
		}
	}

	// Rot one byte in the first block of two segments: both are named.
	man := w.Manifest()
	for _, si := range []SegmentInfo{man.Segments[0], man.Segments[2]} {
		path := filepath.Join(dir, si.Name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(segMagic)+blockHeaderLen] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	digest = DirDigest(t, dir)
	_, err = OpenReadOnly(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "store: segment "+man.Segments[0].Name) || !strings.Contains(err.Error(), "store: segment "+man.Segments[2].Name) {
		t.Errorf("OpenReadOnly = %v, want an error naming %s and %s", err, man.Segments[0].Name, man.Segments[2].Name)
	}
	if DirDigest(t, dir) != digest {
		t.Error("the refused OpenReadOnly changed the directory")
	}
}

// scanRows counts an unfiltered scan's rows, failing on a scan error.
func scanRows(t *testing.T, s *Store) (n int) {
	t.Helper()
	it := s.Scan(Pred{})
	defer it.Close()
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOpenReadOnlyBesideAWriter opens the directory read-only, over and
// over, while another handle on it appends and compacts — analyze or
// queryd -store pointed at a directory a campaign is still filling.
// Every open succeeds on the manifest that landed last: segments
// contiguous from slice 0, ending no later than the slice the writer is
// appending, with the rows those slices hold. The writer never sees an
// error.
func TestOpenReadOnlyBesideAWriter(t *testing.T) {
	const (
		nSlices = 32
		rowsPer = 40
	)
	dir := t.TempDir()
	w, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var appending atomic.Int64 // the slice the writer is appending, or last appended
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for opens := 0; !done.Load() || opens == 0; opens++ {
			ro, err := OpenReadOnly(dir, Options{})
			if err != nil {
				t.Errorf("OpenReadOnly: %v", err)
				return
			}
			m, next := ro.Manifest(), 0
			for _, si := range m.Segments {
				if si.SliceLo != next {
					t.Errorf("segment %s covers %d-%d, want it to start at %d", si.Name, si.SliceLo, si.SliceHi, next)
					return
				}
				next = si.SliceHi + 1
			}
			if limit := appending.Load(); int64(next-1) > limit {
				t.Errorf("read slices up to %d while the writer was at %d", next-1, limit)
				return
			}
			if caps, results, _ := ro.Rows(); caps != int64(next*rowsPer) || results != caps {
				t.Errorf("slices 0-%d hold %d captures and %d results, want %d of each", next-1, caps, results, next*rowsPer)
				return
			}
		}
	}()
	for sl := 0; sl < nSlices; sl++ {
		appending.Store(int64(sl))
		appendOne(t, w, sl, rowsPer)
	}
	done.Store(true)
	wg.Wait()
}
