package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ntpscan/internal/zgrab"
)

// diskManifest decodes the MANIFEST.json the directory holds.
func diskManifest(s *Store) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(s.Dir(), manifestName))
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	return m, err
}

// TestReadersNeverWaitForWriter holds the writer's mutex on the test
// goroutine and runs every read path on that same goroutine: each must
// return, and answer from the last published view. A read path that
// took the writer's mutex would never return here.
func TestReadersNeverWaitForWriter(t *testing.T) {
	const (
		nSlices = 6
		rowsPer = 60
	)
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var jsonl []byte
	for sl := 0; sl < nSlices; sl++ {
		appendOne(t, s, sl, rowsPer)
		for i := 0; i < rowsPer; i++ {
			if jsonl, err = testResult(sl*rowsPer+i, sl).AppendJSON(jsonl); err != nil {
				t.Fatal(err)
			}
			jsonl = append(jsonl, '\n')
		}
	}
	want, err := diskManifest(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Segments) != 3 {
		t.Fatalf("want one L1 and two L0 segments, got %+v", want.Segments)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	if got := s.Manifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("Manifest() = %+v, MANIFEST.json holds %+v", got, want)
	}
	if caps, results, err := s.Rows(); err != nil || caps != nSlices*rowsPer || results != nSlices*rowsPer {
		t.Errorf("Rows() = %d, %d, %v; want %d of each", caps, results, err, nSlices*rowsPer)
	}
	for _, tc := range []struct {
		pred Pred
		want int
	}{
		{Pred{}, 2 * nSlices * rowsPer},
		{Pred{Kind: KindResults, Slices: &SliceRange{Lo: 3, Hi: 4}}, 2 * rowsPer},
	} {
		it := s.Scan(tc.pred)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil || n != tc.want {
			t.Errorf("Scan(%+v): %d rows, %v; want %d", tc.pred, n, err, tc.want)
		}
	}
	var out bytes.Buffer
	if err := s.ExportJSONL(&out, Pred{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), jsonl) {
		t.Errorf("ExportJSONL wrote %d bytes, not the %d appended", out.Len(), len(jsonl))
	}
	perSlice := make(map[int]int)
	err = s.ReplaySlices(func(slice int, caps []CaptureRow, results []*zgrab.Result) error {
		perSlice[slice] += len(caps) + len(results)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for sl := 0; sl < nSlices; sl++ {
		if perSlice[sl] != 2*rowsPer {
			t.Errorf("ReplaySlices: slice %d gave %d rows, want %d", sl, perSlice[sl], 2*rowsPer)
		}
	}
}

// TestReplayWhileAppendAndCompact replays in a loop while the writer
// appends slices that compact and seals after each: a replay walks one
// view, reopening segments a compaction retires under their .retired
// names, so every replay yields whole slices and no error.
func TestReplayWhileAppendAndCompact(t *testing.T) {
	const (
		nSlices = 24
		rowsPer = 80
	)
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			perSlice := make(map[int]int)
			err := s.ReplaySlices(func(slice int, _ []CaptureRow, results []*zgrab.Result) error {
				perSlice[slice] += len(results)
				return nil
			})
			if err != nil {
				t.Errorf("replay: %v", err)
				return
			}
			for sl, n := range perSlice {
				if n != rowsPer {
					t.Errorf("replay: slice %d gave %d results, not %d (torn slice)", sl, n, rowsPer)
					return
				}
			}
		}
	}()
	for sl := 0; sl < nSlices; sl++ {
		appendOne(t, s, sl, rowsPer)
		if err := s.Seal(); err != nil {
			t.Errorf("seal after slice %d: %v", sl, err)
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestPublishedViewIsOnDisk: the view readers load is a manifest the
// directory holds. Readers see contiguous, non-overlapping slice
// ranges; the MANIFEST.json they read next is never older than the
// view they loaded (the view is published only after the manifest
// lands); every segment an open iterator's view lists opens under its
// own name or its .retired one (Seal waits for the iterator); and after
// each AppendSlice the view equals MANIFEST.json.
func TestPublishedViewIsOnDisk(t *testing.T) {
	const (
		nSlices = 24
		rowsPer = 60
		readers = 2
	)
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	// order ranks manifests as the writer commits them: every append
	// raises the highest slice, and a compaction at that slice lowers
	// the segment count.
	order := func(m Manifest) (int, int) { return m.maxSliceHi(), -len(m.Segments) }

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				m := s.Manifest()
				next := 0
				for _, si := range m.Segments {
					if si.SliceLo != next || si.SliceHi < si.SliceLo {
						t.Errorf("reader %d: segment %s covers %d-%d, want it to start at %d", r, si.Name, si.SliceLo, si.SliceHi, next)
						return
					}
					next = si.SliceHi + 1
				}
				d, err := diskManifest(s)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				mHi, mN := order(m)
				if dHi, dN := order(d); dHi < mHi || dHi == mHi && dN < mN {
					t.Errorf("reader %d: view %+v is ahead of MANIFEST.json %+v", r, m.Segments, d.Segments)
					return
				}

				it := s.Scan(Pred{Kind: KindResults})
				for _, ls := range it.segs {
					f, err := s.openSegmentFile(ls.Name)
					if err != nil {
						t.Errorf("reader %d: listed segment %s: %v", r, ls.Name, err)
						it.Close()
						return
					}
					f.Close()
				}
				for it.Next() {
				}
				if err := it.Err(); err != nil {
					t.Errorf("reader %d: scan: %v", r, err)
					return
				}
			}
		}(r)
	}
	for sl := 0; sl < nSlices; sl++ {
		appendOne(t, s, sl, rowsPer)
		if want, err := diskManifest(s); err != nil {
			t.Error(err)
		} else if got := s.Manifest(); !reflect.DeepEqual(got, want) {
			t.Errorf("after slice %d: Manifest() = %+v, MANIFEST.json holds %+v", sl, got, want)
		}
		if err := s.Seal(); err != nil {
			t.Errorf("seal after slice %d: %v", sl, err)
		}
	}
	done.Store(true)
	wg.Wait()
}
