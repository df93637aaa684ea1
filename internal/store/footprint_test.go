package store

import (
	"bytes"
	"os"
	"testing"

	"ntpscan/internal/zgrab"
)

func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// footprintStore ingests the workload EXPERIMENTS.md "Columnar store vs
// JSONL" quotes — 8 slices × 2000 results, one module per slice, the
// batch shape a campaign drain produces, so a block's dictionary mask
// names one module — and seals it.
func footprintStore(t *testing.T, compactEvery int) (*Store, string) {
	t.Helper()
	const slices, rows = 8, 2000
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	for sl := 0; sl < slices; sl++ {
		rs := make([]*zgrab.Result, rows)
		for i := range rs {
			rs[i] = testResult(sl*rows+i, sl)
			rs[i].Module = testMods[sl%len(testMods)]
		}
		if err := s.AppendSlice(sl, nil, rs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// TestStorageFootprint holds the three facts EXPERIMENTS.md "Columnar
// store vs JSONL" states about that workload, and logs (-v) the
// numbers its tables quote: the store is smaller on disk than the
// JSONL of the same rows, compacted or not; a one-module scan skips
// more blocks than it reads; a two-slice range scan skips blocks.
func TestStorageFootprint(t *testing.T) {
	l0, l0Dir := footprintStore(t, -1)
	l1, l1Dir := footprintStore(t, 4)

	var buf bytes.Buffer
	if err := l1.ExportJSONL(&buf, Pred{Kind: KindResults}); err != nil {
		t.Fatal(err)
	}
	jsonl, l0Size, l1Size := int64(buf.Len()), dirBytes(t, l0Dir), dirBytes(t, l1Dir)
	t.Logf("JSONL export:      %8d bytes", jsonl)
	t.Logf("store (L0 only):   %8d bytes (%.2fx JSONL)", l0Size, float64(l0Size)/float64(jsonl))
	t.Logf("store (compacted): %8d bytes (%.2fx JSONL)", l1Size, float64(l1Size)/float64(jsonl))
	if l0Size >= jsonl || l1Size >= jsonl {
		t.Fatalf("store directories (%d uncompacted, %d compacted) are not smaller than the %d-byte JSONL of the same rows",
			l0Size, l1Size, jsonl)
	}

	scan := func(name string, pred Pred) (int, ScanStats) {
		it := l0.Scan(pred)
		defer it.Close()
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		s := it.Stats()
		t.Logf("%-18s %6d rows; blocks %d read / %d skipped; bytes %d read / %d skipped",
			name, n, s.BlocksRead, s.BlocksSkipped, s.BytesRead, s.BytesSkipped)
		return n, s
	}
	if n, s := scan("all results:", Pred{Kind: KindResults}); n != 16000 || s.BlocksSkipped != 0 {
		t.Fatalf("full scan: %d rows, %+v; want 16000 rows and nothing skipped", n, s)
	}
	if n, s := scan("module = http:", Pred{Modules: []string{testMods[0]}}); n != 4000 || s.BlocksSkipped <= s.BlocksRead {
		t.Fatalf("one-module-of-four scan: %d rows, %+v; want 4000 rows and more blocks skipped than read", n, s)
	}
	if n, s := scan("slices 0-1:", Pred{Slices: &SliceRange{Lo: 0, Hi: 1}}); n != 4000 || s.BlocksSkipped == 0 {
		t.Fatalf("two-slice scan: %d rows, %+v; want 4000 rows and blocks skipped", n, s)
	}
}
