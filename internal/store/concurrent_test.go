package store

import (
	"net/netip"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ntpscan/internal/obs"
	"ntpscan/internal/zgrab"
)

// appendOne appends one full slice of rowsPer rows, sharing the row
// generators with fillStore.
func appendOne(t testing.TB, s *Store, slice, rowsPer int) {
	t.Helper()
	caps := make([]CaptureRow, 0, rowsPer)
	results := make([]*zgrab.Result, 0, rowsPer)
	for i := 0; i < rowsPer; i++ {
		caps = append(caps, testCapture(slice*rowsPer+i))
		results = append(results, testResult(slice*rowsPer+i, slice))
	}
	if err := s.AppendSlice(slice, caps, results); err != nil {
		t.Errorf("append slice %d: %v", slice, err)
	}
}

// TestScanWhileAppendAndCompact runs readers concurrently with the
// writer: AppendSlice commits whole slices through an atomic manifest
// swap and compaction retires inputs only after the merged L1 segment
// is durable, so every Scan snapshot must observe an integral number of
// complete slices — never a torn one — while compactions churn the
// directory underneath. Run under -race this is also the data-race
// oracle for the one-writer/many-readers contract.
func TestScanWhileAppendAndCompact(t *testing.T) {
	const (
		nSlices = 24
		rowsPer = 120
		readers = 4
	)
	s, err := Open(t.TempDir(), Options{CompactEvery: 4, BlockCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	preds := []Pred{
		{},
		{Kind: KindResults},
		{Kind: KindResults, Modules: []string{"ssh"}},
		{Kind: KindCaptures, Vantages: []string{"DE"}},
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastFull int64 = -1
			for !done.Load() {
				// Full result scans must always see whole slices.
				it := s.Scan(Pred{Kind: KindResults})
				var n int64
				for it.Next() {
					n++
				}
				if err := it.Err(); err != nil {
					t.Errorf("reader %d: scan: %v", r, err)
					return
				}
				if n%rowsPer != 0 {
					t.Errorf("reader %d: saw %d result rows, not a multiple of %d (torn slice)", r, n, rowsPer)
					return
				}
				if n < lastFull {
					t.Errorf("reader %d: row count went backwards: %d -> %d", r, lastFull, n)
					return
				}
				lastFull = n

				// Selective scans exercise pushdown + cache sharing.
				p := preds[r%len(preds)]
				it = s.Scan(p)
				for it.Next() {
				}
				if err := it.Err(); err != nil {
					t.Errorf("reader %d: selective scan: %v", r, err)
					return
				}
			}
		}(r)
	}

	for sl := 0; sl < nSlices; sl++ {
		appendOne(t, s, sl, rowsPer)
		// Seal deletes what the compaction just retired — files the
		// readers' open snapshots may still list.
		if err := s.Seal(); err != nil {
			t.Errorf("seal after slice %d: %v", sl, err)
		}
	}
	done.Store(true)
	wg.Wait()

	var n int
	it := s.Scan(Pred{Kind: KindResults})
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != nSlices*rowsPer {
		t.Fatalf("final scan saw %d results, want %d", n, nSlices*rowsPer)
	}
}

// TestIterAcrossCompactionRetire holds open iterators across a
// compaction that retires every segment in their snapshot. An iterator
// created before the compaction must still read its full point-in-time
// snapshot afterwards: segments it has already opened stay readable
// through the held descriptor, and segments it has not opened yet are
// found under their .retired names.
func TestIterAcrossCompactionRetire(t *testing.T) {
	const rowsPer = 150
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}

	for sl := 0; sl < 3; sl++ {
		appendOne(t, s, sl, rowsPer)
	}

	// cold: snapshot taken, no segment opened yet.
	cold := s.Scan(Pred{Kind: KindResults})
	// hot: advanced partway into the first segment, holding its file.
	hot := s.Scan(Pred{Kind: KindResults})
	hotN := 0
	for hotN < rowsPer/2 && hot.Next() {
		hotN++
	}
	if err := hot.Err(); err != nil {
		t.Fatal(err)
	}

	// Slice 3 triggers compaction at (3+1)%4 == 0: all four L0 segments
	// are merged into one L1 segment and renamed *.retired.
	appendOne(t, s, 3, rowsPer)
	man := s.Manifest()
	if len(man.Segments) != 1 || man.Segments[0].Level != 1 {
		t.Fatalf("expected one L1 segment after compaction, got %+v", man.Segments)
	}

	for _, tc := range []struct {
		name string
		it   *Iter
		got  int
	}{{"cold", cold, 0}, {"hot", hot, hotN}} {
		n := tc.got
		for tc.it.Next() {
			n++
		}
		if err := tc.it.Err(); err != nil {
			t.Fatalf("%s iterator across compaction: %v", tc.name, err)
		}
		if n != 3*rowsPer {
			t.Fatalf("%s iterator saw %d rows, want %d (snapshot of 3 slices)", tc.name, n, 3*rowsPer)
		}
	}

	// A post-compaction scan sees all four slices from the L1 segment,
	// and Seal's GC of the retired files doesn't disturb it.
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	it := s.Scan(Pred{Kind: KindResults})
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 4*rowsPer {
		t.Fatalf("post-seal scan saw %d rows, want %d", n, 4*rowsPer)
	}
}

// TestSealWaitsForOpenIterators: an iterator whose snapshot lists L0
// segments outlives the compaction that retires them and the Seal that
// deletes the retired files. It must still yield every row of its
// snapshot — Seal holds its deletions until the iterator closes.
func TestSealWaitsForOpenIterators(t *testing.T) {
	const rowsPer = 50
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for sl := 0; sl < 3; sl++ {
		appendOne(t, s, sl, rowsPer)
	}
	it := s.Scan(Pred{Kind: KindResults})
	if !it.Next() {
		t.Fatalf("empty scan: %v", it.Err())
	}
	appendOne(t, s, 3, rowsPer) // compacts: slices 0-2 are *.retired now

	sealed := make(chan error, 1)
	go func() { sealed <- s.Seal() }()
	// A waiting writer turns new readers away: once TryRLock fails, Seal
	// is parked behind the iterator.
	for s.pins.TryRLock() {
		s.pins.RUnlock()
		runtime.Gosched()
	}
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator across Seal: %v", err)
	}
	if n != 3*rowsPer {
		t.Fatalf("iterator saw %d rows, want %d (snapshot of 3 slices)", n, 3*rowsPer)
	}
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*"+retiredSuffix)); len(left) != 0 {
		t.Errorf("Seal left retired files behind: %v", left)
	}
}

// TestBlockCacheAccounting checks the hit/miss bookkeeping: a cold
// scan misses every block it visits, and a repeat of the same scan is
// served entirely from cache.
func TestBlockCacheAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 4, 300)

	scan := func() (rows int64, st ScanStats) {
		it := s.Scan(Pred{Kind: KindResults, Modules: []string{"http"}})
		for it.Next() {
			rows++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		st = it.Stats()
		it.Close()
		return rows, st
	}

	rows1, st1 := scan()
	if st1.CacheMisses == 0 || st1.CacheMisses != st1.BlocksRead {
		t.Fatalf("cold scan: want all %d visited blocks to miss, got misses=%d hits=%d",
			st1.BlocksRead, st1.CacheMisses, st1.CacheHits)
	}
	if st1.CacheHits != 0 {
		t.Fatalf("cold scan reported %d hits", st1.CacheHits)
	}

	rows2, st2 := scan()
	if rows2 != rows1 {
		t.Fatalf("warm scan rows %d != cold rows %d", rows2, rows1)
	}
	if st2.CacheMisses != 0 || st2.CacheHits != st1.BlocksRead {
		t.Fatalf("warm scan: want %d hits 0 misses, got hits=%d misses=%d",
			st1.BlocksRead, st2.CacheHits, st2.CacheMisses)
	}

	m := s.met
	if got := m.BlockCacheHits.Value(); got != st2.CacheHits {
		t.Fatalf("BlockCacheHits metric = %d, want %d", got, st2.CacheHits)
	}
	if got := m.BlockCacheMisses.Value(); got != st1.CacheMisses {
		t.Fatalf("BlockCacheMisses metric = %d, want %d", got, st1.CacheMisses)
	}
	if m.BlockCacheBytes.Value() <= 0 {
		t.Fatal("BlockCacheBytes gauge not advanced")
	}
}

// TestBlockCacheDisabled verifies a negative budget turns the cache
// off: scans stay correct and report no cache traffic at all.
func TestBlockCacheDisabled(t *testing.T) {
	s, err := Open(t.TempDir(), Options{BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 3, 200)

	for round := 0; round < 2; round++ {
		it := s.Scan(Pred{})
		var n int64
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		st := it.Stats()
		if st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Fatalf("round %d: disabled cache reported hits=%d misses=%d", round, st.CacheHits, st.CacheMisses)
		}
		if n != 2*3*200 {
			t.Fatalf("round %d: saw %d rows, want %d", round, n, 2*3*200)
		}
	}
}

// TestBlockCacheEviction pins a tiny byte budget and checks the LRU
// holds it: the resident footprint never exceeds the budget and the
// eviction counter advances once the working set overflows.
func TestBlockCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	const budget = 16 << 10
	s, err := Open(t.TempDir(), Options{Obs: reg, BlockCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 6, 400)

	for round := 0; round < 2; round++ {
		it := s.Scan(Pred{})
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.blocks.bytes(); got > budget {
		t.Fatalf("cache footprint %d exceeds budget %d", got, budget)
	}
	m := s.met
	if m.BlockCacheEvictions.Value() == 0 {
		t.Fatal("expected evictions under a 16KiB budget")
	}
	if got := m.BlockCacheBytes.Value(); got != s.blocks.bytes() {
		t.Fatalf("BlockCacheBytes gauge %d != footprint %d", got, s.blocks.bytes())
	}
}

// TestPrefixScanWhileWriting pins the /48-exact pushdown path (bloom +
// key range) against a concurrent writer, since its per-segment state
// is computed from the footers the store holds.
func TestPrefixScanWhileWriting(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}

	// testAddr varies bytes 4-5 with i, so /48 = 2001:db8:xx00::/48.
	pfx := netip.PrefixFrom(testAddr(7), 48).Masked()

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			it := s.Scan(Pred{Prefix: pfx})
			for it.Next() {
				for _, a := range []netip.Addr{it.Row().Capture.Addr, addrOf(it.Row())} {
					if a.IsValid() && !pfx.Contains(a) {
						t.Errorf("prefix scan leaked %s outside %s", a, pfx)
						return
					}
				}
			}
			if err := it.Err(); err != nil {
				t.Errorf("prefix scan: %v", err)
				return
			}
		}
	}()
	for sl := 0; sl < 12; sl++ {
		appendOne(t, s, sl, 100)
	}
	done.Store(true)
	wg.Wait()
}

func addrOf(r Row) netip.Addr {
	if r.Kind == KindResults {
		return r.Result.IP
	}
	return r.Capture.Addr
}
