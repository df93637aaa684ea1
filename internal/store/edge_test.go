package store

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"ntpscan/internal/zgrab"
)

// A slice with more than 64 distinct modules overflows the 64-bit
// dictionary mask; overflowing ids poison the mask to all-ones, so
// those blocks are never pruned — and never wrongly pruned.
func TestDictMaskOverflowStaysCorrect(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]*zgrab.Result, 70)
	for i := range rows {
		r := testResult(i, 0)
		r.Module = fmt.Sprintf("mod%02d", i)
		rows[i] = r
	}
	if err := s.AppendSlice(0, nil, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// A module past id 63 must still be found (its mask bits are the
	// poisoned all-ones, so the block is read and row-filtered).
	for _, mod := range []string{"mod00", "mod69"} {
		it := s.Scan(Pred{Modules: []string{mod}})
		n := 0
		for it.Next() {
			if it.Row().Result.Module != mod {
				t.Fatalf("module %s scan yielded %s", mod, it.Row().Result.Module)
			}
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		it.Close()
		if n != 1 {
			t.Fatalf("module %s matched %d rows, want 1", mod, n)
		}
	}
}

// Wide prefixes (shorter than /48) still prune via the block key range
// even though the bloom filter (exact /48 keys) cannot help.
func TestWidePrefixQuery(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 4, 50)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	it := s.Scan(Pred{Kind: KindResults, Prefix: netip.MustParsePrefix("2001:db8::/32")})
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	it.Close()
	if n == 0 {
		t.Fatal("covering /32 matched nothing")
	}
	it = s.Scan(Pred{Kind: KindResults, Prefix: netip.MustParsePrefix("2002::/16")})
	for it.Next() {
		t.Fatal("disjoint /16 matched a row")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	st := it.Stats()
	it.Close()
	if st.BlocksRead != 0 {
		t.Fatalf("disjoint prefix read %d blocks", st.BlocksRead)
	}
}

// Corruption that lands after Open (bit rot, torn overwrite) must
// surface as a scan error, not bad rows. The store holds every footer
// from Open on, so what a scan meets is a changed or missing block: the
// last one, which no case lets the block cache keep.
func TestScanReportsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 4, 50)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	path := filepath.Join(dir, man.Segments[0].Name)
	blocks := s.current.Load().segs[0].seg.blocks
	payload := blocks[len(blocks)-1].Off + blockHeaderLen
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"block-bit-flip": func(b []byte) []byte { b[payload] ^= 0xff; return b },
		"truncated":      func(b []byte) []byte { return b[:len(b)/3] },
		"tiny":           func(b []byte) []byte { return b[:4] },
	} {
		corrupt := mutate(append([]byte(nil), data...))
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		it := s.Scan(Pred{})
		for it.Next() {
		}
		if it.Err() == nil {
			t.Fatalf("%s: scan of corrupted segment reported no error", name)
		}
		it.Close()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	it := s.Scan(Pred{})
	n := 0
	for it.Next() {
		n++
	}
	if it.Err() != nil || n == 0 {
		t.Fatalf("restored segment unreadable: n=%d err=%v", n, it.Err())
	}
	it.Close()
}
