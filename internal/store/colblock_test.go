package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ntpscan/internal/zgrab"
)

// selAddr spreads rows over a few /48s, /64s and interface identifiers,
// so that a prefix of any length splits them.
func selAddr(i int) netip.Addr {
	a := [16]byte{0x20, 0x01, 0x0d, 0xb8}
	a[5], a[7], a[11], a[15] = byte(i%7), byte(i%3), byte(i%2)<<7, byte(i%11)
	return netip.AddrFrom16(a)
}

// selectionStore holds what selection has to get right at once: two
// compacted segments and two L0 ones, blocks of several slices, rows
// spread by selAddr, and a slice whose 70 modules push its dictionaries
// past the 64 ids a pruning mask has
// (TestDictMaskOverflowStaysCorrect's case).
func selectionStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for sl := 0; sl < 10; sl++ {
		var cs []CaptureRow
		var rs []*zgrab.Result
		for i := 0; i < 70; i++ {
			n := sl*70 + i
			c, r := testCapture(n), testResult(n, sl)
			c.Addr, r.IP = selAddr(n), selAddr(n+sl)
			if sl == 5 {
				r.Module = fmt.Sprintf("mod%02d", i)
			}
			cs, rs = append(cs, c), append(rs, r)
		}
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// refMatch is the row-at-a-time predicate the scan used before it
// selected on vectors — string compares and netip.Prefix.Contains —
// kept as the reference selectRows is held to.
func refMatch(p Pred, r Row) bool {
	if p.Kind != 0 && r.Kind != p.Kind {
		return false
	}
	if sr := p.Slices; sr != nil && (r.Slice < sr.Lo || r.Slice > sr.Hi) {
		return false
	}
	wanted, have := p.Vantages, r.Capture.Vantage
	if r.Kind == KindResults {
		wanted, have = p.Modules, r.Result.Module
	}
	if len(wanted) > 0 && !slices.Contains(wanted, have) {
		return false
	}
	return !p.Prefix.IsValid() || p.Prefix.Contains(addrOf(r))
}

// rowKey renders a row for comparison.
func rowKey(t *testing.T, r Row) string {
	t.Helper()
	if r.Kind == KindCaptures {
		return fmt.Sprintf("capture %d %v", r.Slice, r.Capture)
	}
	j, err := r.Result.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("result %d %d %s", r.Slice, r.Result.Seq, j)
}

// Selection on vectors ≡ the row-at-a-time filter: for a few hundred
// seeded predicates, Scan yields exactly the rows refMatch keeps from
// DecodeSegment's stream, in order.
func TestSelectionMatchesRowFilter(t *testing.T) {
	s := selectionStore(t)
	var all []Row
	for _, si := range s.Manifest().Segments {
		data, err := os.ReadFile(filepath.Join(s.Dir(), si.Name))
		if err != nil {
			t.Fatal(err)
		}
		err = DecodeSegment(data,
			func(c CaptureRow, sl int) error {
				all = append(all, Row{Kind: KindCaptures, Slice: sl, Capture: c})
				return nil
			},
			func(r *zgrab.Result, sl int) error {
				all = append(all, Row{Kind: KindResults, Slice: sl, Result: r})
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(all) != 2*10*70 {
		t.Fatalf("reference stream holds %d rows", len(all))
	}

	rnd := rand.New(rand.NewSource(22))
	subset := func(from []string) []string {
		var out []string
		for _, s := range from {
			if rnd.Intn(3) == 0 {
				out = append(out, s)
			}
		}
		return out
	}
	// prefix draws one of the given length class around a stored address,
	// one bit off it half the time; PrefixFrom leaves it unmasked.
	prefix := func(lo, hi int) netip.Prefix {
		a := addrOf(all[rnd.Intn(len(all))]).As16()
		if rnd.Intn(2) == 0 {
			a[rnd.Intn(16)] ^= 1 << rnd.Intn(8)
		}
		return netip.PrefixFrom(netip.AddrFrom16(a), lo+rnd.Intn(hi-lo+1))
	}
	prefixes := []func() netip.Prefix{
		func() netip.Prefix { return netip.Prefix{} },
		func() netip.Prefix { return prefix(0, 0) },
		func() netip.Prefix { return prefix(1, 47) },
		func() netip.Prefix { return prefix(48, 48) },
		func() netip.Prefix { return prefix(49, 127) },
		func() netip.Prefix { return prefix(128, 128) },
		func() netip.Prefix { return prefix(1, 127).Masked() },
		func() netip.Prefix { return netip.MustParsePrefix("0.0.0.0/0") },
		func() netip.Prefix { return netip.MustParsePrefix("32.1.13.184/16") },
	}
	matched := 0
	for n := 0; n < 400; n++ {
		p := Pred{
			Kind:     Kind(rnd.Intn(3)),
			Modules:  subset([]string{"http", "tls", "ssh", "mqtt", "mod00", "mod69", "nosuch"}),
			Vantages: subset([]string{"DE", "US", "JP", "XX"}),
			Prefix:   prefixes[n%len(prefixes)](),
		}
		if rnd.Intn(2) == 0 {
			p.Slices = &SliceRange{Lo: rnd.Intn(12) - 1, Hi: rnd.Intn(12) - 1} // empty when Lo > Hi
		}
		var want []string
		for _, r := range all {
			if refMatch(p, r) {
				want = append(want, rowKey(t, r))
			}
		}
		var got []string
		it := s.Scan(p)
		for it.Next() {
			got = append(got, rowKey(t, it.Row()))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pred %+v (slices %v): scan yields %d rows, the row filter keeps %d", p, p.Slices, len(got), len(want))
		}
		matched += len(got)
	}
	if matched < 400 {
		t.Fatalf("400 predicates matched %d rows in all: the test selects next to nothing", matched)
	}
}

// An iterator with no current row — before the first Next, after Next
// returned false, after Close — answers with zero values and appends
// nothing; it does not index a block it does not have.
func TestIterWithoutCurrentRow(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 2, 10)
	for _, tc := range []struct {
		name  string
		state func(*Iter)
	}{
		{"before the first Next", func(*Iter) {}},
		{"after Next returned false", func(it *Iter) {
			for it.Next() {
			}
		}},
		{"after Close mid-scan", func(it *Iter) {
			if !it.Next() {
				t.Fatal("empty scan")
			}
			it.Close()
		}},
	} {
		it := s.Scan(Pred{})
		tc.state(it)
		if r := it.Row(); r.Kind != 0 || r.Slice != 0 || r.Result != nil || r.Capture != (CaptureRow{}) {
			t.Errorf("%s: Row() = %+v", tc.name, r)
		}
		if it.Kind() != 0 || it.Slice() != 0 || it.Vantage() != "" {
			t.Errorf("%s: Kind %v Slice %d Vantage %q", tc.name, it.Kind(), it.Slice(), it.Vantage())
		}
		if out := it.AppendResult(it.AppendAddr([]byte("keep"))); string(out) != "keep" {
			t.Errorf("%s: appended %q", tc.name, out)
		}
		it.Close()
	}
	// On a row of the other kind the kind-specific readers are as quiet.
	it := s.Scan(Pred{Kind: KindCaptures})
	defer it.Close()
	if !it.Next() {
		t.Fatal("no capture row")
	}
	if out := it.AppendResult(nil); len(out) != 0 {
		t.Errorf("AppendResult on a capture row wrote %q", out)
	}
	if it.Vantage() == "" || len(it.AppendAddr(nil)) == 0 {
		t.Error("capture row has no vantage or address")
	}
}

// What the column cache promised about allocation. A warm scan driven
// by Next alone pays per block — the iterator, its selection — and
// nothing per row, and neither does a warm ExportJSONL, which builds no
// Result; a cold scan of blocks without grabs allocates the vectors of
// each block, not an object per row.
func TestScanAllocsNotPerRow(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const nSlices, rowsPer = 8, 1500
	for sl := 0; sl < nSlices; sl++ {
		rs := make([]*zgrab.Result, rowsPer)
		for i := range rs {
			rs[i] = testResult(sl*rowsPer+i, sl)
			rs[i].HTTP, rs[i].TLS, rs[i].SSH = nil, nil, nil
		}
		if err := s.AppendSlice(sl, nil, rs); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(st *Store, p Pred) (rows int, blocks int64) {
		it := st.Scan(p)
		for it.Next() {
			rows++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return rows, it.Stats().BlocksRead
	}
	for _, p := range []Pred{{}, {Modules: []string{"ssh"}, Slices: &SliceRange{Lo: 2, Hi: 5}}} {
		rows, blocks := scan(s, p) // fills the cache
		warm := testing.AllocsPerRun(10, func() { scan(s, p) })
		t.Logf("warm scan %+v: %d rows, %d blocks, %.0f allocs", p, rows, blocks, warm)
		if rows < 1000 || warm > float64(8+4*blocks) {
			t.Errorf("warm scan of %d rows in %d blocks allocates %.0f times", rows, blocks, warm)
		}
	}

	// Nor does a warm export build a row: its line buffer, the iterator.
	export := testing.AllocsPerRun(10, func() {
		if err := s.ExportJSONL(io.Discard, Pred{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm ExportJSONL of %d rows: %.0f allocs", nSlices*rowsPer, export)
	if export > 16 {
		t.Errorf("warm ExportJSONL of %d rows allocates %.0f times", nSlices*rowsPer, export)
	}

	// Cold: a fresh handle per run, so every block is read and decoded.
	// Per block that is the raw body and its inflater, a dozen vectors,
	// three dictionaries and their quoted forms.
	dir := s.Dir()
	var rows int
	var blocks int64
	cold := testing.AllocsPerRun(5, func() {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, blocks = scan(st, Pred{})
	})
	t.Logf("cold scan: %d rows, %d blocks, %.0f allocs", rows, blocks, cold)
	if rows != nSlices*rowsPer || cold > float64(200+100*blocks) {
		t.Errorf("cold scan of %d rows in %d blocks allocates %.0f times", rows, blocks, cold)
	}
}

// checkColumnWriter holds the two views of every result block of a
// segment image against each other: the line appendResult writes from
// the vectors is valid JSON and is what AppendJSON writes for the row
// result builds.
func checkColumnWriter(t *testing.T, data []byte) {
	t.Helper()
	seg, err := parseSegmentBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var text rowText
	for _, bi := range seg.blocks {
		if bi.Kind != KindResults {
			continue
		}
		raw, err := decodeBlock(data[bi.Off:bi.Off+bi.Len], bi)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeColumns(raw, bi.Kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.n; i++ {
			want, err := b.result(i).AppendJSON(nil)
			if err != nil {
				t.Fatalf("row %d: AppendJSON refuses a row the block decoded to: %v", i, err)
			}
			got := b.appendResult(nil, i, &text)
			if !bytes.Equal(got, want) || !json.Valid(got) {
				t.Fatalf("row %d: the column writer and the row view disagree:\n got %s\nwant %s", i, got, want)
			}
		}
	}
}
