package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/zgrab"
)

// compactRows is slice sl's rows for the compaction tests: fillStore's,
// with every seventh result's SSH banner holding bytes of invalid UTF-8
// — the one grab a parse does not give back as it was written, so a
// held block and the file's decoded one differ there unless the store
// settles it.
func compactRows(sl, rowsPer int) ([]CaptureRow, []*zgrab.Result) {
	caps := make([]CaptureRow, rowsPer)
	results := make([]*zgrab.Result, rowsPer)
	for i := range results {
		caps[i], results[i] = testCapture(sl*rowsPer+i), testResult(sl*rowsPer+i, sl)
		if i%7 == 3 {
			results[i].SSH = &zgrab.SSHGrab{ServerID: "SSH-2.0-\xff\xfe", Software: "x\xc3"}
		}
	}
	return caps, results
}

func appendSlices(t *testing.T, s *Store, lo, hi, rowsPer int) {
	t.Helper()
	for sl := lo; sl < hi; sl++ {
		caps, results := compactRows(sl, rowsPer)
		if err := s.AppendSlice(sl, caps, results); err != nil {
			t.Fatalf("append slice %d: %v", sl, err)
		}
	}
}

func openStore(t *testing.T, dir string, compactEvery int) *Store {
	t.Helper()
	s, err := Open(dir, Options{CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sealedDigest seals the store and fingerprints its directory.
func sealedDigest(t *testing.T, s *Store) string {
	t.Helper()
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return DirDigest(t, s.Dir())
}

// columnsOf is every vector the merge copies or re-codes, with the
// dictionaries the codes index: what a held block and the block
// decoded from its file must agree on.
func columnsOf(b *colBlock) []any {
	if b.kind == KindCaptures {
		return []any{b.n, b.slices, b.addrs, b.vans, b.van}
	}
	grabs := make([]string, b.n)
	for i := range grabs {
		grabs[i] = string(b.grab(i))
	}
	return []any{b.n, b.slices, b.addrs, b.mods, b.stats, b.errs, b.mod, b.stat, b.errc,
		b.ports, b.times, b.attempts, b.seqs, grabs}
}

// fileColumns decodes a live segment's file to columns.
func fileColumns(t *testing.T, s *Store, si SegmentInfo) []*colBlock {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(s.Dir(), si.Name))
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*colBlock
	if err := eachBlock(data, func(b *colBlock) error { blocks = append(blocks, b); return nil }); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// The columns a store holds for compaction are exactly what its files
// decode to, only live L0 segments have them, and never more than K-1
// of those: over a 96-slice append with K = 8 the set fills to 7 and
// empties at every eighth slice. With compaction off nothing is held.
func TestHeldColumnsAreTheFilesBounded(t *testing.T) {
	for _, k := range []int{8, -1} {
		s := openStore(t, t.TempDir(), k)
		most := 0
		for sl := 0; sl < 96; sl++ {
			appendSlices(t, s, sl, sl+1, 20)
			most = max(most, len(s.held))
			live := 0
			for _, si := range s.Manifest().Segments {
				held, ok := s.held[segKey{si.CRC32, si.Size}]
				if !ok {
					continue
				}
				live++
				if si.Level != 0 {
					t.Fatalf("K=%d, slice %d: %s is held", k, sl, si.Name)
				}
				decoded := fileColumns(t, s, si)
				if len(held) != len(decoded) {
					t.Fatalf("K=%d: %s holds %d blocks, its file %d", k, si.Name, len(held), len(decoded))
				}
				for i := range held {
					if !reflect.DeepEqual(columnsOf(held[i]), columnsOf(decoded[i])) {
						t.Fatalf("K=%d: %s block %d: held columns differ from the file's", k, si.Name, i)
					}
				}
			}
			if live != len(s.held) {
				t.Fatalf("K=%d, slice %d: %d held, %d of them live", k, sl, len(s.held), live)
			}
		}
		if want := max(k-1, 0); most != want {
			t.Errorf("K=%d: at most %d segments held, want %d", k, most, want)
		}
	}
}

// A segment the store did not write in this process — pending L0s in a
// store reopened with Open, or rewound to by ResetTo — is compacted from
// its file, alongside held ones in the same merge, into exactly the
// bytes the uninterrupted store wrote.
func TestCompactionFallsBackToTheFile(t *testing.T) {
	const k, slices, rowsPer = 4, 12, 40
	want := func() string {
		s := openStore(t, t.TempDir(), k)
		appendSlices(t, s, 0, slices, rowsPer)
		return sealedDigest(t, s)
	}()

	t.Run("Open", func(t *testing.T) {
		dir := t.TempDir()
		appendSlices(t, openStore(t, dir, k), 0, 6, rowsPer)
		s := openStore(t, dir, k) // slices 4 and 5 pending
		if len(s.held) != 0 {
			t.Fatalf("a reopened store holds %d segments", len(s.held))
		}
		appendSlices(t, s, 6, slices, rowsPer)
		if got := sealedDigest(t, s); got != want {
			t.Fatal("reopened store compacts to other bytes than the uninterrupted one")
		}
	})
	t.Run("ResetTo", func(t *testing.T) {
		s := openStore(t, t.TempDir(), k)
		appendSlices(t, s, 0, 6, rowsPer)
		cp := s.Manifest()
		appendSlices(t, s, 6, slices-1, rowsPer) // slices 8-10 held
		if err := s.ResetTo(cp); err != nil {
			t.Fatal(err)
		}
		if len(s.held) != 0 {
			t.Fatalf("a rewound store holds %d segments", len(s.held))
		}
		appendSlices(t, s, 6, slices, rowsPer)
		if got := sealedDigest(t, s); got != want {
			t.Fatal("rewound store compacts to other bytes than the uninterrupted one")
		}
	})
}

// Compaction merges held columns, but only after the file each came
// from checks out against the manifest: a byte flipped in a pending L0
// fails the compacting append with an error naming that segment, before
// anything is written — no L1, no input retired, MANIFEST.json as it
// was (the compacting slice is empty, so it writes no L0 either).
func TestCompactionRefusesAChangedInput(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	appendSlices(t, s, 0, 3, 20)
	victim := segmentName(0, 1, 1)
	if len(s.held) != 3 {
		t.Fatalf("%d segments held before the compaction, want 3", len(s.held))
	}
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := DirDigest(t, dir)

	err = s.AppendSlice(3, nil, nil)
	if err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("compacting over a changed %s: err %v, want one naming it", victim, err)
	}
	if DirDigest(t, dir) != before {
		ents, _ := os.ReadDir(dir)
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("a refused compaction changed the directory: %v", names)
	}
}

// compactInput turns fuzz bytes into k slices of rows. The first byte
// picks k in 2..8; each following record is
//
//	op count shape addr len(s) s len(s2) s2 n
//
// op's low bits pick the slice (op % k) and its top bit the kind
// (results when set); count is 1+count%16 rows, or (count-0xef)*1000
// for count >= 0xf0 so inputs reach the 8192-row block boundary; shape
// picks the grabs; s and s2 are raw bytes (module or vantage, status,
// error and grab strings, invalid UTF-8 allowed). Missing bytes read as
// zero; past 20 000 rows the rest is ignored.
func compactInput(data []byte) (k int, caps [][]CaptureRow, results [][]*zgrab.Result) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			pos++
			return 0
		}
		pos++
		return data[pos-1]
	}
	str := func() string {
		n := int(next() % 24)
		b := make([]byte, n)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	k = 2 + int(next()%7)
	caps, results = make([][]CaptureRow, k), make([][]*zgrab.Result, k)
	at := time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC)
	total := 0
	for pos < len(data) && total < 20000 {
		op, count, shape, addr := next(), next(), next(), next()
		s, s2, n := str(), str(), next()
		rows := 1 + int(count%16)
		if count >= 0xf0 {
			rows = int(count-0xef) * 1000
		}
		rows = min(rows, 20000-total)
		sl := int(op&0x7f) % k
		for i := 0; i < rows; i++ {
			total++
			var a [16]byte
			a[0], a[1], a[4], a[5] = 0x20, 0x01, addr, byte(i>>6)
			binary.BigEndian.PutUint32(a[12:], uint32(total))
			ip := netip.AddrFrom16(a)
			if op&0x80 == 0 {
				caps[sl] = append(caps[sl], CaptureRow{Addr: ip, Vantage: s})
				continue
			}
			r := &zgrab.Result{IP: ip, Module: s, Port: uint16(n) + uint16(i%3), Status: zgrab.StatusSuccess,
				Time: at.Add(time.Duration(total) * time.Millisecond), Attempts: int(n % 3), Seq: int64(total)}
			if shape&1 != 0 {
				r.Status, r.Error = zgrab.Status(s2), s
			}
			if shape&2 != 0 {
				r.HTTP = &zgrab.HTTPGrab{StatusCode: int(n), Title: s2, Server: s}
			}
			if shape&4 != 0 {
				r.SSH = &zgrab.SSHGrab{ServerID: s2, Software: s}
			}
			if shape&8 != 0 {
				r.TLS = &zgrab.TLSGrab{Version: s, HandshakeOK: true, Subject: s2, NotBefore: at, NotAfter: at.AddDate(1, 0, 0)}
			}
			if shape&16 != 0 {
				r.CoAP = &zgrab.CoAPGrab{Code: s, Resources: []string{s2}}
			}
			results[sl] = append(results[sl], r)
		}
	}
	return k, caps, results
}

// FuzzCompactIsConcatenation is the compactor's byte-exact oracle. Rows
// derived from the input are appended as k slices with CompactEvery k,
// once straight through — the merge works from the columns the store
// held since each append — and once with the store reopened before the
// k-th append, which merges the first k-1 segments decoded from their
// files. Each time the L1 image must be what a fresh segBuilder writes
// when fed every capture and then every result the L0 segments hold,
// in segment order, as the row view reads them back.
func FuzzCompactIsConcatenation(f *testing.F) {
	for _, seed := range compactSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, caps, results := compactInput(data)
		for _, reopen := range []bool{false, true} {
			dir := t.TempDir()
			s := openStore(t, dir, k)
			for sl := 0; sl < k; sl++ {
				if sl == k-1 {
					if n := len(s.held); !reopen && n != countNonEmpty(caps, results, k-1) {
						t.Fatalf("%d segments held before the compaction", n)
					}
					if reopen {
						s = openStore(t, dir, k)
					}
				}
				if err := s.AppendSlice(sl, caps[sl], results[sl]); err != nil {
					t.Fatalf("append slice %d: %v", sl, err)
				}
			}
			man := s.Manifest()
			if countNonEmpty(caps, results, k) < 2 {
				if len(man.Segments) > 1 || len(man.Segments) == 1 && man.Segments[0].Level != 0 {
					t.Fatalf("nothing to merge, yet the manifest is %+v", man.Segments)
				}
				continue
			}
			if len(man.Segments) != 1 || man.Segments[0].Level != 1 {
				t.Fatalf("after the compaction the manifest is %+v", man.Segments)
			}
			got, err := os.ReadFile(filepath.Join(dir, man.Segments[0].Name))
			if err != nil {
				t.Fatal(err)
			}
			if want := concatenation(t, dir, k); !bytes.Equal(got, want) {
				t.Fatalf("reopen %v: the L1 image (%d bytes) is not the concatenation of its inputs (%d bytes)", reopen, len(got), len(want))
			}
		}
	})
}

func countNonEmpty(caps [][]CaptureRow, results [][]*zgrab.Result, slices int) int {
	n := 0
	for sl := 0; sl < slices; sl++ {
		if len(caps[sl]) > 0 || len(results[sl]) > 0 {
			n++
		}
	}
	return n
}

// concatenation is the reference image: the rows of the retired L0
// segments of slices 0..k-1, captures then results, in segment order,
// through a fresh builder.
func concatenation(t *testing.T, dir string, k int) []byte {
	t.Helper()
	type capRow struct {
		c     CaptureRow
		slice int
	}
	type resRow struct {
		r     *zgrab.Result
		slice int
	}
	var caps []capRow
	var results []resRow
	for sl := 0; sl < k; sl++ {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(0, sl, sl)+retiredSuffix))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		err = DecodeSegment(data,
			func(c CaptureRow, slice int) error { caps = append(caps, capRow{c, slice}); return nil },
			func(r *zgrab.Result, slice int) error { results = append(results, resRow{r, slice}); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	sb := newSegBuilder(new(blockWriter), false)
	for _, c := range caps {
		sb.addCapture(c.c, c.slice)
	}
	for _, r := range results {
		if err := sb.addResult(r.r, r.slice); err != nil {
			t.Fatal(err)
		}
	}
	img, _ := sb.finish()
	return img
}

// compactSeeds are FuzzCompactIsConcatenation's committed corpus: the
// smallest merge, merges that cross the 8192-row block boundary within
// a source block and between them, a module dictionary past the 64 ids
// a pruning mask has, grabs with invalid UTF-8, empty slices between
// full ones, and one full slice of k (nothing to merge).
func compactSeeds() map[string][]byte {
	rec := func(op, count, shape, addr byte, s, s2 string, n byte) []byte {
		b := []byte{op, count, shape, addr, byte(len(s))}
		b = append(append(b, s...), byte(len(s2)))
		return append(append(b, s2...), n)
	}
	cat := func(k byte, recs ...[]byte) []byte { return bytes.Join(append([][]byte{{k}}, recs...), nil) }
	const res = 0x80
	var overflow [][]byte
	for i := 0; i < 70; i++ {
		overflow = append(overflow, rec(res|byte(i%3), 0, byte(i), byte(i), fmt.Sprintf("mod%02d", i), "title", byte(i)))
	}
	return map[string][]byte{
		"seed-two-rows": cat(0, rec(0, 0, 0, 1, "DE", "", 0), rec(res|1, 0, 2, 2, "http", "x", 80)),
		"seed-block-boundary": cat(2,
			rec(0, 0xf3, 0, 1, "DE", "", 0), rec(res|0, 0xf2, 6, 3, "ssh", "SSH-2.0-OpenSSH", 22),
			rec(1, 0xf2, 0, 2, "US", "", 0), rec(res|1, 0xf6, 2, 4, "http", "<title>", 80),
			rec(res|2, 0x05, 8, 5, "https", "CN=a", 7), rec(3, 0xf1, 0, 9, "JP", "", 0)),
		"seed-dict-overflow":    cat(1, overflow...),
		"seed-invalid-utf8":     cat(3, rec(res|0, 4, 6, 1, "ssh", "SSH-2.0-\xff\xfe", 1), rec(2, 3, 0, 2, "\xc3", "", 0), rec(res|3, 2, 17, 3, "coap\xe2\x80", " &\xff", 2)),
		"seed-empty-slices":     cat(6, rec(0, 9, 0, 1, "DE", "", 0), rec(res|4, 9, 3, 2, "http", "timeout", 5), rec(res|7, 1, 4, 3, "", "", 0)),
		"seed-nothing-to-merge": cat(0, rec(res|1, 7, 2, 1, "http", "t", 1), rec(1, 7, 0, 1, "US", "", 0)),
	}
}
