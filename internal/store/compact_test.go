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
// — the one grab a parse does not give back as it was written, so the
// pending L1 builder and the file's decoded blocks differ there unless
// the store settles it.
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

// rowString is a row as the row view reads it, one string per row: the
// slice and the capture's fields, or the slice and the result's JSON.
func rowString(t *testing.T, kind Kind, slice int, c CaptureRow, r *zgrab.Result) string {
	t.Helper()
	if kind == KindCaptures {
		return fmt.Sprintf("%d %s %q", slice, c.Addr, c.Vantage)
	}
	b, err := r.AppendJSON([]byte(fmt.Sprintf("%d ", slice)))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// liveL0Rows decodes every live L0 segment's file, in manifest order:
// its capture rows, then its result rows.
func liveL0Rows(t *testing.T, s *Store) (caps, results []string) {
	t.Helper()
	for _, si := range s.Manifest().Segments {
		if si.Level != 0 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.Dir(), si.Name))
		if err != nil {
			t.Fatal(err)
		}
		err = DecodeSegment(data,
			func(c CaptureRow, slice int) error {
				caps = append(caps, rowString(t, KindCaptures, slice, c, nil))
				return nil
			},
			func(r *zgrab.Result, slice int) error {
				results = append(results, rowString(t, KindResults, slice, CaptureRow{}, r))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	return caps, results
}

// builderRows is every row a builder holds, per kind: its framed blocks
// decoded from their section, then the block it is filling. It also
// checks the bound the builder keeps: at most one block per kind is
// still columns, every other one is framed.
func builderRows(t *testing.T, sb *segBuilder) (caps, results []string) {
	t.Helper()
	for _, p := range []*pending{&sb.caps, &sb.res} {
		var blocks []*colBlock
		for _, bi := range p.index {
			raw, err := decodeBlock(p.section[bi.Off:bi.Off+bi.Len], bi)
			if err != nil {
				t.Fatal(err)
			}
			b, err := decodeColumns(raw, bi.Kind)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		if p.n >= maxBlockRows {
			t.Fatalf("the builder holds %d unframed %s rows", p.n, p.kind)
		}
		open := p.colBlock
		open.vans = p.dicts[0].vals
		open.mods, open.stats, open.errs = p.dicts[0].vals, p.dicts[1].vals, p.dicts[2].vals
		blocks = append(blocks, &open)
		for _, b := range blocks {
			for i := 0; i < b.n; i++ {
				if b.kind == KindCaptures {
					caps = append(caps, rowString(t, b.kind, b.slices[i], b.capture(i), nil))
				} else {
					results = append(results, rowString(t, b.kind, b.slices[i], CaptureRow{}, b.result(i)))
				}
			}
		}
	}
	return caps, results
}

// checkPendingL1 holds the store's pending L1 builder to its invariant
// — exactly the live L0 segments' rows, as their files decode — and
// returns how many rows it holds.
func checkPendingL1(t *testing.T, s *Store) int {
	t.Helper()
	if s.l1 == nil {
		t.Fatal("the store has no pending L1 builder")
	}
	gotCaps, gotRes := builderRows(t, s.l1)
	wantCaps, wantRes := liveL0Rows(t, s)
	if !reflect.DeepEqual(gotCaps, wantCaps) || !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("the pending L1 builder holds %d captures and %d results, not the live L0s' %d and %d",
			len(gotCaps), len(gotRes), len(wantCaps), len(wantRes))
	}
	return len(gotCaps) + len(gotRes)
}

// The pending L1 builder holds exactly the rows the live L0 segments'
// files decode to, and frames each L1 block as it fills: over 24 slices
// of 1 500 captures and 1 500 results with K = 8, a block of each kind
// is framed before its window closes, and the builder is empty after
// every eighth slice and after a reopen at a window boundary. With
// compaction off there is no builder.
func TestPendingL1IsTheLiveL0s(t *testing.T) {
	const slices, rowsPer = 24, 1500
	for _, k := range []int{8, -1} {
		dir := t.TempDir()
		s := openStore(t, dir, k)
		framedEarly := false
		for sl := 0; sl < slices; sl++ {
			if sl == 16 {
				s = openStore(t, dir, k)
			}
			appendSlices(t, s, sl, sl+1, rowsPer)
			if k < 0 {
				if s.l1 != nil {
					t.Fatalf("slice %d: a pending L1 builder with compaction off", sl)
				}
				continue
			}
			n := checkPendingL1(t, s)
			if (sl+1)%k == 0 && n != 0 {
				t.Fatalf("slice %d closes a window, yet the builder holds %d rows", sl, n)
			}
			if (sl+1)%k != 0 && len(s.l1.caps.index) > 0 && len(s.l1.res.index) > 0 {
				framedEarly = true
			}
		}
		if k > 0 && !framedEarly {
			t.Error("no window framed a block of each kind before it closed")
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
		if s.l1 != nil {
			t.Fatal("a store reopened mid-window has a pending L1 builder")
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
		appendSlices(t, s, 6, slices-1, rowsPer) // slices 8-10 in the builder
		if err := s.ResetTo(cp); err != nil {
			t.Fatal(err)
		}
		if s.l1 != nil {
			t.Fatal("a store rewound mid-window has a pending L1 builder")
		}
		appendSlices(t, s, 6, slices, rowsPer)
		if got := sealedDigest(t, s); got != want {
			t.Fatal("rewound store compacts to other bytes than the uninterrupted one")
		}
	})
}

// Compaction merges what the pending L1 builder holds, but only after
// the file each input came from checks out against the manifest: a byte flipped in a pending L0
// fails the compacting append with an error naming that segment, before
// anything is written — no L1, no input retired, MANIFEST.json as it
// was (the compacting slice is empty, so it writes no L0 either).
func TestCompactionRefusesAChangedInput(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	appendSlices(t, s, 0, 3, 20)
	victim := segmentName(0, 1, 1)
	if n := checkPendingL1(t, s); n != 3*2*20 {
		t.Fatalf("the builder holds %d rows before the compaction, want %d", n, 3*2*20)
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
// picks k in 2..8 (and, through mid, where the fuzz target reopens and
// rewinds the store); each following record is
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
// three times: straight through, where the merge takes what the pending
// L1 builder framed as each segment was appended; with the store
// reopened before slice m; and with slices m..k-2 appended, then the
// store rewound with ResetTo to its manifest before slice m and the
// rest appended again. m is mid (see compactInput). A store reopened
// or rewound with L0 segments live has no builder, and merges every
// input decoded from its file. Each time the L1 image must be what a
// fresh segBuilder writes when fed every capture and then every result
// the L0 segments hold, in segment order, as the row view reads them
// back.
func FuzzCompactIsConcatenation(f *testing.F) {
	for _, seed := range compactSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, caps, results := compactInput(data)
		m := mid(data, k)
		appendRange := func(s *Store, lo, hi int) {
			for sl := lo; sl < hi; sl++ {
				if err := s.AppendSlice(sl, caps[sl], results[sl]); err != nil {
					t.Fatalf("append slice %d: %v", sl, err)
				}
			}
		}
		// noBuilderRows checks a store just reopened or rewound before
		// slice m: a builder only if no L0 is live, and then an empty one.
		noBuilderRows := func(s *Store, how string) {
			live := countNonEmpty(caps, results, m)
			if (s.l1 == nil) != (live > 0) || s.l1 != nil && checkPendingL1(t, s) != 0 {
				t.Fatalf("%s before slice %d with %d L0s live: pending L1 builder %v", how, m, live, s.l1 != nil)
			}
		}
		for _, leg := range []string{"straight", "Open", "ResetTo"} {
			dir := t.TempDir()
			s := openStore(t, dir, k)
			switch leg {
			case "straight":
				appendRange(s, 0, k-1)
				checkPendingL1(t, s)
			case "Open":
				appendRange(s, 0, m)
				s = openStore(t, dir, k)
				noBuilderRows(s, leg)
				appendRange(s, m, k-1)
			case "ResetTo":
				appendRange(s, 0, m)
				man := s.Manifest()
				appendRange(s, m, k-1)
				if err := s.ResetTo(man); err != nil {
					t.Fatal(err)
				}
				noBuilderRows(s, leg)
				appendRange(s, m, k-1)
			}
			appendRange(s, k-1, k)
			man := s.Manifest()
			if countNonEmpty(caps, results, k) < 2 {
				if len(man.Segments) > 1 || len(man.Segments) == 1 && man.Segments[0].Level != 0 {
					t.Fatalf("%s: nothing to merge, yet the manifest is %+v", leg, man.Segments)
				}
				continue
			}
			if len(man.Segments) != 1 || man.Segments[0].Level != 1 {
				t.Fatalf("%s: after the compaction the manifest is %+v", leg, man.Segments)
			}
			got, err := os.ReadFile(filepath.Join(dir, man.Segments[0].Name))
			if err != nil {
				t.Fatal(err)
			}
			if want := concatenation(t, dir, k); !bytes.Equal(got, want) {
				t.Fatalf("%s: the L1 image (%d bytes) is not the concatenation of its inputs (%d bytes)", leg, len(got), len(want))
			}
		}
	})
}

// mid is the slice before which the fuzz target reopens or rewinds the
// store: the first input byte b picks k as 2+b%7 and mid as (b/7)%k, or
// k-1 when that is 0.
func mid(data []byte, k int) int {
	if len(data) > 0 {
		if m := int(data[0]/7) % k; m > 0 {
			return m
		}
	}
	return k - 1
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
	sb := newSegBuilder(new(blockWriter))
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
// full ones, and one full slice of k (nothing to merge). Three more
// hold what a builder writing one stream of blocks gets wrong: a result
// block that fills in the window's first slice while captures keep
// arriving — and fill a block — in later ones; and the Open and ResetTo
// legs at a mid-window slice, with L0 segments live on both sides of it
// and blocks filling after it.
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
		"seed-results-fill-first": cat(1,
			rec(res|0, 0xf8, 6, 1, "ssh", "SSH-2.0-\xff", 22), rec(0, 4, 0, 2, "DE", "", 0),
			rec(1, 0xf8, 0, 3, "US", "", 0), rec(2, 5, 0, 4, "JP", "", 0), rec(res|2, 3, 2, 5, "http", "t", 80)),
		// k = 5, reopened before slice 2.
		"seed-reopen-mid-window": cat(7*2+3,
			rec(0, 0xf1, 0, 1, "DE", "", 0), rec(res|1, 0xf3, 2, 2, "http", "<title>", 80),
			rec(2, 0xf6, 0, 3, "US", "", 0), rec(res|3, 0xf5, 4, 4, "ssh", "SSH-2.0-x", 22), rec(res|4, 2, 8, 5, "https", "CN=a", 3)),
		// k = 6, rewound to its manifest before slice 2 once slices 2-4
		// were appended.
		"seed-rewind-mid-window": cat(7*2+4,
			rec(res|0, 0xf2, 6, 1, "ssh", "SSH-2.0-\xfe", 22), rec(1, 0xf1, 0, 2, "DE", "", 0),
			rec(res|2, 0xf4, 2, 3, "http", "t", 80), rec(3, 0xf6, 0, 4, "US", "", 0),
			rec(res|4, 0xf1, 16, 5, "coap", "/x", 5), rec(5, 3, 0, 6, "JP", "", 0)),
	}
}
