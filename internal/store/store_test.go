package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ntpscan/internal/zgrab"
)

var testMods = []string{"http", "tls", "ssh", "mqtt"}

func testAddr(i int) netip.Addr {
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x0d, 0xb8
	b[4] = byte(i >> 8) // vary the /48
	b[5] = byte(i)
	b[15] = byte(i * 7)
	return netip.AddrFrom16(b)
}

func testResult(i, slice int) *zgrab.Result {
	r := &zgrab.Result{
		IP:     testAddr(i),
		Module: testMods[i%len(testMods)],
		Port:   uint16(80 + i%3),
		Time:   time.Date(2024, 7, 20, 0, 0, 0, 0, time.UTC).Add(time.Duration(slice*1000+i) * time.Millisecond),
		Status: zgrab.StatusSuccess,
		Seq:    int64(slice*10000 + i),
	}
	if i%5 == 0 {
		r.Status = zgrab.StatusTimeout
		r.Error = "i/o timeout"
	}
	switch r.Module {
	case "http":
		r.HTTP = &zgrab.HTTPGrab{StatusCode: 200, Title: fmt.Sprintf("title-%d", i%4), Server: "nginx"}
	case "tls":
		r.TLS = &zgrab.TLSGrab{Version: "TLSv1.3", HandshakeOK: true, CertFingerprint: fmt.Sprintf("fp-%d", i%6)}
	case "ssh":
		r.SSH = &zgrab.SSHGrab{ServerID: "SSH-2.0-OpenSSH_9.6", Software: "OpenSSH_9.6"}
	}
	return r
}

func testCapture(i int) CaptureRow {
	vans := []string{"DE", "US", "JP"}
	return CaptureRow{Addr: testAddr(i), Vantage: vans[i%len(vans)]}
}

// fillStore appends nSlices slices of rowsPer rows each.
func fillStore(t *testing.T, s *Store, nSlices, rowsPer int) (caps int, results int) {
	t.Helper()
	for sl := 0; sl < nSlices; sl++ {
		var cs []CaptureRow
		var rs []*zgrab.Result
		for i := 0; i < rowsPer; i++ {
			cs = append(cs, testCapture(sl*rowsPer+i))
			rs = append(rs, testResult(sl*rowsPer+i, sl))
		}
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatalf("append slice %d: %v", sl, err)
		}
		caps += len(cs)
		results += len(rs)
	}
	return caps, results
}

func scanAll(t *testing.T, s *Store) (caps []CaptureRow, results []*zgrab.Result, stats ScanStats) {
	t.Helper()
	it := s.Scan(Pred{})
	for it.Next() {
		r := it.Row()
		switch r.Kind {
		case KindCaptures:
			caps = append(caps, r.Capture)
		case KindResults:
			results = append(results, r.Result)
		}
	}
	if it.Err() != nil {
		t.Fatalf("scan: %v", it.Err())
	}
	return caps, results, it.Stats()
}

func TestRoundTripAndCanonicalOrder(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	wantCaps, wantRes := fillStore(t, s, 6, 40)
	caps, results, _ := scanAll(t, s)
	if len(caps) != wantCaps || len(results) != wantRes {
		t.Fatalf("got %d caps %d results, want %d %d", len(caps), len(results), wantCaps, wantRes)
	}
	for i, r := range results {
		sl := i / 40
		want := testResult(i%40+sl*40, sl)
		got, _ := r.AppendGrabs(nil)
		wg, _ := want.AppendGrabs(nil)
		if r.IP != want.IP || r.Module != want.Module || r.Port != want.Port ||
			!r.Time.Equal(want.Time) || r.Status != want.Status || r.Error != want.Error ||
			r.Seq != want.Seq || !bytes.Equal(got, wg) {
			t.Fatalf("result %d mismatch:\n got %+v\nwant %+v", i, r, want)
		}
	}
	for i, c := range caps {
		sl := i / 40
		want := testCapture(i%40 + sl*40)
		if c != want {
			t.Fatalf("capture %d: got %+v want %+v", i, c, want)
		}
	}
	if gc, gr, err := s.Rows(); err != nil || gc != int64(wantCaps) || gr != int64(wantRes) {
		t.Fatalf("Rows() = %d,%d,%v want %d,%d", gc, gr, err, wantCaps, wantRes)
	}
}

func TestCompactionPreservesRowsAndBytes(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sa, err := Open(dirA, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Open(dirB, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, sa, 8, 30)
	fillStore(t, sb, 8, 30)

	_, resA, _ := scanAll(t, sa)
	_, resB, _ := scanAll(t, sb)
	if len(resA) != len(resB) {
		t.Fatalf("row counts diverge: %d vs %d", len(resA), len(resB))
	}
	var ja, jb bytes.Buffer
	if err := sa.ExportJSONL(&ja, Pred{}); err != nil {
		t.Fatal(err)
	}
	if err := sb.ExportJSONL(&jb, Pred{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("JSONL export differs between compacted and uncompacted stores")
	}
	man := sb.Manifest()
	if len(man.Segments) != 2 {
		t.Fatalf("compacted store has %d segments, want 2 L1s: %+v", len(man.Segments), man.Segments)
	}
	for _, si := range man.Segments {
		if si.Level != 1 {
			t.Fatalf("segment %s still at level %d", si.Name, si.Level)
		}
	}
}

func TestDeterministicDirectoryBytes(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var hashes [2]string
	for i, dir := range dirs {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, s, 10, 25)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		hashes[i] = DirDigest(t, dir)
	}
	if hashes[0] != hashes[1] {
		t.Fatal("identical appends produced different directory bytes")
	}
}

func TestPredicatePushdownSkipsBlocks(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 8, 50)

	// Kind pushdown: a results-only scan must skip every capture block.
	it := s.Scan(Pred{Kind: KindResults})
	n := 0
	for it.Next() {
		if it.Row().Kind != KindResults {
			t.Fatal("kind filter leaked a capture row")
		}
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	st := it.Stats()
	if st.BlocksSkipped == 0 || st.BytesSkipped == 0 {
		t.Fatalf("kind pushdown skipped nothing: %+v", st)
	}
	if n != 8*50 {
		t.Fatalf("got %d results, want %d", n, 8*50)
	}

	// Slice pushdown on the uncompacted tail + compacted body.
	it = s.Scan(Pred{Slices: &SliceRange{Lo: 2, Hi: 3}})
	n = 0
	for it.Next() {
		if r := it.Row(); r.Slice < 2 || r.Slice > 3 {
			t.Fatalf("slice filter leaked slice %d", r.Slice)
		}
		n++
	}
	if n != 2*2*50 {
		t.Fatalf("slice scan got %d rows, want %d", n, 2*2*50)
	}

	// Module pushdown.
	it = s.Scan(Pred{Modules: []string{"http"}})
	n = 0
	for it.Next() {
		r := it.Row()
		if r.Kind == KindResults && r.Result.Module != "http" {
			t.Fatal("module filter leaked")
		}
		n++
	}
	if n == 0 {
		t.Fatal("module scan found nothing")
	}

	// Prefix pushdown: exact /48 → bloom + min/max pruning.
	p := netip.PrefixFrom(testAddr(7), 48)
	it = s.Scan(Pred{Prefix: p})
	n = 0
	for it.Next() {
		r := it.Row()
		var a netip.Addr
		if r.Kind == KindCaptures {
			a = r.Capture.Addr
		} else {
			a = r.Result.IP
		}
		if !p.Contains(a) {
			t.Fatalf("prefix filter leaked %s", a)
		}
		n++
	}
	if n == 0 {
		t.Fatal("prefix scan found nothing")
	}
	// A /48 that never appears must be pruned without reading blocks.
	var b [16]byte
	b[0] = 0xfd
	it = s.Scan(Pred{Prefix: netip.PrefixFrom(netip.AddrFrom16(b), 48)})
	for it.Next() {
		t.Fatal("absent prefix matched a row")
	}
	if st := it.Stats(); st.BlocksRead != 0 {
		t.Fatalf("absent-prefix scan read %d blocks, want 0", st.BlocksRead)
	}
}

func TestRecoverDropsUnsealedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 4, 20)
	man := s.Manifest()

	// Simulate a crash mid-write: a stray tmp, an unmanifested sealed
	// segment, and a torn (truncated) manifested segment.
	if err := os.WriteFile(filepath.Join(dir, "seg-L0-00009.seg.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-L0-00008.seg"), []byte("sealed but unmanifested"), 0o644); err != nil {
		t.Fatal(err)
	}
	last := man.Segments[len(man.Segments)-1]
	full, err := os.ReadFile(filepath.Join(dir, last.Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, last.Name), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := s2.Manifest()
	if len(got.Segments) != len(man.Segments)-1 {
		t.Fatalf("recovered %d segments, want %d", len(got.Segments), len(man.Segments)-1)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") || e.Name() == "seg-L0-00008.seg" || e.Name() == last.Name {
			t.Fatalf("unsealed tail survived recovery: %s", e.Name())
		}
	}
	// The recovered store accepts the torn slice again and ends up
	// byte-identical to a never-crashed store.
	var cs []CaptureRow
	var rs []*zgrab.Result
	for i := 0; i < 20; i++ {
		cs = append(cs, testCapture(3*20+i))
		rs = append(rs, testResult(3*20+i, 3))
	}
	if err := s2.AppendSlice(3, cs, rs); err != nil {
		t.Fatal(err)
	}

	ref, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, ref, 4, 20)
	if DirDigest(t, dir) != DirDigest(t, ref.Dir()) {
		t.Fatal("recovered+reappended store differs from uninterrupted store")
	}
}

// A segment whose bytes match its manifest entry but whose footer does
// not parse cannot come from a crash: the store parsed those very bytes
// before it listed them. Open and ResetTo refuse it, naming it, before
// they delete a file or rewrite the manifest — here a stray .tmp and,
// for ResetTo, the segment after it would go if they went ahead.
func TestOpenRefusesAManifestValidSegmentWithACorruptFooter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 3, 20)
	man := s.Manifest()
	bad := &man.Segments[1]
	path := filepath.Join(dir, bad.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ftrStart, _, err := parseTrailer(data)
	if err != nil {
		t.Fatal(err)
	}
	data[ftrStart] ^= 0xff // the footer's version byte
	bad.Size, bad.CRC32 = int64(len(data)), crcOf(data)
	mdata, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		bad.Name:               data,
		manifestName:           append(mdata, '\n'),
		"seg-L0-00003.seg.tmp": []byte("partial"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	digest := DirDigest(t, dir)

	if _, err := Open(dir, Options{CompactEvery: -1}); err == nil || !strings.Contains(err.Error(), "store: segment "+bad.Name) {
		t.Fatalf("Open = %v, want an error naming %s", err, bad.Name)
	}
	if DirDigest(t, dir) != digest {
		t.Fatal("the refused Open changed the directory")
	}
	man.Segments = man.Segments[:2]
	if err := s.ResetTo(man); err == nil || !strings.Contains(err.Error(), "store: segment "+bad.Name) {
		t.Fatalf("ResetTo = %v, want an error naming %s", err, bad.Name)
	}
	if DirDigest(t, dir) != digest {
		t.Fatal("the refused ResetTo changed the directory")
	}
}

func TestResetToResurrectsRetiredInputs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint after slice 1 (two L0s live), then run through the
	// compaction at slice 3 which consumes them.
	fillStore(t, s, 2, 15)
	cp := s.Manifest()
	for sl := 2; sl < 4; sl++ {
		var cs []CaptureRow
		var rs []*zgrab.Result
		for i := 0; i < 15; i++ {
			cs = append(cs, testCapture(sl*15+i))
			rs = append(rs, testResult(sl*15+i, sl))
		}
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Manifest().Segments); n != 1 {
		t.Fatalf("expected one L1 after compaction, got %d", n)
	}
	if err := s.ResetTo(cp); err != nil {
		t.Fatalf("reset to pre-compaction checkpoint: %v", err)
	}
	got := s.Manifest()
	if len(got.Segments) != 2 {
		t.Fatalf("reset manifest has %d segments, want 2", len(got.Segments))
	}
	// Replaying the same appends reproduces the uninterrupted directory.
	for sl := 2; sl < 4; sl++ {
		var cs []CaptureRow
		var rs []*zgrab.Result
		for i := 0; i < 15; i++ {
			cs = append(cs, testCapture(sl*15+i))
			rs = append(rs, testResult(sl*15+i, sl))
		}
		if err := s.AppendSlice(sl, cs, rs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(t.TempDir(), Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, ref, 4, 15)
	if err := ref.Seal(); err != nil {
		t.Fatal(err)
	}
	if DirDigest(t, dir) != DirDigest(t, ref.Dir()) {
		t.Fatal("reset+replayed store differs from uninterrupted store")
	}
}

func TestAppendSliceRejectsOutOfOrder(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSlice(5, nil, []*zgrab.Result{testResult(0, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSlice(5, nil, []*zgrab.Result{testResult(1, 5)}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestDecodeSegmentRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 1, 35)
	man := s.Manifest()
	data, err := os.ReadFile(filepath.Join(s.Dir(), man.Segments[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	var nc, nr int
	countCap := func(CaptureRow, int) error { nc++; return nil }
	countRes := func(*zgrab.Result, int) error { nr++; return nil }
	err = DecodeSegment(data, countCap, countRes)
	if err != nil {
		t.Fatal(err)
	}
	if nc != 35 || nr != 35 {
		t.Fatalf("decoded %d caps %d results, want 35 each", nc, nr)
	}
	// Any flipped byte must fail decode, never panic.
	for _, off := range []int{0, 5, len(data) / 2, len(data) - 3} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if err := DecodeSegment(mut, countCap, countRes); err == nil {
			t.Fatalf("corruption at offset %d decoded cleanly", off)
		}
	}
}
