package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ntpscan/internal/zgrab"
)

// seedSegment builds a small valid segment image covering both row
// kinds, multi-slice rows, and every column type — the canonical
// corpus entry the fuzzer mutates from.
func seedSegment(tb testing.TB, nCaps, nRes int) []byte {
	sb := newSegBuilder(new(blockWriter))
	for i := 0; i < nCaps; i++ {
		sb.addCapture(testCapture(i), i%3)
	}
	for i := 0; i < nRes; i++ {
		if err := sb.addResult(testResult(i, i%3), i%3); err != nil {
			tb.Fatal(err)
		}
	}
	data, _ := sb.finish()
	return data
}

// FuzzSegmentDecode hardens the segment footer and block decoders:
// arbitrary bytes must either fail with an error or decode cleanly —
// never panic, never over-allocate — and anything that decodes must
// survive a re-encode/re-decode round trip with its row streams
// intact, and must read the same through both views of a block: the
// line the column writer emits is valid JSON and is AppendJSON of the
// row the row view builds (checkColumnWriter). This is the boundary
// crash recovery crosses when it reopens a store after a torn write,
// and the one a query reply's bytes come across.
func FuzzSegmentDecode(f *testing.F) {
	full := seedSegment(f, 24, 24)
	f.Add(full)
	f.Add(seedSegment(f, 1, 0))
	f.Add(seedSegment(f, 0, 3))
	f.Add(full[:len(full)/2]) // truncated tail
	f.Add([]byte(segMagic))   // header only
	f.Add([]byte("not a segment"))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		type capRow struct {
			c     CaptureRow
			slice int
		}
		type resRow struct {
			j     string
			slice int
		}
		var caps []capRow
		var results []resRow
		sane := true
		err := DecodeSegment(data,
			func(c CaptureRow, slice int) error {
				if slice < 0 || slice > 1<<20 {
					sane = false
				}
				caps = append(caps, capRow{c, slice})
				return nil
			},
			func(r *zgrab.Result, slice int) error {
				if slice < 0 || slice > 1<<20 {
					sane = false
				}
				b, err := json.Marshal(r)
				if err != nil {
					return err
				}
				results = append(results, resRow{string(b), slice})
				return nil
			})
		if err != nil {
			return // rejected: no panic is the contract
		}
		checkColumnWriter(t, data)
		if !sane {
			// Decoded rows outside the writer's domain — adversarial but
			// well-formed inputs the builder can't round-trip.
			return
		}
		// Accepted inputs must round-trip through the builder.
		sb := newSegBuilder(new(blockWriter))
		for _, cr := range caps {
			sb.addCapture(cr.c, cr.slice)
		}
		for _, rr := range results {
			r := &zgrab.Result{}
			if err := json.Unmarshal([]byte(rr.j), r); err != nil {
				t.Fatalf("re-decode row: %v", err)
			}
			if err := sb.addResult(r, rr.slice); err != nil {
				t.Fatalf("re-add row: %v", err)
			}
		}
		rebuilt, _ := sb.finish()
		var caps2 []capRow
		var results2 []resRow
		err = DecodeSegment(rebuilt,
			func(c CaptureRow, slice int) error {
				caps2 = append(caps2, capRow{c, slice})
				return nil
			},
			func(r *zgrab.Result, slice int) error {
				b, err := json.Marshal(r)
				if err != nil {
					return err
				}
				results2 = append(results2, resRow{string(b), slice})
				return nil
			})
		if err != nil {
			t.Fatalf("re-encoded segment failed to decode: %v", err)
		}
		if len(caps2) != len(caps) || len(results2) != len(results) {
			t.Fatalf("round trip changed row counts: %d/%d -> %d/%d",
				len(caps), len(results), len(caps2), len(results2))
		}
		for i := range caps {
			if caps[i] != caps2[i] {
				t.Fatalf("capture row %d changed across round trip", i)
			}
		}
		for i := range results {
			if results[i] != results2[i] {
				t.Fatalf("result row %d changed across round trip", i)
			}
		}
	})
}

// manifestFixture is what FuzzManifestRecover puts beside the manifest
// under test: two valid one-slice segments, and the manifest the store
// itself wrote for them.
type manifestFixture struct {
	segs  map[string][]byte
	valid []byte
}

func newManifestFixture(tb testing.TB) manifestFixture {
	dir := tb.TempDir()
	s, err := Open(dir, Options{CompactEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	appendOne(tb, s, 0, 8)
	appendOne(tb, s, 1, 8)
	fx := manifestFixture{segs: map[string][]byte{}}
	for _, si := range s.Manifest().Segments {
		if fx.segs[si.Name], err = os.ReadFile(filepath.Join(dir, si.Name)); err != nil {
			tb.Fatal(err)
		}
	}
	if fx.valid, err = os.ReadFile(filepath.Join(dir, manifestName)); err != nil {
		tb.Fatal(err)
	}
	return fx
}

// seeds are the manifests a hostile or damaged directory might hold,
// each derived from the valid one.
func (fx manifestFixture) seeds(tb testing.TB) map[string][]byte {
	var m Manifest
	if err := json.Unmarshal(fx.valid, &m); err != nil || len(m.Segments) != 2 {
		tb.Fatalf("fixture manifest: %v (%d segments)", err, len(m.Segments))
	}
	edit := func(fn func(first *SegmentInfo, m *Manifest)) []byte {
		c := Manifest{Version: m.Version, Segments: slices.Clone(m.Segments)}
		fn(&c.Segments[0], &c)
		out, err := json.Marshal(c)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	return map[string][]byte{
		"valid":     fx.valid,
		"empty":     {},
		"null":      []byte("null"),
		"truncated": fx.valid[:len(fx.valid)/2],
		// Size and CRC still describe segment 0's bytes, which the fuzz
		// target also leaves outside the directory as ../x.seg.retired.
		"dotdot":        edit(func(si *SegmentInfo, _ *Manifest) { si.Name = "../x.seg" }),
		"absolute":      edit(func(si *SegmentInfo, _ *Manifest) { si.Name = "/x.seg" }),
		"nul":           edit(func(si *SegmentInfo, _ *Manifest) { si.Name += "\x00" }),
		"duplicate":     edit(func(si *SegmentInfo, m *Manifest) { m.Segments = append(m.Segments, *si) }),
		"negative":      edit(func(si *SegmentInfo, _ *Manifest) { si.SliceLo = -1 }),
		"inverted":      edit(func(si *SegmentInfo, _ *Manifest) { si.SliceLo, si.SliceHi = 5, 2 }),
		"bad-level":     edit(func(si *SegmentInfo, _ *Manifest) { si.Level = 7 }),
		"rows-overflow": bytes.Replace(fx.valid, []byte(`"rows":`), []byte(`"rows":99999999999999999999`), 1),
		"size-overflow": bytes.Replace(fx.valid, []byte(`"size":`), []byte(`"size":1e400,"x":`), 1),
	}
}

// FuzzManifestRecover hardens the one file in a store directory that
// names other files. Whatever MANIFEST.json holds, Open must not panic
// or fail, must touch nothing outside the directory, must come back
// with a manifest whose every entry is a segment the store could have
// written and that checks out against its file, and must leave the
// directory in a state a second Open does not change.
//
// OpenReadOnly runs first, as the cross-oracle: it must not panic, must
// change nothing inside the directory or beside it, and must agree with
// Open — when it succeeds, Open recovers the manifest it read (with
// Open's version normalisation), and when Open drops an entry the input
// listed, OpenReadOnly failed naming the entry Open truncated at.
func FuzzManifestRecover(f *testing.F) {
	fx := newManifestFixture(f)
	for _, seed := range fx.seeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{filepath.Join(dir, manifestName): manifest}
		for name, data := range fx.segs {
			files[filepath.Join(dir, name)] = data
		}
		// Bait beside the directory: what an entry named ../x.seg would
		// rename into place and validate against.
		files[filepath.Join(root, "x.seg"+retiredSuffix)] = fx.segs[segmentName(0, 0, 0)]
		for path, data := range files {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		outside := func() string {
			ents, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			return fmt.Sprint(names)
		}
		before := outside()

		digest := DirDigest(t, dir)
		ro, roErr := OpenReadOnly(dir, Options{})
		if after := outside(); after != before || DirDigest(t, dir) != digest {
			t.Fatalf("OpenReadOnly changed the directory or reached outside it: %s -> %s", before, after)
		}

		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if after := outside(); after != before {
			t.Fatalf("Open reached outside the directory: %s -> %s", before, after)
		}
		man := s.Manifest()
		if _, errs := s.check(man); len(errs) > 0 {
			t.Fatalf("recovered manifest keeps an invalid entry: %v", errs[0])
		}
		if roErr == nil {
			got := ro.Manifest()
			if got.Version == 0 {
				got.Version = 1
			}
			if !reflect.DeepEqual(got, man) {
				t.Fatalf("OpenReadOnly read %+v, Open recovered %+v", got, man)
			}
		}
		var in Manifest
		if json.Unmarshal(manifest, &in) != nil {
			if roErr == nil {
				t.Fatal("OpenReadOnly accepted a manifest that does not parse")
			}
		} else if len(man.Segments) < len(in.Segments) {
			name := in.Segments[len(man.Segments)].Name
			if roErr == nil || !strings.Contains(roErr.Error(), name) && !strings.Contains(roErr.Error(), strconv.Quote(name)) {
				t.Fatalf("Open dropped entry %q; OpenReadOnly = %v", name, roErr)
			}
		}
		first := DirDigest(t, dir)
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if !reflect.DeepEqual(s2.Manifest(), man) || DirDigest(t, dir) != first {
			t.Fatalf("second Open is not a fixed point:\n first  %+v\n second %+v", man, s2.Manifest())
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpora under
// testdata/fuzz. Skipped unless explicitly asked for:
//
//	NTPSCAN_REGEN_FUZZ_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/store/
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("NTPSCAN_REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set NTPSCAN_REGEN_FUZZ_CORPUS=1 to rewrite the committed corpus")
	}
	full := seedSegment(t, 24, 24)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x40
	corpora := map[string]map[string][]byte{
		"FuzzSegmentDecode": {
			"seed-full":        full,
			"seed-captures":    seedSegment(t, 5, 0),
			"seed-results":     seedSegment(t, 0, 5),
			"seed-truncated":   full[:len(full)/2],
			"seed-magic-only":  []byte(segMagic),
			"seed-flipped-bit": flipped,
		},
		"FuzzManifestRecover":        newManifestFixture(t).seeds(t),
		"FuzzCompactIsConcatenation": compactSeeds(),
	}
	for target, entries := range corpora {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range entries {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	// FuzzSpliceMatchesAppendJSON takes FuzzResultAppendJSON's arguments:
	// its corpus is that target's, one input per encoding rule, sent
	// through a store.
	src := filepath.Join("..", "zgrab", "testdata", "fuzz", "FuzzResultAppendJSON")
	dst := filepath.Join("testdata", "fuzz", "FuzzSpliceMatchesAppendJSON")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		body, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
