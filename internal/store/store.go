// Package store is the campaign's embedded columnar result store: an
// append-only segment log that replaces raw JSONL as the durable
// substrate for capture events and zgrab scan results, while keeping
// JSONL export as a compatibility view (ExportJSONL).
//
// # On-disk layout
//
// A store is a directory:
//
//	dir/
//	  MANIFEST.json            current live segment list (atomic rename)
//	  seg-L0-00042.seg         one immutable L0 segment per drain slice
//	  seg-L1-00040-00047.seg   compacted L1 segment (merged L0 run)
//	  *.seg.retired            compaction inputs, kept until Seal/ResetTo
//
// Each segment file is
//
//	"NTPSSEG1" | block* | footer | trailer
//
// where every block is a length-prefixed, CRC'd, flate-compressed group
// of column vectors ([u32 payloadLen][u32 crc32c][flate payload]), the
// footer carries one sparse index entry per block (kind, slice range,
// row count, vantage/module bitmask, min//48,max//48 key range) plus a
// segment-level bloom filter over /48 prefixes, and the trailer is
// [u32 footerLen][u32 footerCRC]["NTPSFTR1"]. See segment.go for the
// byte-exact format and DESIGN.md "Storage" for the invariants.
//
// # Determinism and crash consistency
//
// Segment bytes are a pure function of the rows appended: dictionaries
// are built in first-appearance order, all integer columns are
// delta/varint coded in row order, and nothing wall-clock-dependent is
// written. A campaign therefore produces bit-identical store
// directories at any worker count, and a resumed campaign (ResetTo a
// checkpointed Manifest) rewrites exactly the segments the
// uninterrupted run would have.
//
// Writes are torn-write safe: a segment is staged to a .tmp file and
// renamed into place before the manifest is rewritten, so a crash
// leaves either a stray .tmp, a sealed-but-unmanifested .seg, or a
// stale manifest — Open drops all three forms of unsealed tail and
// recovers the longest valid manifest prefix. Compaction retires its
// inputs (rename to .retired) instead of deleting them, so ResetTo can
// rewind to a checkpoint taken before a compaction that consumed its
// segments; Seal garbage-collects retired files once a run completes.
//
// Reading a store changes nothing. One function, check, decides
// whether a manifest is true of the directory, and renames, deletes and
// writes nothing; OpenReadOnly runs it and refuses any damage, naming
// every entry that fails, while the writer's Open and ResetTo run it and
// then repair (adopt). Only those two rename, remove or rewrite a file
// when a store is opened.
//
// # Compaction
//
// Every K-th slice the pending L0 segments are merged into one L1
// segment column to column (compact.go): no row is rebuilt as a struct
// and no grab is parsed. A segment builder accumulates rows as column
// vectors, so an append turns each Result into columns once; and the
// store keeps one pending L1 builder, fed each L0's blocks as the
// append builds them. The builder frames every L1 block that fills —
// captures into one section, results into another, so captures still
// precede results in the file — and the K-th slice frames only the
// tails, the footer and the file, after checking every input's file
// against the manifest's size and whole-file CRC. An L0 written before
// the store was opened, or rewound to by ResetTo, was never fed to a
// builder: that window's compaction decodes every input from the file
// it just checked instead, and the L1 bytes are the same. Every block
// the store writes goes through its one flate writer.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ntpscan/internal/obs"
	"ntpscan/internal/zgrab"
)

// manifestName is the store's durable segment list.
const manifestName = "MANIFEST.json"

// castagnoli is the CRC-32C table shared by blocks, footers, and
// whole-file checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcOf is the whole-buffer CRC-32C.
func crcOf(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Options tunes a store. Footers take no option: the store parses each
// live segment's once, when it writes or checks the file, and holds it
// until the segment leaves the manifest.
type Options struct {
	// Obs, when non-nil, registers the store's metric families there
	// (segments/blocks/bytes written, compactions, blocks read and
	// skipped). Nil disables metrics.
	Obs *obs.Registry
	// CompactEvery is the compaction cadence K: at every slice s with
	// (s+1)%K == 0 the pending L0 segments are merged into one L1
	// segment. 0 uses the default (8); negative disables compaction.
	CompactEvery int
	// BlockCacheBytes bounds the decoded-block LRU shared by every scan
	// on this store: each visited block's rows are decoded once and kept
	// (keyed by segment content identity, so compaction and ResetTo need
	// no invalidation) until the budget — accounted in decompressed
	// block-body bytes — fills. Cached rows are shared read-only across
	// scans. 0 uses DefaultBlockCacheBytes; negative disables the cache.
	BlockCacheBytes int64
}

// DefaultCompactEvery is the compaction cadence when Options leaves it
// zero: with the campaign's 96 collection slices it yields 12 L1
// segments and no residual L0 tail.
const DefaultCompactEvery = 8

func (o *Options) compactEvery() int {
	switch {
	case o.CompactEvery < 0:
		return 0
	case o.CompactEvery == 0:
		return DefaultCompactEvery
	}
	return o.CompactEvery
}

// SegmentInfo is one live segment's manifest entry. CRC32 covers the
// whole file, so a manifest pins the exact bytes of every segment it
// lists.
type SegmentInfo struct {
	Name    string `json:"name"`
	Level   int    `json:"level"`
	SliceLo int    `json:"slice_lo"`
	SliceHi int    `json:"slice_hi"`
	Rows    int64  `json:"rows"`
	Size    int64  `json:"size"`
	CRC32   uint32 `json:"crc32"`
}

// Manifest is the store's durable state: the ordered live segment
// list. It is plain data — campaign checkpoints embed it (replacing
// the fragile byte offset JSONL resume relied on) and ResetTo rewinds
// a directory to it.
type Manifest struct {
	Version  int           `json:"version"`
	Segments []SegmentInfo `json:"segments,omitempty"`
}

// Store is an open store directory. One writer (the campaign's drain
// barrier) and any number of concurrent readers are safe, and readers
// never wait for the writer: the writer encodes, writes and compacts
// under a mutex of its own and, once MANIFEST.json has landed,
// publishes an immutable view of the segment list; Scan, Manifest,
// Rows, ExportJSONL and ReplaySlices load the latest view and take no
// lock the writer holds. A running iterator works against its view —
// segments a compaction retires mid-query are reopened through their
// .retired name (see openSegmentFile). Concurrent writers are not
// supported: appends are strictly ordered, like the collection slices
// that feed them. A store OpenReadOnly returned has no writer: only
// the read paths work, on the view it checked.
type Store struct {
	dir string
	opt Options
	met *Metrics
	// readOnly marks a store OpenReadOnly returned.
	readOnly bool

	// mu is the writer's: AppendSlice, AppendResults, compaction,
	// ResetTo and Seal hold it, and it guards nextSlice, w and l1 and
	// orders every publish. No read path takes it.
	mu sync.Mutex
	// nextSlice is the lowest slice id AppendSlice accepts — appends
	// are strictly ordered, like the collection slices that feed them.
	nextSlice int

	// current is the view readers load, and the writer's own segment
	// list: the segments of the last MANIFEST.json that landed, with
	// their footers (see publish).
	current atomic.Pointer[view]

	// pins is read-held by every open iterator from Scan to Close and by
	// ReplaySlices, and write-held by Seal and ResetTo, the two calls
	// that delete files: a retired compaction input goes only when no
	// view a reader holds can still list it. A reader takes it before it
	// loads the view; Seal and ResetTo take it before mu.
	pins sync.RWMutex

	// blocks is the read path's decoded-block cache (see cache.go); nil
	// when disabled.
	blocks *blockCache

	// w is the block encoder every segment this store builds borrows:
	// one flate writer per store, not one per segment.
	w blockWriter
	// l1 is the pending L1 builder: it holds exactly the rows of the
	// live L0 segments, in manifest order, with every full block already
	// framed. It is nil when compaction is off, and when a live L0 was
	// never fed to it (one recovered by Open, rewound to by ResetTo, or
	// written by an append that failed): the next compaction then
	// decodes its inputs from their files.
	l1 *segBuilder
}

// view is one published state of the store, never mutated once
// published: the manifest version and each segment MANIFEST.json
// lists, with its footer, in manifest order. Nothing mutates a footer,
// so successive views share them.
type view struct {
	version int
	segs    []liveSegment
}

// manifest is the Manifest v spells.
func (v *view) manifest() Manifest {
	m := Manifest{Version: v.version}
	for _, ls := range v.segs {
		m.Segments = append(m.Segments, ls.SegmentInfo)
	}
	return m
}

// Open opens (creating if needed) the store directory as its writer
// and recovers it to a consistent state: check validates the
// manifest's entries against the files on disk, the manifest is
// truncated at the first entry a crash can leave bad (a file missing
// or of the wrong size or whole-file CRC, or a name the store does not
// write), and adopt makes the directory match what is left, deleting
// unsealed strays (.tmp files and segments the manifest does not list)
// and keeping retired compaction inputs for ResetTo. A MANIFEST.json
// that does not parse cannot come from a torn write (atomic rename),
// but must not brick the directory: Open starts empty. A valid entry
// whose footer does not parse is no torn write either — the store
// parsed those very bytes before it listed them — so Open refuses the
// directory, naming the segment, before it renames, deletes or
// rewrites anything. Open is for the directory's one writer; a reader
// uses OpenReadOnly.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m Manifest
	if json.Unmarshal(data, &m) != nil {
		m = Manifest{}
	}
	s := newStore(dir, opt)
	segs, errs := s.check(m)
	if len(errs) > 0 && errors.Is(errs[0], errFooter) {
		return nil, errs[0]
	}
	if err := s.adopt(&view{version: m.Version, segs: segs}, true); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenReadOnly opens an existing store directory for reading only, and
// changes nothing on disk: MANIFEST.json must exist and parse, and
// every entry must pass check — an error names each one that fails.
// Nothing is created, renamed, removed or rewritten, so a reader may
// open a directory a writer is still filling; a segment a compaction
// retired after the manifest was read is read under its .retired name.
// The writer calls (AppendSlice, AppendResults, ResetTo, Seal) fail.
func OpenReadOnly(dir string, opt Options) (*Store, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", manifestName, err)
	}
	s := newStore(dir, opt)
	segs, errs := s.check(m)
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	s.readOnly = true
	s.current.Store(&view{version: m.Version, segs: segs})
	return s, nil
}

// newStore is a handle on dir with no view yet.
func newStore(dir string, opt Options) *Store {
	s := &Store{dir: dir, opt: opt}
	if opt.Obs != nil {
		s.met = NewMetrics(opt.Obs)
	}
	s.blocks = newBlockCache(opt.BlockCacheBytes, s.met)
	return s
}

// errFooter marks a check error that no crash explains: the entry's
// file is the one the manifest pins, and its footer does not parse.
var errFooter = errors.New("footer")

// errReadOnly is what a writer call on an OpenReadOnly store returns.
var errReadOnly = errors.New("store: opened read-only")

// check validates every entry of m against the directory, and changes
// nothing on disk. A manifest is outside input — a file in a directory
// someone hands to analyze or queryd, a section of a checkpoint — and
// its names are joined into paths, so an entry is refused before it
// touches the disk unless the store could have written it: its name is
// the one its level and slice range spell (a base name, inside the
// directory), and it starts past the entry before it (live segments
// are disjoint and ordered, which also refuses a repeated entry). Then
// its file, read by readSegment, must have the entry's size and
// whole-file CRC, and its footer must parse. check returns the entries
// of the longest prefix that passes, with their footers, and one error
// per entry that fails.
func (s *Store) check(m Manifest) (segs []liveSegment, errs []error) {
	prevHi := -1
	for _, si := range m.Segments {
		var (
			seg  *segment
			data []byte
			err  error
		)
		if si.Name != segmentName(si.Level, si.SliceLo, si.SliceHi) || si.SliceLo <= prevHi {
			err = fmt.Errorf("store: manifest entry %q (level %d, slices %d-%d) is not a segment this store writes after slice %d",
				si.Name, si.Level, si.SliceLo, si.SliceHi, prevHi)
		} else if data, err = s.readSegment(si); err == nil {
			seg, err = footer(si, data)
		}
		if err != nil {
			errs = append(errs, err)
		} else if len(errs) == 0 {
			segs = append(segs, liveSegment{si, seg})
		}
		prevHi = si.SliceHi
	}
	return segs, errs
}

// adopt makes v, a view check passed, the writer's and the directory's:
// each segment v lists that a crash left only under its .retired name
// (between a compaction retiring its inputs and committing the merged
// manifest) is renamed back; every other file but MANIFEST.json is
// deleted — a staged .tmp, a sealed segment the crash beat the manifest
// write to, an entry Open truncated, everything a rewind leaves behind —
// except, when keepRetired, retired compaction inputs, which ResetTo may
// need to resurrect; and MANIFEST.json is rewritten and v published.
func (s *Store) adopt(v *view, keepRetired bool) error {
	if v.version == 0 {
		v.version = 1
	}
	live := map[string]bool{manifestName: true}
	for _, ls := range v.segs {
		live[ls.Name] = true
		path := filepath.Join(s.dir, ls.Name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			if err := os.Rename(path+retiredSuffix, path); err != nil {
				return fmt.Errorf("store: segment %s is gone (%w)", ls.Name, err)
			}
		}
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if !live[e.Name()] && !(keepRetired && strings.HasSuffix(e.Name(), retiredSuffix)) {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	s.nextSlice = v.manifest().maxSliceHi() + 1
	s.resetL1(v)
	return s.publish(v)
}

// resetL1 starts the pending L1 builder over: empty when no L0 segment
// is live in v, absent when one is (it was not fed to this builder) or
// when compaction is off.
func (s *Store) resetL1(v *view) {
	s.l1 = nil
	if s.opt.compactEvery() > 0 && !slices.ContainsFunc(v.segs, func(ls liveSegment) bool { return ls.Level == 0 }) {
		s.l1 = newSegBuilder(&s.w)
	}
}

// maxSliceHi is the highest slice any live segment covers (-1 when
// empty).
func (m Manifest) maxSliceHi() int {
	hi := -1
	for _, si := range m.Segments {
		if si.SliceHi > hi {
			hi = si.SliceHi
		}
	}
	return hi
}

// segmentName is the file name of a segment, a pure function of its
// level and slice range ("" for a combination the store never writes).
func segmentName(level, sliceLo, sliceHi int) string {
	switch {
	case sliceLo < 0 || sliceHi < sliceLo:
		return ""
	case level == 0 && sliceLo == sliceHi:
		return fmt.Sprintf("seg-L0-%05d.seg", sliceLo)
	case level == 1:
		return fmt.Sprintf("seg-L1-%05d-%05d.seg", sliceLo, sliceHi)
	}
	return ""
}

// footer parses the footer of si's image, bytes the store wrote or
// checked against si.
func footer(si SegmentInfo, data []byte) (*segment, error) {
	seg, err := parseSegmentBytes(data)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w: %w", si.Name, errFooter, err)
	}
	return seg, nil
}

// Manifest returns a deep copy of the live segment list, suitable for
// embedding in a campaign checkpoint.
func (s *Store) Manifest() Manifest {
	return s.current.Load().manifest()
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// AppendSlice writes one immutable L0 segment holding the slice's
// capture events and scan results (in that block order), then runs the
// compaction policy. Empty slices write no segment but still drive
// compaction, so the segment layout is a pure function of the appended
// data. Slices must arrive in strictly increasing order.
func (s *Store) AppendSlice(slice int, caps []CaptureRow, results []*zgrab.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendSlice(slice, caps, results)
}

// appendSlice is AppendSlice with the writer's mutex held.
func (s *Store) appendSlice(slice int, caps []CaptureRow, results []*zgrab.Result) error {
	if s.readOnly {
		return errReadOnly
	}
	if slice < s.nextSlice {
		return fmt.Errorf("store: slice %d appended out of order (next %d)", slice, s.nextSlice)
	}
	s.nextSlice = slice + 1
	if len(caps) > 0 || len(results) > 0 {
		if err := s.appendL0(slice, caps, results); err != nil {
			// The L1 builder may hold rows no live segment does.
			s.l1 = nil
			return err
		}
	}
	return s.maybeCompact(slice)
}

// appendL0 writes the slice's rows as one L0 segment, feeding each of
// its blocks to the pending L1 builder as it is framed.
func (s *Store) appendL0(slice int, caps []CaptureRow, results []*zgrab.Result) error {
	sb := newSegBuilder(&s.w)
	sb.l1 = s.l1
	sb.caps.grow(len(caps))
	sb.res.grow(len(results))
	for _, c := range caps {
		sb.addCapture(c, slice)
	}
	for _, r := range results {
		if err := sb.addResult(r, slice); err != nil {
			return err
		}
	}
	_, err := s.writeSegment(0, sb, nil)
	return err
}

// AppendResults appends a batch of scan results outside a sliced
// campaign (e.g. a standalone v6scan run): each call becomes one
// segment on the next synthetic slice.
func (s *Store) AppendResults(results []*zgrab.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendSlice(s.nextSlice, nil, results)
}

// writeSegment finalises the builder and commits its image as a
// segment of the given level in place of retire (a compaction's
// inputs; nil for an append), in the order that lets a crash leave
// only an unsealed tail: stage the file and rename it into place,
// retire the inputs (rename to .retired, not delete), then rewrite the
// manifest and publish the next view, built from the current one. Until
// the manifest lands the new segment is a stray that Open deletes, and
// retired inputs a manifest still lists are resurrected by Open and
// ResetTo.
func (s *Store) writeSegment(level int, sb *segBuilder, retire []SegmentInfo) (SegmentInfo, error) {
	data, rows := sb.finish()
	si := SegmentInfo{
		Name:    segmentName(level, sb.sliceLo, sb.sliceHi),
		Level:   level,
		SliceLo: sb.sliceLo,
		SliceHi: sb.sliceHi,
		Rows:    rows,
		Size:    int64(len(data)),
		CRC32:   crcOf(data),
	}
	seg, err := footer(si, data)
	if err != nil {
		return si, err
	}
	if err := s.writeFileAtomic(si.Name, data); err != nil {
		return si, err
	}
	for _, in := range retire {
		path := filepath.Join(s.dir, in.Name)
		if err := os.Rename(path, path+retiredSuffix); err != nil {
			return si, fmt.Errorf("store: compact: %w", err)
		}
	}
	cur := s.current.Load()
	v := &view{version: cur.version, segs: make([]liveSegment, 0, len(cur.segs)+1)}
	for _, ls := range cur.segs {
		if !slices.ContainsFunc(retire, func(in SegmentInfo) bool { return in.Name == ls.Name }) {
			v.segs = append(v.segs, ls)
		}
	}
	v.segs = append(v.segs, liveSegment{si, seg})
	sort.SliceStable(v.segs, func(i, j int) bool { return v.segs[i].SliceLo < v.segs[j].SliceLo })
	if s.met != nil {
		if len(retire) > 0 {
			s.met.Compactions.Inc()
			s.met.SegmentsCompacted.Add(int64(len(retire)))
		}
		s.met.SegmentsWritten.Inc()
		s.met.BlocksWritten.Add(int64(len(sb.caps.index) + len(sb.res.index)))
		s.met.BytesWritten.Add(int64(len(data)))
	}
	return si, s.publish(v)
}

// writeFileAtomic stages data to name.tmp and renames it into place.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// publish rewrites MANIFEST.json atomically to v's segment list, then
// publishes v as the view readers load — in that order, so no reader is
// handed a segment list the directory does not hold.
func (s *Store) publish(v *view) error {
	data, err := json.Marshal(v.manifest())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeFileAtomic(manifestName, append(data, '\n')); err != nil {
		return err
	}
	s.current.Store(v)
	return nil
}

// ResetTo rewinds the directory to a checkpointed manifest: every
// listed segment must pass check — a retired compaction input is read
// under its .retired name — and only then does adopt rename the
// retired ones back and delete everything else: later segments, later
// compactions, leftover retired files. After ResetTo the store accepts
// appends exactly as it did when the checkpoint was taken, so a
// resumed campaign reproduces the uninterrupted run's directory
// byte-for-byte.
func (s *Store) ResetTo(m Manifest) error {
	if s.readOnly {
		return errReadOnly
	}
	s.pins.Lock()
	defer s.pins.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, errs := s.check(m)
	if len(errs) > 0 {
		return fmt.Errorf("store: reset: %w", errs[0])
	}
	return s.adopt(&view{version: m.Version, segs: segs}, false)
}

// Seal marks the run complete: retired compaction inputs are garbage-
// collected (no checkpoint taken before this point will be resumed
// past a completed run). An iterator opened before a compaction may
// still list them, so Seal waits for every open iterator to close. The
// store remains readable and appendable.
func (s *Store) Seal() error {
	if s.readOnly {
		return errReadOnly
	}
	s.pins.Lock()
	defer s.pins.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), retiredSuffix) {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

// Rows returns the total live row count by kind, summed from the
// footers of the current view: no file is read, and the error is
// always nil.
func (s *Store) Rows() (captures, results int64, err error) {
	for _, ls := range s.current.Load().segs {
		for _, bi := range ls.seg.blocks {
			switch bi.Kind {
			case KindCaptures:
				captures += int64(bi.Rows)
			case KindResults:
				results += int64(bi.Rows)
			}
		}
	}
	return captures, results, nil
}
