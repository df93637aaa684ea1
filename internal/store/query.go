package store

import (
	"encoding/binary"
	"net/netip"
	"os"
	"slices"

	"ntpscan/internal/zgrab"
)

// SliceRange is an inclusive slice-id interval.
type SliceRange struct {
	Lo, Hi int
}

// Pred is a scan predicate. Zero fields match everything; set fields
// are conjunctive. Every field pushes down to block skipping where the
// footer index allows it: Kind and Slices prune on the per-block kind
// and slice range, Modules and Vantages prune on the per-block
// dictionary bitmasks, and Prefix prunes on the per-block min//48,
// max//48 key range plus the segment bloom filter (for prefixes of
// /48 or longer).
type Pred struct {
	// Kind restricts rows to one kind; zero scans both.
	Kind Kind
	// Modules restricts result rows to these zgrab modules.
	Modules []string
	// Vantages restricts capture rows to these vantage countries.
	Vantages []string
	// Prefix restricts rows to addresses inside this prefix. The zero
	// prefix matches everything.
	Prefix netip.Prefix
	// Slices restricts rows to a slice-id interval.
	Slices *SliceRange
}

// Row is one scan hit: a capture event or a zgrab result, with the
// collection slice it was appended under. Iter.Row builds it from the
// block's column vectors when asked, so every call returns a Result of
// its own: nothing but interned strings is shared with the cache or
// with another scan, and the caller may keep or change it.
type Row struct {
	Kind    Kind
	Slice   int
	Capture CaptureRow    // set when Kind == KindCaptures
	Result  *zgrab.Result // set when Kind == KindResults
}

// ScanStats reports what a scan touched versus what the sparse index
// let it skip — the evidence that predicate pushdown prunes — plus how
// much of the touched data the decoded-block cache absorbed. BlocksRead
// counts blocks the scan had to decode rows from (not skipped by the
// index); of those, CacheHits were served from the cache without disk
// I/O or decompression, and only CacheMisses cost a read and an
// inflate.
type ScanStats struct {
	Segments      int
	BlocksRead    int64
	BlocksSkipped int64
	BytesRead     int64
	BytesSkipped  int64
	CacheHits     int64
	CacheMisses   int64
}

// Iter streams rows matching a predicate in canonical order: segments
// in manifest (slice) order, blocks in file order — so all of a
// segment's capture rows precede its result rows. The iterator is
// single-pass; Close is idempotent and also runs when Next exhausts
// the store. A row is a position in a block's column vectors: Next
// moves it, and Row, Kind, Slice, Vantage, AppendAddr and AppendResult
// read it — each the zero value (appending nothing) before the first
// Next, after Next has returned false and after Close.
type Iter struct {
	s    *Store
	pred Pred

	segs   []liveSegment
	segIdx int
	cur    *segment
	file   *os.File

	// per-segment predicate state
	wantMod   uint64 // module mask over cur.mods; ^0 when unfiltered
	wantVan   uint64 // vantage mask over cur.vans; ^0 when unfiltered
	bloomMiss bool

	// prefix pushdown state
	hasPrefix    bool
	keyLo, keyHi uint64
	exactKey     bool
	match        prefixMatch

	blkIdx int
	// blk is the block the current row is in (nil: there is none), sel
	// the rows of it that match, ascending, and row the current one,
	// sel[selPos-1].
	blk    *colBlock
	sel    []int32
	selPos int
	row    int

	// Scratch that lives as long as the iterator, so a scan allocates
	// per block at most: selBuf backs sel, want holds which codes of the
	// current block's dictionary the predicate asks for, text the last
	// address and time formatted.
	selBuf []int32
	want   []bool
	text   rowText

	err    error
	stats  ScanStats
	closed bool
}

// prefixMatch is Pred.Prefix compiled for 16-byte stored addresses:
// row bytes (hi, lo) are inside when hi&maskHi == wantHi and lo&maskLo
// == wantLo — netip.Prefix.Contains on AddrFrom16 of the same bytes.
type prefixMatch struct {
	// rows is whether rows need the test at all: not for the zero
	// prefix, nor for /0, which contain every address.
	rows bool
	// none marks an IPv4 prefix. Stored addresses are 16 bytes, and an
	// IPv4 prefix contains no IPv6 address, IPv4-mapped ones included.
	none                           bool
	maskHi, maskLo, wantHi, wantLo uint64
}

func compilePrefix(p netip.Prefix) prefixMatch {
	if !p.IsValid() {
		return prefixMatch{}
	}
	if p.Addr().Is4() {
		return prefixMatch{rows: true, none: true}
	}
	var m prefixMatch
	switch bits := p.Bits(); {
	case bits == 0:
		return m
	case bits <= 64:
		m.maskHi = ^uint64(0) << (64 - bits)
	default:
		m.maskHi, m.maskLo = ^uint64(0), ^uint64(0)<<(128-bits)
	}
	a := p.Addr().As16()
	m.rows = true
	m.wantHi = binary.BigEndian.Uint64(a[:8]) & m.maskHi
	m.wantLo = binary.BigEndian.Uint64(a[8:]) & m.maskLo
	return m
}

// liveSegment is a manifest entry with its parsed footer: an entry of
// a view.
type liveSegment struct {
	SegmentInfo
	seg *segment
}

// identity is the selection of a block every row of which matches.
var identity = func() (sel [maxBlockRows]int32) {
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// Scan opens a streaming iterator over all live rows matching pred.
// The iterator works against the view the store last published — a
// manifest and its footers, never mutated — and takes no lock the
// writer holds, so it neither waits for nor delays AppendSlice and
// compaction: slices appended after Scan are not seen, and segments a
// compaction retires mid-scan remain readable through their retired
// names for as long as the iterator is open — Seal and ResetTo, which
// delete files, wait for every open iterator to Close. Close it (or run
// it to exhaustion) promptly, and never Seal, ResetTo or — while
// another goroutine may be doing either — Scan again from the goroutine
// that holds one open.
func (s *Store) Scan(pred Pred) *Iter {
	// Pinned before the view is loaded: Seal and ResetTo cannot delete a
	// file the view lists until Close.
	s.pins.RLock()
	it := &Iter{s: s, pred: pred, segs: s.current.Load().segs}
	if pred.Prefix.IsValid() {
		it.hasPrefix = true
		it.keyLo, it.keyHi = prefixKeyRange(pred.Prefix)
		it.exactKey = pred.Prefix.Bits() >= 48
		it.match = compilePrefix(pred.Prefix)
	}
	return it
}

// wantMask projects a wanted-string list (empty: everything is wanted)
// onto a segment dictionary's 64-bit id space. A wanted string sitting
// past id 63 poisons the mask to all-ones (cannot prune); a list with
// no dictionary hits yields 0 (every block of that kind skips).
func wantMask(wanted, dict []string) uint64 {
	if len(wanted) == 0 {
		return ^uint64(0)
	}
	var mask uint64
	for id, s := range dict {
		if !slices.Contains(wanted, s) {
			continue
		}
		if id >= 64 {
			return ^uint64(0)
		}
		mask |= 1 << uint(id)
	}
	return mask
}

// nextSegment advances to the next segment of the view and
// computes its per-segment predicate state from its footer.
func (it *Iter) nextSegment() bool {
	it.closeFile()
	if it.segIdx >= len(it.segs) {
		return false
	}
	seg := it.segs[it.segIdx].seg
	it.segIdx++
	it.cur = seg
	it.blkIdx = 0
	it.stats.Segments++
	it.wantMod = wantMask(it.pred.Modules, seg.mods)
	it.wantVan = wantMask(it.pred.Vantages, seg.vans)
	it.bloomMiss = it.exactKey && seg.bloom != nil && !seg.bloom.mayContain(it.keyLo)
	return true
}

// skipBlock decides, from footer metadata alone, whether a block can
// contain a matching row.
func (it *Iter) skipBlock(bi blockIndex) bool {
	if it.pred.Kind != 0 && bi.Kind != it.pred.Kind {
		return true
	}
	if r := it.pred.Slices; r != nil && (bi.SliceHi < r.Lo || bi.SliceLo > r.Hi) {
		return true
	}
	if it.hasPrefix {
		if it.bloomMiss {
			return true
		}
		if bi.Max48 < it.keyLo || bi.Min48 > it.keyHi {
			return true
		}
	}
	switch bi.Kind {
	case KindResults:
		if bi.Mask&it.wantMod == 0 {
			return true
		}
	case KindCaptures:
		if bi.Mask&it.wantVan == 0 {
			return true
		}
	}
	return false
}

// loadBlock makes the current segment's block blkIdx the current block
// and selects its matching rows. The block's column vectors come from
// the store's block cache when present; a miss reads the body from the
// segment file, inflates it, decodes the columns once, and populates
// the cache. The vectors are shared read-only across concurrent
// iterators — only the selection is private.
func (it *Iter) loadBlock(bi blockIndex) error {
	si := it.segs[it.segIdx-1]
	key := blockKey{seg: segKey{si.CRC32, si.Size}, off: bi.Off}
	blk, cached := it.s.blocks.get(key)
	if cached {
		it.stats.CacheHits++
	} else {
		if it.s.blocks != nil {
			it.stats.CacheMisses++
		}
		if it.file == nil {
			f, err := it.s.openSegmentFile(si.Name)
			if err != nil {
				return err
			}
			it.file = f
		}
		raw, err := readBlockRaw(it.file, bi)
		if err != nil {
			return err
		}
		if blk, err = decodeColumns(raw, bi.Kind); err != nil {
			return err
		}
		it.s.blocks.put(key, blk, int64(len(raw)))
	}
	it.blk, it.selPos = blk, 0
	it.selectRows(blk)
	return nil
}

// selectRows applies the row-level residue of the predicate (block
// pruning is necessary, not sufficient) to a block's vectors: slice ids
// against the range, dictionary codes against the wanted modules or
// vantages — the strings are compared once per dictionary entry, not
// once per row — and address bytes against the prefix. A test the
// whole block passes is not run per row, and a block that passes them
// all is selected without being walked.
func (it *Iter) selectRows(b *colBlock) {
	sr := it.pred.Slices
	if sr != nil && sr.Lo <= b.sliceLo && b.sliceHi <= sr.Hi {
		sr = nil
	}
	codes, dict, wanted := b.mod, b.mods, it.pred.Modules
	if b.kind == KindCaptures {
		codes, dict, wanted = b.van, b.vans, it.pred.Vantages
	}
	var want []bool
	if len(wanted) > 0 {
		want = it.want[:0]
		all := true
		for _, s := range dict {
			w := slices.Contains(wanted, s)
			want = append(want, w)
			all = all && w
		}
		if it.want = want; all {
			want = nil
		}
	}
	m := it.match
	if sr == nil && want == nil && !m.rows {
		it.sel = identity[:b.n]
		return
	}
	if cap(it.selBuf) < b.n {
		it.selBuf = make([]int32, 0, b.n)
	}
	sel := it.selBuf[:0]
	if !m.none {
		for i := 0; i < b.n; i++ {
			if sr != nil && (b.slices[i] < sr.Lo || b.slices[i] > sr.Hi) {
				continue
			}
			if want != nil && !want[codes[i]] {
				continue
			}
			if m.rows {
				a := b.addrs[16*i : 16*i+16]
				if binary.BigEndian.Uint64(a[:8])&m.maskHi != m.wantHi || binary.BigEndian.Uint64(a[8:])&m.maskLo != m.wantLo {
					continue
				}
			}
			sel = append(sel, int32(i))
		}
	}
	it.sel = sel
}

// Next advances to the next matching row.
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.selPos < len(it.sel) {
			it.row = int(it.sel[it.selPos])
			it.selPos++
			return true
		}
		if it.cur == nil || it.blkIdx >= len(it.cur.blocks) {
			if !it.nextSegment() {
				it.Close()
				return false
			}
			continue
		}
		bi := it.cur.blocks[it.blkIdx]
		it.blkIdx++
		if it.skipBlock(bi) {
			it.stats.BlocksSkipped++
			it.stats.BytesSkipped += bi.Len
			continue
		}
		it.stats.BlocksRead++
		it.stats.BytesRead += bi.Len
		if err := it.loadBlock(bi); err != nil {
			it.err = err
			it.Close()
			return false
		}
	}
}

// Row returns the current row after a true Next, built for this call:
// a result row costs a Result, and a parse of its grab if it has one.
// Callers that want the row as structs use it (analysis, the aggregate
// fold); the ones that want JSON do not (AppendResult).
func (it *Iter) Row() Row {
	if it.blk == nil {
		return Row{}
	}
	return it.blk.row(it.row)
}

// Kind is the current row's kind.
func (it *Iter) Kind() Kind {
	if it.blk == nil {
		return 0
	}
	return it.blk.kind
}

// Slice is the slice the current row was appended under.
func (it *Iter) Slice() int {
	if it.blk == nil {
		return 0
	}
	return it.blk.slices[it.row]
}

// Vantage is the current capture row's vantage; "" on a result row.
func (it *Iter) Vantage() string {
	if it.blk == nil || it.blk.kind != KindCaptures {
		return ""
	}
	return it.blk.vans[it.blk.van[it.row]]
}

// AppendAddr appends the current row's address — the capture's, or the
// result's IP — as a JSON string.
func (it *Iter) AppendAddr(dst []byte) []byte {
	if it.blk == nil {
		return dst
	}
	return it.text.appendAddr(dst, it.blk.addr(it.row))
}

// AppendResult appends the current result row as one JSON object, the
// bytes Row().Result.AppendJSON would write, straight from the column
// vectors. It appends nothing on a capture row.
func (it *Iter) AppendResult(dst []byte) []byte {
	if it.blk == nil || it.blk.kind != KindResults {
		return dst
	}
	return it.blk.appendResult(dst, it.row, &it.text)
}

// Err reports the first error the scan hit, if any.
func (it *Iter) Err() error { return it.err }

// Stats returns what the scan read and skipped so far.
func (it *Iter) Stats() ScanStats { return it.stats }

func (it *Iter) closeFile() {
	if it.file != nil {
		it.file.Close()
		it.file = nil
	}
}

// Close releases the iterator — its file, its pin on the files of its
// view — and folds its stats into the store's metric families.
// Idempotent.
func (it *Iter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.closeFile()
	it.cur = nil
	it.segIdx = len(it.segs)
	it.blk, it.sel, it.selPos = nil, nil, 0
	it.s.pins.RUnlock()
	if st, m := it.stats, it.s.met; m != nil {
		m.BlocksRead.Add(st.BlocksRead)
		m.BlocksSkipped.Add(st.BlocksSkipped)
		m.BytesRead.Add(st.BytesRead)
		m.BytesSkipped.Add(st.BytesSkipped)
		m.BlockCacheHits.Add(st.CacheHits)
		m.BlockCacheMisses.Add(st.CacheMisses)
	}
	return nil
}
