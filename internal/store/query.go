package store

import (
	"net/netip"
	"os"

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
// collection slice it was appended under. Rows may be served from the
// shared decoded-block cache, so Result pointers can be handed to
// several concurrent scans — treat rows as immutable.
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
// the store.
type Iter struct {
	s    *Store
	pred Pred

	segs   []SegmentInfo
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

	modSet map[string]bool
	vanSet map[string]bool

	blkIdx int
	buf    []Row
	bufPos int

	row    Row
	err    error
	stats  ScanStats
	closed bool
}

// Scan opens a streaming iterator over all live rows matching pred.
// The iterator works against a point-in-time snapshot of the manifest,
// so it is safe to run while AppendSlice and compaction mutate the
// store: slices appended after Scan are not seen, and segments a
// compaction retires mid-scan remain readable through their retired
// names for as long as the iterator is open — Seal and ResetTo, which
// delete files, wait for every open iterator to Close. Close it (or run
// it to exhaustion) promptly, and never Seal, ResetTo or — while
// another goroutine may be doing either — Scan again from the goroutine
// that holds one open.
func (s *Store) Scan(pred Pred) *Iter {
	s.pins.RLock()
	s.mu.RLock()
	segs := s.man.clone().Segments
	s.mu.RUnlock()
	it := &Iter{s: s, pred: pred, segs: segs}
	if pred.Prefix.IsValid() {
		it.hasPrefix = true
		it.keyLo, it.keyHi = prefixKeyRange(pred.Prefix)
		it.exactKey = pred.Prefix.Bits() >= 48
	}
	if len(pred.Modules) > 0 {
		it.modSet = make(map[string]bool, len(pred.Modules))
		for _, m := range pred.Modules {
			it.modSet[m] = true
		}
	}
	if len(pred.Vantages) > 0 {
		it.vanSet = make(map[string]bool, len(pred.Vantages))
		for _, v := range pred.Vantages {
			it.vanSet[v] = true
		}
	}
	return it
}

// wantMask projects a wanted-string set onto a segment dictionary's
// 64-bit id space. A wanted string sitting past id 63 poisons the mask
// to all-ones (cannot prune); a set with no dictionary hits yields 0
// (every block of that kind skips).
func wantMask(set map[string]bool, dict []string) uint64 {
	if set == nil {
		return ^uint64(0)
	}
	var mask uint64
	for id, s := range dict {
		if !set[s] {
			continue
		}
		if id >= 64 {
			return ^uint64(0)
		}
		mask |= 1 << uint(id)
	}
	return mask
}

// nextSegment advances to the next live segment, loading its footer
// and computing per-segment predicate state.
func (it *Iter) nextSegment() bool {
	it.closeFile()
	for it.segIdx < len(it.segs) {
		si := it.segs[it.segIdx]
		it.segIdx++
		seg, _, err := it.s.openSegment(si)
		if err != nil {
			it.err = err
			return false
		}
		it.cur = seg
		it.blkIdx = 0
		it.stats.Segments++
		it.wantMod = wantMask(it.modSet, seg.mods)
		it.wantVan = wantMask(it.vanSet, seg.vans)
		it.bloomMiss = it.exactKey && seg.bloom != nil && !seg.bloom.mayContain(it.keyLo)
		return true
	}
	return false
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

// matchRow applies the row-level residue of the predicate (block
// pruning is necessary, not sufficient).
func (it *Iter) matchRow(r Row) bool {
	if sr := it.pred.Slices; sr != nil && (r.Slice < sr.Lo || r.Slice > sr.Hi) {
		return false
	}
	switch r.Kind {
	case KindCaptures:
		if it.vanSet != nil && !it.vanSet[r.Capture.Vantage] {
			return false
		}
		if it.hasPrefix && !it.pred.Prefix.Contains(r.Capture.Addr) {
			return false
		}
	case KindResults:
		if it.modSet != nil && !it.modSet[r.Result.Module] {
			return false
		}
		if it.hasPrefix && !it.pred.Prefix.Contains(r.Result.IP) {
			return false
		}
	}
	return true
}

// loadBlock produces the current segment's block blkIdx into the row
// buffer, keeping only matching rows. The block's decoded rows come
// from the store's block cache when present; a miss reads the body
// from the segment file, inflates it, decodes every row once, and
// populates the cache. Cached rows are shared read-only across
// concurrent iterators — only the filtered view in it.buf is private.
func (it *Iter) loadBlock(bi blockIndex) error {
	si := it.segs[it.segIdx-1]
	key := blockKey{seg: segKey{si.CRC32, si.Size}, off: bi.Off}
	rows, cached := it.s.blocks.get(key)
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
		rows, err = decodeRows(raw, bi.Kind)
		if err != nil {
			return err
		}
		it.s.blocks.put(key, rows, int64(len(raw)))
	}
	it.buf = it.buf[:0]
	it.bufPos = 0
	for _, r := range rows {
		if it.matchRow(r) {
			it.buf = append(it.buf, r)
		}
	}
	return nil
}

// decodeRows materialises every row of a decompressed block body.
func decodeRows(raw []byte, kind Kind) ([]Row, error) {
	var rows []Row
	switch kind {
	case KindCaptures:
		err := decodeCaptureBlock(raw, func(c CaptureRow, slice int) error {
			rows = append(rows, Row{Kind: KindCaptures, Slice: slice, Capture: c})
			return nil
		})
		return rows, err
	case KindResults:
		err := decodeResultBlock(raw, func(res *zgrab.Result, slice int) error {
			rows = append(rows, Row{Kind: KindResults, Slice: slice, Result: res})
			return nil
		})
		return rows, err
	}
	return nil, errCorrupt
}

// Next advances to the next matching row.
func (it *Iter) Next() bool {
	if it.err != nil {
		return false
	}
	for {
		if it.bufPos < len(it.buf) {
			it.row = it.buf[it.bufPos]
			it.bufPos++
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

// Row returns the current row after a true Next.
func (it *Iter) Row() Row { return it.row }

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
// snapshot — and folds its stats into the store's metric families.
// Idempotent.
func (it *Iter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.closeFile()
	it.cur = nil
	it.segIdx = len(it.segs)
	it.buf = nil
	it.bufPos = 0
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
