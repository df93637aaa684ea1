package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/netip"
	"slices"

	"ntpscan/internal/zgrab"
)

// Segment wire format (all varints are encoding/binary, u32/u64 are
// little-endian):
//
//	file    = magic "NTPSSEG1" | block* | footerBody | trailer
//	block   = u32 payloadLen | u32 crc32c(payload) | payload
//	payload = flate(blockBody)
//	trailer = u32 len(footerBody) | u32 crc32c(footerBody) | "NTPSFTR1"
//
//	footerBody = u8 version
//	           | uvarint nBlocks
//	           | blockIndex*          (kind, offset, length, rawLen,
//	                                   rows, sliceLo, sliceHi, u64 mask,
//	                                   min48, max48)
//	           | dict modules | dict vantages
//	           | bloom over /48 keys
//
// Capture block bodies hold columns (in order): slice (delta varint),
// addr (16B fixed), vantage (block-local dict index). Result block
// bodies hold: slice, ip (16B), module idx, port, time (delta varint
// unix-nanos), status idx, error idx, attempts, seq (delta varint),
// grabs (uvarint length + JSON payload per row). Dictionaries are
// block-local and precede the columns, so every block decodes in
// isolation — the property FuzzSegmentDecode leans on.
const (
	segMagic   = "NTPSSEG1"
	ftrMagic   = "NTPSFTR1"
	segVersion = 1

	// maxBlockRows bounds rows per block on both sides: the writer
	// chunks at it, and the decoder rejects larger claims before
	// allocating column scratch.
	maxBlockRows = 8192
	// maxRawBlock bounds a block's uncompressed size claim.
	maxRawBlock = 1 << 24

	// retiredSuffix marks compaction inputs kept for checkpoint rewind.
	retiredSuffix = ".retired"

	blockHeaderLen = 8
	trailerLen     = 16
)

// Kind discriminates row types.
type Kind uint8

// Row kinds.
const (
	KindCaptures Kind = 1
	KindResults  Kind = 2
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCaptures:
		return "captures"
	case KindResults:
		return "results"
	}
	return "unknown"
}

// CaptureRow is one capture event: a first-seen client address and the
// vantage country that captured it. The JSON keys are those of a
// campaign checkpoint's capture log, which is a list of these rows.
type CaptureRow struct {
	Addr    netip.Addr `json:"addr"`
	Vantage string     `json:"country"`
}

// blockIndex is one footer entry: everything the query engine needs to
// decide whether to read a block.
type blockIndex struct {
	Kind    Kind
	Off     int64
	Len     int64 // on-disk length including the 8-byte block header
	RawLen  int   // uncompressed body length
	Rows    int
	SliceLo int
	SliceHi int
	// Mask is a bitmask over the footer's module dict (result blocks)
	// or vantage dict (capture blocks). All-ones means "unprunable"
	// (dict overflowed 64 entries).
	Mask  uint64
	Min48 uint64
	Max48 uint64
}

// blockWriter is what encoding a block reuses: the flate writer (about
// 0.6 MB to build), its output buffer and the body scratch. A Store
// owns one, and every segment it builds borrows it under the store's
// writer mutex.
type blockWriter struct {
	fl   *flate.Writer
	out  bytes.Buffer
	body []byte
}

// compress returns body's flate payload, valid until the next call.
func (w *blockWriter) compress(body []byte) []byte {
	w.out.Reset()
	if w.fl == nil {
		w.fl, _ = flate.NewWriter(&w.out, flate.BestSpeed)
	} else {
		w.fl.Reset(&w.out)
	}
	w.fl.Write(body)
	w.fl.Close()
	return w.out.Bytes()
}

// segBuilder accumulates rows as column vectors and emits a complete
// segment image. Each kind fills a pending block in colBlock's shape:
// addCapture and addResult turn one row into columns (an append
// converts each Result once), addBlock appends a decoded or flushed
// block's rows column to column (compaction, the pending L1 builder).
// Each kind frames its full blocks into a section of its own as they
// fill, and finish lays the capture section before the result section,
// so capture blocks precede result blocks in every segment — the
// canonical row order the query engine returns — however the two
// kinds' rows were interleaved on the way in.
type segBuilder struct {
	w    *blockWriter
	mods dict
	vans dict
	keys map[uint64]struct{}

	sliceLo, sliceHi int
	rows             int64

	caps, res pending
	// l1, when set, is fed every block this builder flushes, as the
	// columns decodeColumns reads back from its image: the store's
	// pending L1 builder, which the segment will be compacted into.
	l1    *segBuilder
	remap []uint32 // recode's scratch
}

// pending is one kind's side of a builder: the block being filled, its
// rows in colBlock's vectors and the block-local dictionaries its codes
// index, in first-seen order (captures: vantages; results: modules,
// statuses, errors); and the kind's section, its framed blocks back to
// back with their index entries, offsets counted from the section's
// start.
type pending struct {
	colBlock
	dicts [3]dict

	section []byte
	index   []blockIndex
}

func newSegBuilder(w *blockWriter) *segBuilder {
	sb := &segBuilder{
		w:       w,
		keys:    make(map[uint64]struct{}),
		sliceLo: -1,
		sliceHi: -1,
	}
	sb.caps.start(KindCaptures)
	sb.res.start(KindResults)
	return sb
}

// start makes p an empty block of kind with vectors of its own: the
// previous block's, if any, were handed off or dropped.
func (p *pending) start(kind Kind) {
	p.colBlock, p.dicts = colBlock{kind: kind, grabOff: []uint32{0}}, [3]dict{}
}

// grow makes room for n more rows, up to a block's worth, in every
// vector of p's kind.
func (p *pending) grow(n int) {
	n = min(n, maxBlockRows-p.n)
	p.slices = slices.Grow(p.slices, n)
	p.addrs = slices.Grow(p.addrs, 16*n)
	if p.kind == KindCaptures {
		p.van = slices.Grow(p.van, n)
		return
	}
	p.mod, p.stat, p.errc = slices.Grow(p.mod, n), slices.Grow(p.stat, n), slices.Grow(p.errc, n)
	p.ports, p.times = slices.Grow(p.ports, n), slices.Grow(p.times, n)
	p.attempts, p.seqs = slices.Grow(p.attempts, n), slices.Grow(p.seqs, n)
	p.grabOff = slices.Grow(p.grabOff, n)
}

// addCapture appends one capture row.
func (sb *segBuilder) addCapture(c CaptureRow, slice int) {
	p := &sb.caps
	a := c.Addr.As16()
	p.slices = append(p.slices, slice)
	p.addrs = append(p.addrs, a[:]...)
	p.van = append(p.van, uint32(p.dicts[0].id(c.Vantage)))
	sb.added(p, 1)
}

// addResult appends one result row; its grab column entry is what
// AppendGrabs writes, and a result AppendGrabs refuses is not added.
func (sb *segBuilder) addResult(r *zgrab.Result, slice int) error {
	p := &sb.res
	g, err := r.AppendGrabs(p.grabs)
	if err != nil {
		return err
	}
	a := r.IP.As16()
	p.grabs, p.grabOff = g, append(p.grabOff, uint32(len(g)))
	p.slices = append(p.slices, slice)
	p.addrs = append(p.addrs, a[:]...)
	p.mod = append(p.mod, uint32(p.dicts[0].id(r.Module)))
	p.stat = append(p.stat, uint32(p.dicts[1].id(string(r.Status))))
	p.errc = append(p.errc, uint32(p.dicts[2].id(r.Error)))
	p.ports = append(p.ports, r.Port)
	p.times = append(p.times, r.Time.UnixNano())
	p.attempts = append(p.attempts, r.Attempts)
	p.seqs = append(p.seqs, r.Seq)
	sb.added(p, 1)
	return nil
}

// addBlock appends every row of a decoded block, column to column: the
// dictionary codes re-coded into the pending block's dictionaries (in
// first-seen order, as addResult would assign them), the slice,
// address, port, time, attempt and sequence vectors copied, the grab
// bytes copied verbatim. Runs split where a pending block fills.
func (sb *segBuilder) addBlock(src *colBlock) {
	p := &sb.caps
	if src.kind == KindResults {
		p = &sb.res
	}
	for lo := 0; lo < src.n; {
		hi := min(src.n, lo+maxBlockRows-p.n)
		p.grow(hi - lo)
		p.slices = append(p.slices, src.slices[lo:hi]...)
		p.addrs = append(p.addrs, src.addrs[16*lo:16*hi]...)
		if src.kind == KindCaptures {
			p.van = sb.recode(p.van, src.van[lo:hi], src.vans, &p.dicts[0])
		} else {
			p.mod = sb.recode(p.mod, src.mod[lo:hi], src.mods, &p.dicts[0])
			p.stat = sb.recode(p.stat, src.stat[lo:hi], src.stats, &p.dicts[1])
			p.errc = sb.recode(p.errc, src.errc[lo:hi], src.errs, &p.dicts[2])
			p.ports = append(p.ports, src.ports[lo:hi]...)
			p.times = append(p.times, src.times[lo:hi]...)
			p.attempts = append(p.attempts, src.attempts[lo:hi]...)
			p.seqs = append(p.seqs, src.seqs[lo:hi]...)
			// Offsets move by where the run lands (uint32 arithmetic wraps
			// back for a run that lands lower than it was).
			shift := uint32(len(p.grabs)) - src.grabOff[lo]
			p.grabs = append(p.grabs, src.grabs[src.grabOff[lo]:src.grabOff[hi]]...)
			for _, off := range src.grabOff[lo+1 : hi+1] {
				p.grabOff = append(p.grabOff, off+shift)
			}
		}
		sb.added(p, hi-lo)
		lo = hi
	}
}

// recode appends codes, which index from, as codes into d.
func (sb *segBuilder) recode(dst, codes []uint32, from []string, d *dict) []uint32 {
	m := append(sb.remap[:0], make([]uint32, len(from))...) // code+1; 0: not seen yet
	sb.remap = m
	for _, c := range codes {
		if m[c] == 0 {
			m[c] = uint32(d.id(from[c])) + 1
		}
		dst = append(dst, m[c]-1)
	}
	return dst
}

// added counts n new rows into p, flushing it once it holds a block's
// worth.
func (sb *segBuilder) added(p *pending, n int) {
	if p.n += n; p.n >= maxBlockRows {
		sb.flush(p)
	}
}

// maskBit maps a dict id onto the 64-bit pruning mask; overflowing
// dicts poison the mask to all-ones (never pruned, never wrong).
func maskBit(id int) uint64 {
	if id >= 64 {
		return ^uint64(0)
	}
	return 1 << uint(id)
}

// appendCodes appends a column of dictionary codes.
func appendCodes(b []byte, codes []uint32) []byte {
	for _, c := range codes {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

// appendDeltas appends a column as each value's difference from the
// one before it.
func appendDeltas[T int | int64](b []byte, col []T) []byte {
	prev := int64(0)
	for _, v := range col {
		b = binary.AppendVarint(b, int64(v)-prev)
		prev = int64(v)
	}
	return b
}

// flush encodes the pending block as a block body — the columns in the
// order decodeColumns reads them — compresses it, appends the framed
// block to its kind's section and its entry to that section's index,
// feeds the block to the L1 builder if there is one, and starts the
// next block.
func (sb *segBuilder) flush(p *pending) {
	b := &p.colBlock
	if b.n == 0 {
		return
	}
	body := binary.AppendUvarint(sb.w.body[:0], uint64(b.n))
	body = appendDeltas(body, b.slices)
	body = append(body, b.addrs...)
	segDict := &sb.vans
	if b.kind == KindCaptures {
		b.vans = p.dicts[0].vals
		body = appendDict(body, b.vans)
		body = appendCodes(body, b.van)
	} else {
		segDict = &sb.mods
		b.mods, b.stats, b.errs = p.dicts[0].vals, p.dicts[1].vals, p.dicts[2].vals
		body = appendDict(body, b.mods)
		body = appendDict(body, b.stats)
		body = appendDict(body, b.errs)
		body = appendCodes(body, b.mod)
		for _, port := range b.ports {
			body = binary.AppendUvarint(body, uint64(port))
		}
		body = appendDeltas(body, b.times)
		body = appendCodes(body, b.stat)
		body = appendCodes(body, b.errc)
		for _, a := range b.attempts {
			body = binary.AppendUvarint(body, uint64(a))
		}
		body = appendDeltas(body, b.seqs)
		for i := 0; i < b.n; i++ {
			g := b.grab(i)
			body = binary.AppendUvarint(body, uint64(len(g)))
			body = append(body, g...)
		}
	}
	sb.w.body = body

	// The index entry: the mask over the segment's module (or vantage)
	// dictionary, the /48 key range; and the segment's slice range and
	// key set.
	bi := blockIndex{Kind: b.kind, Off: int64(len(p.section)), RawLen: len(body), Rows: b.n,
		SliceLo: b.slices[0], SliceHi: b.slices[b.n-1], Min48: ^uint64(0)}
	for _, s := range p.dicts[0].vals {
		bi.Mask |= maskBit(segDict.id(s))
	}
	for i := 0; i < b.n; i++ {
		k := key48(b.addrs[16*i:])
		bi.Min48, bi.Max48 = min(bi.Min48, k), max(bi.Max48, k)
		sb.keys[k] = struct{}{}
	}
	for _, s := range b.slices {
		if sb.sliceLo < 0 || s < sb.sliceLo {
			sb.sliceLo = s
		}
		sb.sliceHi = max(sb.sliceHi, s)
	}

	payload := sb.w.compress(body)
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	p.section = append(append(p.section, hdr[:]...), payload...)
	bi.Len = int64(blockHeaderLen + len(payload))
	p.index = append(p.index, bi)
	sb.rows += int64(b.n)

	if sb.l1 != nil {
		b.settleGrabs()
		sb.l1.addBlock(b)
	}
	p.start(b.kind)
}

// finish flushes pending rows and lays out the file: the magic, the
// capture section, the result section, the footer and the trailer. It
// returns the complete image and its row count.
func (sb *segBuilder) finish() ([]byte, int64) {
	sb.flush(&sb.caps)
	sb.flush(&sb.res)
	blocks := make([]blockIndex, 0, len(sb.caps.index)+len(sb.res.index))
	base := int64(len(segMagic))
	for _, p := range []*pending{&sb.caps, &sb.res} {
		for _, bi := range p.index {
			bi.Off += base
			blocks = append(blocks, bi)
		}
		base += int64(len(p.section))
	}
	ftr := []byte{segVersion}
	ftr = binary.AppendUvarint(ftr, uint64(len(blocks)))
	for _, bi := range blocks {
		ftr = append(ftr, byte(bi.Kind))
		ftr = binary.AppendUvarint(ftr, uint64(bi.Off))
		ftr = binary.AppendUvarint(ftr, uint64(bi.Len))
		ftr = binary.AppendUvarint(ftr, uint64(bi.RawLen))
		ftr = binary.AppendUvarint(ftr, uint64(bi.Rows))
		ftr = binary.AppendUvarint(ftr, uint64(bi.SliceLo))
		ftr = binary.AppendUvarint(ftr, uint64(bi.SliceHi))
		ftr = binary.LittleEndian.AppendUint64(ftr, bi.Mask)
		ftr = binary.AppendUvarint(ftr, bi.Min48)
		ftr = binary.AppendUvarint(ftr, bi.Max48)
	}
	ftr = appendDict(ftr, sb.mods.vals)
	ftr = appendDict(ftr, sb.vans.vals)
	bl := newBloom(len(sb.keys))
	for k := range sb.keys {
		bl.add(k)
	}
	ftr = appendBloom(ftr, bl)

	out := make([]byte, 0, base+int64(len(ftr))+trailerLen)
	out = append(out, segMagic...)
	out = append(append(out, sb.caps.section...), sb.res.section...)
	out = append(out, ftr...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(ftr)))
	binary.LittleEndian.PutUint32(tr[4:], crc32.Checksum(ftr, castagnoli))
	copy(tr[8:], ftrMagic)
	out = append(out, tr[:]...)
	return out, sb.rows
}

// segment is a parsed footer: the sparse index the query engine prunes
// against.
type segment struct {
	blocks []blockIndex
	mods   []string
	vans   []string
	bloom  *bloom
}

// parseFooter decodes a footer body. size is the full file length,
// used to bound block extents.
func parseFooter(body []byte, size int64) (*segment, error) {
	r := &colReader{b: body}
	ver, err := r.take(1)
	if err != nil || ver[0] != segVersion {
		return nil, errCorrupt
	}
	n, err := r.uvarint()
	if err != nil || n > uint64(len(body)) {
		return nil, errCorrupt
	}
	seg := &segment{blocks: make([]blockIndex, 0, n)}
	end := int64(len(segMagic))
	for i := uint64(0); i < n; i++ {
		var bi blockIndex
		kind, err := r.take(1)
		if err != nil {
			return nil, err
		}
		bi.Kind = Kind(kind[0])
		if bi.Kind != KindCaptures && bi.Kind != KindResults {
			return nil, errCorrupt
		}
		fields := [6]uint64{}
		for j := range fields {
			if fields[j], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
		bi.Off, bi.Len = int64(fields[0]), int64(fields[1])
		bi.RawLen, bi.Rows = int(fields[2]), int(fields[3])
		bi.SliceLo, bi.SliceHi = int(fields[4]), int(fields[5])
		mb, err := r.take(8)
		if err != nil {
			return nil, err
		}
		bi.Mask = binary.LittleEndian.Uint64(mb)
		if bi.Min48, err = r.uvarint(); err != nil {
			return nil, err
		}
		if bi.Max48, err = r.uvarint(); err != nil {
			return nil, err
		}
		// Blocks must tile the data region in order, never overlapping
		// the footer.
		if bi.Off != end || bi.Len < blockHeaderLen || bi.Off+bi.Len > size ||
			bi.RawLen > maxRawBlock || bi.Rows > maxBlockRows || bi.SliceHi < bi.SliceLo {
			return nil, errCorrupt
		}
		end = bi.Off + bi.Len
		seg.blocks = append(seg.blocks, bi)
	}
	if seg.mods, err = readDict(r); err != nil {
		return nil, err
	}
	if seg.vans, err = readDict(r); err != nil {
		return nil, err
	}
	if seg.bloom, err = readBloom(r); err != nil {
		return nil, err
	}
	if r.rem() != 0 {
		return nil, errCorrupt
	}
	return seg, nil
}

// parseTrailer locates the footer within a whole-file image, returning
// its [start, end) offsets after validating magic and CRC.
func parseTrailer(data []byte) (ftrStart, ftrEnd int64, err error) {
	if len(data) < len(segMagic)+trailerLen || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, errCorrupt
	}
	tr := data[len(data)-trailerLen:]
	if string(tr[8:]) != ftrMagic {
		return 0, 0, errCorrupt
	}
	flen := int64(binary.LittleEndian.Uint32(tr[0:4]))
	fcrc := binary.LittleEndian.Uint32(tr[4:8])
	ftrEnd = int64(len(data)) - trailerLen
	ftrStart = ftrEnd - flen
	if ftrStart < int64(len(segMagic)) {
		return 0, 0, errCorrupt
	}
	if crc32.Checksum(data[ftrStart:ftrEnd], castagnoli) != fcrc {
		return 0, 0, errCorrupt
	}
	return ftrStart, ftrEnd, nil
}

// parseSegmentBytes parses a whole in-memory segment image.
func parseSegmentBytes(data []byte) (*segment, error) {
	ftrStart, ftrEnd, err := parseTrailer(data)
	if err != nil {
		return nil, err
	}
	seg, err := parseFooter(data[ftrStart:ftrEnd], ftrStart)
	if err != nil {
		return nil, err
	}
	return seg, nil
}

// decodeBlock verifies and decompresses one framed block. blockBytes
// is the on-disk extent [Off, Off+Len).
func decodeBlock(blockBytes []byte, bi blockIndex) ([]byte, error) {
	if int64(len(blockBytes)) != bi.Len || bi.Len < blockHeaderLen {
		return nil, errCorrupt
	}
	plen := binary.LittleEndian.Uint32(blockBytes[0:4])
	crc := binary.LittleEndian.Uint32(blockBytes[4:8])
	if int64(plen)+blockHeaderLen != bi.Len {
		return nil, errCorrupt
	}
	payload := blockBytes[blockHeaderLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, errCorrupt
	}
	raw := make([]byte, bi.RawLen)
	fr := flate.NewReader(bytes.NewReader(payload))
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, errCorrupt
	}
	var one [1]byte
	if n, _ := fr.Read(one[:]); n != 0 {
		return nil, errCorrupt
	}
	return raw, nil
}

// eachBlock parses a whole segment image and hands fn its blocks in
// file order, each decoded to columns: how compaction reads its inputs
// when no pending L1 builder holds them, and what DecodeSegment walks.
func eachBlock(data []byte, fn func(*colBlock) error) error {
	seg, err := parseSegmentBytes(data)
	if err != nil {
		return err
	}
	for _, bi := range seg.blocks {
		raw, err := decodeBlock(data[bi.Off:bi.Off+bi.Len], bi)
		if err != nil {
			return err
		}
		b, err := decodeColumns(raw, bi.Kind)
		if err != nil {
			return err
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// DecodeSegment fully parses and decodes an in-memory segment image —
// footer, every block, every row, in file order — through the row
// view. It is the walker ReplaySlices runs over every live segment on
// a resume and the FuzzSegmentDecode entry point: any input must
// either decode cleanly or fail with an error, never panic. capFn and
// resFn get every row with its slice id; neither may be nil.
func DecodeSegment(data []byte, capFn func(CaptureRow, int) error, resFn func(*zgrab.Result, int) error) error {
	return eachBlock(data, func(b *colBlock) (err error) {
		for i := 0; i < b.n && err == nil; i++ {
			if b.kind == KindCaptures {
				err = capFn(b.capture(i), b.slices[i])
			} else {
				err = resFn(b.result(i), b.slices[i])
			}
		}
		return err
	})
}
