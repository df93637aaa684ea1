package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/netip"

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
// vantage country that captured it.
type CaptureRow struct {
	Addr    netip.Addr
	Vantage string
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

// segBuilder accumulates rows and emits a complete segment image.
// Callers add captures (then flushCaptures) before results (then
// flushResults): capture blocks precede result blocks in every
// segment, which is the canonical row order the query engine returns.
type segBuilder struct {
	buf    []byte
	blocks []blockIndex
	mods   dict
	vans   dict
	keys   map[uint64]struct{}

	sliceLo, sliceHi int
	rows             int64

	capRows   []CaptureRow
	capSlices []int
	resRows   []*zgrab.Result
	resSlices []int

	body  []byte
	flBuf bytes.Buffer
	fl    *flate.Writer
	// block-local dicts, reset per block
	bdict1, bdict2, bdict3 dict
}

func newSegBuilder() *segBuilder {
	return &segBuilder{
		buf:     append(make([]byte, 0, 1<<16), segMagic...),
		keys:    make(map[uint64]struct{}),
		sliceLo: -1,
		sliceHi: -1,
	}
}

// noteRow folds a row's slice and address into the segment-level
// index state.
func (sb *segBuilder) noteRow(slice int, addr netip.Addr) {
	if sb.sliceLo < 0 || slice < sb.sliceLo {
		sb.sliceLo = slice
	}
	if slice > sb.sliceHi {
		sb.sliceHi = slice
	}
	sb.keys[key48(addr)] = struct{}{}
}

// maskBit maps a dict id onto the 64-bit pruning mask; overflowing
// dicts poison the mask to all-ones (never pruned, never wrong).
func maskBit(id int) uint64 {
	if id >= 64 {
		return ^uint64(0)
	}
	return 1 << uint(id)
}

// addCapture buffers one capture row, flushing a block at the chunk
// boundary.
func (sb *segBuilder) addCapture(c CaptureRow, slice int) {
	sb.capRows = append(sb.capRows, c)
	sb.capSlices = append(sb.capSlices, slice)
	if len(sb.capRows) >= maxBlockRows {
		sb.flushCaptures()
	}
}

// flushCaptures emits the buffered capture rows as one block.
func (sb *segBuilder) flushCaptures() {
	rows, slices := sb.capRows, sb.capSlices
	if len(rows) == 0 {
		return
	}
	sb.capRows, sb.capSlices = rows[:0], slices[:0]

	var mask uint64
	min48, max48 := ^uint64(0), uint64(0)
	vd := &sb.bdict1
	vd.reset()
	body := sb.body[:0]
	body = binary.AppendUvarint(body, uint64(len(rows)))

	// slice column
	prev := int64(0)
	for i, s := range slices {
		body = binary.AppendVarint(body, int64(s)-prev)
		prev = int64(s)
		sb.noteRow(s, rows[i].Addr)
	}
	// addr column
	for _, c := range rows {
		a := c.Addr.As16()
		body = append(body, a[:]...)
		k := key48(c.Addr)
		if k < min48 {
			min48 = k
		}
		if k > max48 {
			max48 = k
		}
	}
	// vantage dict + index column
	idxs := make([]int, len(rows))
	for i, c := range rows {
		id := vd.id(c.Vantage)
		idxs[i] = id
		mask |= maskBit(sb.vans.id(c.Vantage))
	}
	body = appendDict(body, vd.vals)
	for _, id := range idxs {
		body = binary.AppendUvarint(body, uint64(id))
	}
	sb.body = body
	sb.emitBlock(KindCaptures, body, len(rows), slices[0], slices[len(slices)-1], mask, min48, max48)
}

// addResult buffers one result row, flushing a block at the chunk
// boundary.
func (sb *segBuilder) addResult(r *zgrab.Result, slice int) error {
	sb.resRows = append(sb.resRows, r)
	sb.resSlices = append(sb.resSlices, slice)
	if len(sb.resRows) >= maxBlockRows {
		return sb.flushResults()
	}
	return nil
}

// flushResults emits the buffered result rows as one block.
func (sb *segBuilder) flushResults() error {
	rows, slices := sb.resRows, sb.resSlices
	if len(rows) == 0 {
		return nil
	}
	sb.resRows, sb.resSlices = rows[:0], slices[:0]

	var mask uint64
	min48, max48 := ^uint64(0), uint64(0)
	md, sd, ed := &sb.bdict1, &sb.bdict2, &sb.bdict3
	md.reset()
	sd.reset()
	ed.reset()
	body := sb.body[:0]
	body = binary.AppendUvarint(body, uint64(len(rows)))

	// slice column
	prev := int64(0)
	for i, s := range slices {
		body = binary.AppendVarint(body, int64(s)-prev)
		prev = int64(s)
		sb.noteRow(s, rows[i].IP)
	}
	// ip column
	for _, r := range rows {
		a := r.IP.As16()
		body = append(body, a[:]...)
		k := key48(r.IP)
		if k < min48 {
			min48 = k
		}
		if k > max48 {
			max48 = k
		}
	}
	// dicts (built in row order), then index columns
	modIdx := make([]int, len(rows))
	staIdx := make([]int, len(rows))
	errIdx := make([]int, len(rows))
	for i, r := range rows {
		modIdx[i] = md.id(r.Module)
		staIdx[i] = sd.id(string(r.Status))
		errIdx[i] = ed.id(r.Error)
		mask |= maskBit(sb.mods.id(r.Module))
	}
	body = appendDict(body, md.vals)
	body = appendDict(body, sd.vals)
	body = appendDict(body, ed.vals)
	for _, id := range modIdx {
		body = binary.AppendUvarint(body, uint64(id))
	}
	// port column
	for _, r := range rows {
		body = binary.AppendUvarint(body, uint64(r.Port))
	}
	// time column (delta unix-nanos)
	prev = 0
	for _, r := range rows {
		ns := r.Time.UnixNano()
		body = binary.AppendVarint(body, ns-prev)
		prev = ns
	}
	for _, id := range staIdx {
		body = binary.AppendUvarint(body, uint64(id))
	}
	for _, id := range errIdx {
		body = binary.AppendUvarint(body, uint64(id))
	}
	// attempts column
	for _, r := range rows {
		body = binary.AppendUvarint(body, uint64(r.Attempts))
	}
	// seq column (delta)
	prev = 0
	for _, r := range rows {
		body = binary.AppendVarint(body, r.Seq-prev)
		prev = r.Seq
	}
	// grabs column
	var scratch []byte
	for _, r := range rows {
		g, err := r.AppendGrabs(scratch[:0])
		if err != nil {
			return err
		}
		scratch = g
		body = binary.AppendUvarint(body, uint64(len(g)))
		body = append(body, g...)
	}
	sb.body = body
	sb.emitBlock(KindResults, body, len(rows), slices[0], slices[len(slices)-1], mask, min48, max48)
	return nil
}

// emitBlock compresses a body and appends the framed block to the
// file image.
func (sb *segBuilder) emitBlock(kind Kind, body []byte, rows, sliceLo, sliceHi int, mask, min48, max48 uint64) {
	off := int64(len(sb.buf))
	sb.flBuf.Reset()
	if sb.fl == nil {
		sb.fl, _ = flate.NewWriter(&sb.flBuf, flate.BestSpeed)
	} else {
		sb.fl.Reset(&sb.flBuf)
	}
	sb.fl.Write(body)
	sb.fl.Close()
	payload := sb.flBuf.Bytes()
	var hdr [blockHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	sb.buf = append(sb.buf, hdr[:]...)
	sb.buf = append(sb.buf, payload...)
	sb.blocks = append(sb.blocks, blockIndex{
		Kind: kind, Off: off, Len: int64(blockHeaderLen + len(payload)),
		RawLen: len(body), Rows: rows,
		SliceLo: sliceLo, SliceHi: sliceHi,
		Mask: mask, Min48: min48, Max48: max48,
	})
	sb.rows += int64(rows)
}

// finish flushes pending rows and appends the footer and trailer,
// returning the complete file image.
func (sb *segBuilder) finish() ([]byte, int64, error) {
	sb.flushCaptures()
	if err := sb.flushResults(); err != nil {
		return nil, 0, err
	}
	ftr := []byte{segVersion}
	ftr = binary.AppendUvarint(ftr, uint64(len(sb.blocks)))
	for _, bi := range sb.blocks {
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

	out := append(sb.buf, ftr...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[0:], uint32(len(ftr)))
	binary.LittleEndian.PutUint32(tr[4:], crc32.Checksum(ftr, castagnoli))
	copy(tr[8:], ftrMagic)
	out = append(out, tr[:]...)
	return out, sb.rows, nil
}

// segment is a parsed footer: the sparse index the query engine prunes
// against.
type segment struct {
	blocks []blockIndex
	mods   []string
	vans   []string
	bloom  *bloom
	// dataEnd is where block space ends (the footer's file offset).
	dataEnd int64
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
	seg := &segment{blocks: make([]blockIndex, 0, n), dataEnd: size}
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

// DecodeSegment fully parses and decodes an in-memory segment image —
// footer, every block, every row, in file order. It is the walker
// ReplaySlices runs over every live segment on a resume and the
// FuzzSegmentDecode entry point: any input must either decode cleanly
// or fail with an error, never panic. capFn and resFn get every row
// with its slice id; neither may be nil.
func DecodeSegment(data []byte, capFn func(CaptureRow, int) error, resFn func(*zgrab.Result, int) error) error {
	seg, err := parseSegmentBytes(data)
	if err != nil {
		return err
	}
	for _, bi := range seg.blocks {
		raw, err := decodeBlock(data[bi.Off:bi.Off+bi.Len], bi)
		if err != nil {
			return err
		}
		if err := eachRow(raw, bi.Kind, capFn, resFn); err != nil {
			return err
		}
	}
	return nil
}
