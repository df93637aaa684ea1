package store

import (
	"bytes"
	"net/netip"
	"strconv"
	"time"

	"ntpscan/internal/intern"
	"ntpscan/internal/zgrab"
)

// colBlock is one block's columns as vectors, row i of the block at
// index i of each. It is what decodeColumns produces, what the block
// cache holds and what every reader works from — a scan filters on the
// slice, code and address vectors and never builds a row it was not
// asked for; row, capture and result are the row view for callers that
// want structs. It is also the shape a segBuilder fills and compaction
// merges: a block the builder filled (and the store holds until
// compaction) has the vectors and dictionaries, not the fields only a
// scan reads (sliceLo, sliceHi, the quoted members). A colBlock is
// immutable once decoded or flushed and aliases nothing: concurrent
// scans share it without coordination.
type colBlock struct {
	kind Kind
	n    int

	slices []int
	// sliceLo and sliceHi bound the slices column as decoded (not as the
	// footer claims), so a scan whose range covers them skips the
	// per-row test.
	sliceLo, sliceHi int
	addrs            []byte // 16 bytes per row

	// Capture blocks: the vantage dictionary and each row's code into it.
	vans []string
	van  []uint32

	// Result blocks. The three dictionaries are interned once, here;
	// modJSON, statJSON and errJSON hold each entry as the envelope
	// member appendResult writes for it, escaped once per block instead
	// of once per row.
	mods, stats, errs          []string
	modJSON, statJSON, errJSON []string
	mod, stat, errc            []uint32
	ports                      []uint16
	times                      []int64 // unix nanoseconds
	attempts                   []int
	seqs                       []int64
	// grabs holds every row's grab object back to back, row i's at
	// grabs[grabOff[i]:grabOff[i+1]], empty for a row without one. The
	// bytes are always Result.AppendGrabs' own output: decodeColumns
	// parses each stored grab and writes it again (appendGrab), so
	// whatever a segment holds, what is spliced into a reply or copied
	// into a compacted segment is the encoder's.
	grabs   []byte
	grabOff []uint32
}

// decodeColumns is the block decoder: the one function that reads a
// block body's columns, with every bound the format has. The scan path
// caches its result; compaction merges it when it reads a segment the
// store holds no columns of; ReplaySlices and DecodeSegment walk it row
// by row.
func decodeColumns(raw []byte, kind Kind) (*colBlock, error) {
	r := &colReader{b: raw}
	n, err := r.uvarint()
	if err != nil || n > maxBlockRows {
		return nil, errCorrupt
	}
	rows := int(n)
	b := &colBlock{kind: kind, n: rows, slices: make([]int, rows), sliceHi: -1}
	prev := int64(0)
	for i := range b.slices {
		d, err := r.svarint()
		if err != nil {
			return nil, err
		}
		prev += d
		s := int(prev)
		b.slices[i] = s
		if i == 0 || s < b.sliceLo {
			b.sliceLo = s
		}
		if i == 0 || s > b.sliceHi {
			b.sliceHi = s
		}
	}
	addrs, err := r.take(16 * rows)
	if err != nil {
		return nil, err
	}
	b.addrs = append([]byte(nil), addrs...)

	switch kind {
	case KindCaptures:
		if b.vans, err = readDict(r); err != nil {
			return nil, err
		}
		if b.van, err = r.codes(rows, len(b.vans)); err != nil {
			return nil, err
		}
	case KindResults:
		for _, d := range []*[]string{&b.mods, &b.stats, &b.errs} {
			if *d, err = readDict(r); err != nil {
				return nil, err
			}
			for i, s := range *d {
				(*d)[i] = intern.Default.String(s)
			}
		}
		if b.mod, err = r.codes(rows, len(b.mods)); err != nil {
			return nil, err
		}
		b.ports = make([]uint16, rows)
		for i := range b.ports {
			p, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if p > 0xffff {
				return nil, errCorrupt
			}
			b.ports[i] = uint16(p)
		}
		if b.times, err = r.deltas(rows); err != nil {
			return nil, err
		}
		if b.stat, err = r.codes(rows, len(b.stats)); err != nil {
			return nil, err
		}
		if b.errc, err = r.codes(rows, len(b.errs)); err != nil {
			return nil, err
		}
		b.attempts = make([]int, rows)
		for i := range b.attempts {
			a, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			b.attempts[i] = int(a)
		}
		if b.seqs, err = r.deltas(rows); err != nil {
			return nil, err
		}
		b.grabOff = make([]uint32, rows+1)
		var parsed zgrab.Result // SetGrabs overwrites all six grab pointers
		for i := 0; i < rows; i++ {
			gl, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			gb, err := r.take(int(gl))
			if err != nil {
				return nil, err
			}
			if len(gb) > 0 {
				if b.grabs, err = appendGrab(b.grabs, gb, &parsed); err != nil {
					return nil, err
				}
			}
			b.grabOff[i+1] = uint32(len(b.grabs))
		}
		b.modJSON = memberJSON(b.mods, `,"module":`, `,"port":`, false)
		b.statJSON = memberJSON(b.stats, `,"status":`, "", false)
		b.errJSON = memberJSON(b.errs, `,"error":`, "", true)
	default:
		return nil, errCorrupt
	}
	if r.rem() != 0 {
		return nil, errCorrupt
	}
	return b, nil
}

// escRuneError is how AppendGrabs writes a byte of invalid UTF-8, and
// the one thing in its output that a parse does not give back as
// written: it reads back as U+FFFD, which AppendGrabs writes as itself.
var escRuneError = []byte(`\ufffd`)

// appendGrab appends what Result.AppendGrabs writes for the grab
// object g parses to — decodeColumns' reading of a stored grab.
func appendGrab(dst, g []byte, parsed *zgrab.Result) ([]byte, error) {
	if parsed.SetGrabs(g) != nil {
		return dst, errCorrupt
	}
	out, err := parsed.AppendGrabs(dst)
	if err != nil {
		return dst, errCorrupt
	}
	return out, nil
}

// settleGrabs makes a block a segBuilder filled what decodeColumns
// reads back from its body: a grab that holds an escaped byte of
// invalid UTF-8 is replaced by appendGrab's reading of it, and every
// other grab already is its own reading. (A grab that did not parse
// would stay as written; AppendGrabs' output always parses.)
func (b *colBlock) settleGrabs() {
	if !bytes.Contains(b.grabs, escRuneError) {
		return
	}
	grabs, off := make([]byte, 0, len(b.grabs)), make([]uint32, 1, b.n+1)
	var parsed zgrab.Result
	for i := 0; i < b.n; i++ {
		g := b.grab(i)
		if bytes.Contains(g, escRuneError) {
			if settled, err := appendGrab(nil, g, &parsed); err == nil {
				g = settled
			}
		}
		grabs = append(grabs, g...)
		off = append(off, uint32(len(grabs)))
	}
	b.grabs, b.grabOff = grabs, off
}

// memberJSON renders each dictionary entry as before + its JSON string
// + after; with omitEmpty the empty entry renders as nothing, the way
// an omitempty member does.
func memberJSON(dict []string, before, after string, omitEmpty bool) []string {
	out := make([]string, len(dict))
	var buf []byte
	for i, s := range dict {
		if s == "" && omitEmpty {
			continue
		}
		buf = append(buf[:0], before...)
		buf = zgrab.AppendJSONString(buf, s)
		out[i] = string(append(buf, after...))
	}
	return out
}

func (b *colBlock) addr(i int) [16]byte { return [16]byte(b.addrs[16*i : 16*i+16]) }

func (b *colBlock) grab(i int) []byte { return b.grabs[b.grabOff[i]:b.grabOff[i+1]] }

// capture builds row i of a capture block.
func (b *colBlock) capture(i int) CaptureRow {
	return CaptureRow{Addr: netip.AddrFrom16(b.addr(i)), Vantage: b.vans[b.van[i]]}
}

// result builds row i of a result block: a Result of its own, sharing
// only interned strings with any other.
func (b *colBlock) result(i int) *zgrab.Result {
	res := &zgrab.Result{
		IP:       netip.AddrFrom16(b.addr(i)),
		Module:   b.mods[b.mod[i]],
		Port:     b.ports[i],
		Time:     time.Unix(0, b.times[i]).UTC(),
		Status:   zgrab.Status(b.stats[b.stat[i]]),
		Error:    b.errs[b.errc[i]],
		Attempts: b.attempts[i],
		Seq:      b.seqs[i],
	}
	if g := b.grab(i); len(g) > 0 {
		// g is AppendGrabs' encoding of a payload SetGrabs decoded, which
		// SetGrabs decodes again.
		_ = res.SetGrabs(g)
		res.Intern()
	}
	return res
}

// row builds row i as a scan hands it out.
func (b *colBlock) row(i int) Row {
	if b.kind == KindCaptures {
		return Row{Kind: KindCaptures, Slice: b.slices[i], Capture: b.capture(i)}
	}
	return Row{Kind: KindResults, Slice: b.slices[i], Result: b.result(i)}
}

// rowText remembers the last address and the last time it formatted.
// A target's results sit next to each other (one per module) and a
// slice has a handful of timestamps, so most rows reuse both; and a
// /v1/query result row, which carries its address twice, formats it
// once.
type rowText struct {
	addr     [16]byte
	ns       int64
	addrJSON []byte // the quoted text of addr; empty before the first row
	timeJSON []byte // the quoted text of ns
	addrBuf  [48]byte
	timeBuf  [40]byte
}

func (t *rowText) appendAddr(dst []byte, a [16]byte) []byte {
	if len(t.addrJSON) == 0 || t.addr != a {
		t.addr = a
		t.addrJSON = zgrab.AppendJSONAddr(t.addrBuf[:0], netip.AddrFrom16(a))
	}
	return append(dst, t.addrJSON...)
}

// appendTime writes ns as Result.AppendJSON writes the time the row
// view builds from it. time.Unix(0, ns).UTC() lies in years 1677–2262,
// so neither refusal of time.Time.MarshalJSON can apply.
func (t *rowText) appendTime(dst []byte, ns int64) []byte {
	if len(t.timeJSON) == 0 || t.ns != ns {
		t.ns = ns
		b := append(t.timeBuf[:0], '"')
		b = time.Unix(0, ns).UTC().AppendFormat(b, time.RFC3339Nano)
		t.timeJSON = append(b, '"')
	}
	return append(dst, t.timeJSON...)
}

// appendResult appends row i of a result block as the JSON envelope —
// byte for byte what result(i).AppendJSON writes, without building the
// Result: the address and time through t, the dictionary members as
// decodeColumns quoted them, and the stored grab object's members
// spliced in. It is the one writer of the envelope from vectors;
// ExportJSONL and queryd's /v1/query rows both come through here
// (FuzzSpliceMatchesAppendJSON referees it against AppendJSON).
func (b *colBlock) appendResult(dst []byte, i int, t *rowText) []byte {
	dst = append(dst, `{"ip":`...)
	dst = t.appendAddr(dst, b.addr(i))
	dst = append(dst, b.modJSON[b.mod[i]]...)
	dst = strconv.AppendUint(dst, uint64(b.ports[i]), 10)
	dst = append(dst, `,"time":`...)
	dst = t.appendTime(dst, b.times[i])
	dst = append(dst, b.statJSON[b.stat[i]]...)
	dst = append(dst, b.errJSON[b.errc[i]]...)
	if a := b.attempts[i]; a != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	if g := b.grab(i); len(g) > 0 {
		// g is `{` + members + `}`: its tail closes the envelope.
		dst = append(dst, ',')
		return append(dst, g[1:]...)
	}
	return append(dst, '}')
}
