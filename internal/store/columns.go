package store

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// errCorrupt is the blanket decode failure: every malformed input —
// truncation, bad varint, impossible count — folds into it, so the
// fuzz target and the crash-recovery path have one error to classify.
var errCorrupt = errors.New("store: corrupt segment")

// colReader is a bounds-checked cursor over an in-memory byte slice.
// Every decode path goes through it; nothing indexes raw buffers.
type colReader struct {
	b   []byte
	off int
}

// rem is how many bytes remain.
func (r *colReader) rem() int { return len(r.b) - r.off }

func (r *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	r.off += n
	return v, nil
}

func (r *colReader) svarint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	r.off += n
	return v, nil
}

// take returns the next n bytes without copying.
func (r *colReader) take(n int) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, errCorrupt
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// deltas reads a column of n delta-encoded varints as running sums.
func (r *colReader) deltas(n int) ([]int64, error) {
	out := make([]int64, n)
	prev := int64(0)
	for i := range out {
		d, err := r.svarint()
		if err != nil {
			return nil, err
		}
		prev += d
		out[i] = prev
	}
	return out, nil
}

// codes reads a column of n dictionary ids, each below dictLen.
func (r *colReader) codes(n, dictLen int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if id >= uint64(dictLen) {
			return nil, errCorrupt
		}
		out[i] = uint32(id)
	}
	return out, nil
}

// dict assigns dense ids to strings in first-appearance order — the
// only order that is identical at every worker count, since rows reach
// the store in deterministic (shard/sequence) order.
type dict struct {
	idx  map[string]int
	vals []string
}

func (d *dict) id(s string) int {
	if i, ok := d.idx[s]; ok {
		return i
	}
	if d.idx == nil {
		d.idx = make(map[string]int)
	}
	i := len(d.vals)
	d.idx[s] = i
	d.vals = append(d.vals, s)
	return i
}

// appendDict encodes a string table: uvarint count, then per entry
// uvarint length + bytes.
func appendDict(b []byte, vals []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// readDict decodes a string table. The entry count is bounded by the
// remaining payload (each entry costs at least its length prefix), so
// hostile inputs cannot force huge allocations.
func readDict(r *colReader) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errCorrupt
	}
	vals := make([]string, n)
	for i := range vals {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.take(int(l))
		if err != nil {
			return nil, err
		}
		vals[i] = string(b)
	}
	return vals, nil
}

// key48 packs the /48 prefix of a 16-byte address into a comparable
// integer — the key space of the per-block min/max index and the
// segment bloom filter.
func key48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// prefixKeyRange maps a prefix of up to /48 onto the inclusive key48
// range it covers. Longer prefixes collapse to their containing /48
// (exact key, bloom-eligible).
func prefixKeyRange(p netip.Prefix) (lo, hi uint64) {
	a := p.Masked().Addr().As16()
	lo = key48(a[:])
	bits := p.Bits()
	if bits >= 48 {
		return lo, lo
	}
	return lo, lo | (uint64(1)<<(48-bits) - 1)
}
