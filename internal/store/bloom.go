package store

import (
	"encoding/binary"

	"ntpscan/internal/rng"
)

// bloom is a classic k-hash bloom filter over /48 prefix keys, sized
// at ~10 bits per distinct key (k=7, ~1% false positives). Hashes are
// derived from two splitmix64 finalisers — pure integer mixing, so the
// filter bytes are a deterministic function of the key set.
type bloom struct {
	k    uint32
	bits []uint64
}

// newBloom sizes a filter for the expected distinct-key count.
func newBloom(distinct int) *bloom {
	if distinct < 1 {
		distinct = 1
	}
	words := (distinct*10 + 63) / 64
	return &bloom{k: 7, bits: make([]uint64, words)}
}

func (f *bloom) hashes(key uint64) (h1, h2 uint64) {
	h1 = rng.Hash(key ^ 0x9e3779b97f4a7c15).Mix()
	h2 = rng.Hash(key^0xc2b2ae3d27d4eb4f).Mix() | 1
	return h1, h2
}

func (f *bloom) add(key uint64) {
	h1, h2 := f.hashes(key)
	n := uint64(len(f.bits)) * 64
	for i := uint64(0); i < uint64(f.k); i++ {
		bit := (h1 + i*h2) % n
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (f *bloom) mayContain(key uint64) bool {
	if len(f.bits) == 0 {
		return false
	}
	h1, h2 := f.hashes(key)
	n := uint64(len(f.bits)) * 64
	for i := uint64(0); i < uint64(f.k); i++ {
		bit := (h1 + i*h2) % n
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// appendBloom encodes the filter: uvarint k, uvarint word count, then
// the words little-endian.
func appendBloom(b []byte, f *bloom) []byte {
	b = binary.AppendUvarint(b, uint64(f.k))
	b = binary.AppendUvarint(b, uint64(len(f.bits)))
	for _, w := range f.bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// readBloom decodes a filter, bounding both parameters by what the
// remaining payload can actually hold.
func readBloom(r *colReader) (*bloom, error) {
	k, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	words, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if k == 0 || k > 32 || words > uint64(r.rem())/8 {
		return nil, errCorrupt
	}
	f := &bloom{k: uint32(k), bits: make([]uint64, words)}
	for i := range f.bits {
		b, err := r.take(8)
		if err != nil {
			return nil, err
		}
		f.bits[i] = binary.LittleEndian.Uint64(b)
	}
	return f, nil
}
