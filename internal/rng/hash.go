package rng

import "net/netip"

// Hash is the stateless draw: an FNV-1a 64 fold of the draw's inputs,
// finished by the splitmix64 mixer. The fold methods return the
// extended hash, so a draw reads as one chain:
//
//	rng.NewHash().Word(seed).Byte('t').Addr(src).Word(attempt).Float64()
//
// The raw fold is the value itself (uint64(h)), byte for byte what
// hash/fnv's New64a sums over the same bytes.
type Hash uint64

const hashPrime = 1099511628211

// NewHash returns the FNV-1a 64 offset basis, the hash of no bytes.
func NewHash() Hash { return 14695981039346656037 }

// Step folds all of v in as one FNV-1a step: a whole word xored in,
// then one multiply. For v < 256 it is Byte.
func (h Hash) Step(v uint64) Hash { return (h ^ Hash(v)) * hashPrime }

// Byte folds one byte.
func (h Hash) Byte(b byte) Hash { return h.Step(uint64(b)) }

// Word folds v's 8 bytes, little-endian.
func (h Hash) Word(v uint64) Hash {
	for i := 0; i < 64; i += 8 {
		h = h.Byte(byte(v >> i))
	}
	return h
}

// Addr folds a's 16 bytes in network order.
func (h Hash) Addr(a netip.Addr) Hash {
	b := a.As16()
	return h.Bytes(b[:])
}

// Bytes folds p.
func (h Hash) Bytes(p []byte) Hash {
	for _, b := range p {
		h = h.Byte(b)
	}
	return h
}

// String folds s's bytes.
func (h Hash) String(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Mix finishes the fold with the splitmix64 finaliser, so inputs that
// differ in one byte give unrelated words. Hash(x).Mix() is also the
// finaliser alone, for a key that needs no fold.
func (h Hash) Mix() uint64 {
	z := uint64(h)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 is Mix's top 53 bits as a fraction in [0, 1).
func (h Hash) Float64() float64 { return float64(h.Mix()>>11) / (1 << 53) }
