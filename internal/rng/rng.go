// Package rng provides deterministic, hierarchically seedable random
// number streams for the simulation.
//
// Every stochastic component of the reproduction draws from a Stream
// derived from a single root seed, so an entire experiment is
// bit-reproducible given (seed, scale). Streams are derived by name with
// Derive, which hashes the parent state and the label; two streams with
// different labels are statistically independent, and deriving the same
// label twice yields the same stream.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference construction by Blackman and Vigna. It is not cryptographic;
// it only has to be fast, well distributed, and stable across releases
// (math/rand's default source gives no cross-version guarantee, and
// math/rand/v2's ChaCha8 is seeded from OS entropy).
//
// A draw that must not depend on how many goroutines run, or in which
// order, takes no Stream at all: it is a pure Hash of its inputs.
// Fault-plan loss and garbling, link queue depth and jitter, retry
// jitter, the store's /48 bloom filter, actor seeds, OUI allocation and
// Derive itself are all Hash chains. A shared stream's draw order would
// follow goroutine scheduling; a hash of the packet's identity (plan
// seed, addresses, destination port, payload, logical time, attempt)
// rolls the same way whoever sends it. Ephemeral source ports stay out
// of every flow identity, since bind order under concurrency is not
// deterministic. The byte-identity oracles rest on this exact
// construction: changing a fold or the finaliser moves every output.
package rng

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// Stream is a deterministic random number stream. It is NOT safe for
// concurrent use; derive one stream per goroutine instead of sharing.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// Reseed reinitialises the stream in place from a 64-bit seed, exactly
// as New would. Hot paths that derive one short-lived stream per item
// (per-device materialization, per-address derivation) reuse a single
// scratch Stream through Reseed instead of allocating with New.
func (r *Stream) Reseed(seed uint64) {
	// splitmix64, the recommended seeder for xoshiro state: a Weyl
	// sequence through the finaliser.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		r.s[i] = Hash(x).Mix()
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s == [4]uint64{} {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a child stream whose seed is a function of the parent's
// current seed material and the label. Derivation does not advance the
// parent, so the set of children is stable regardless of how much the
// parent has been used before deriving — callers should derive all
// children up front for clarity, but are not required to.
func (r *Stream) Derive(label string) *Stream {
	h := NewHash().Word(r.s[0]).Word(r.s[1]).Word(r.s[2]).Word(r.s[3])
	return New(uint64(h.String(label)))
}

// State exports the stream's current position so a checkpoint can
// capture it. Restoring the four words with SetState resumes the
// stream exactly where it left off.
func (r *Stream) State() [4]uint64 { return r.s }

// SetState restores a position previously captured with State. The
// all-zero state is invalid for xoshiro and is rejected by falling
// back to a fixed non-zero word (it can only arise from a corrupted
// checkpoint, never from State).
func (r *Stream) SetState(s [4]uint64) {
	if s == [4]uint64{} {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

// DeriveIndexed returns Derive(label + "/" + i) without building the
// label through fmt. Sharded pipelines derive one stream per shard index
// — e.g. DeriveIndexed("volume/shard", 3) == Derive("volume/shard/3") —
// so a shard's stream depends only on the root seed and its index, never
// on how many goroutines execute the shards.
func (r *Stream) DeriveIndexed(label string, i int) *Stream {
	return r.Derive(label + "/" + strconv.Itoa(i))
}

// Uint64 returns the next 64 bits from the stream.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Int63 returns a non-negative int64.
func (r *Stream) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Zipf returns a value in [0, n) with a Zipf-like distribution of
// exponent s (s > 0). Small values are most likely. This uses the
// rejection-inversion method specialised to bounded support.
func (r *Stream) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation: P(X <= x) ~ H(x)/H(n) with
	// H(x) = (x+1)^(1-s). Exact enough for workload shaping.
	if s == 1 {
		s = 1.0000001
	}
	oneMinus := 1 - s
	hn := math.Pow(float64(n), oneMinus)
	u := r.Float64()
	x := math.Pow(u*(hn-1)+1, 1/oneMinus) - 1
	v := int(x)
	if v < 0 {
		v = 0
	}
	if v >= n {
		v = n - 1
	}
	return v
}

// Perm returns a random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function, Fisher-Yates style.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](r *Stream, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// WeightedIndex returns an index into weights chosen with probability
// proportional to the weight. Zero or negative weights are never chosen.
// It returns -1 if the total weight is not positive.
func (r *Stream) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	target := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		target -= w
		if target < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// Bytes fills b with random bytes.
func (r *Stream) Bytes(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
