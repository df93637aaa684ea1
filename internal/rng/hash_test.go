package rng

import (
	"encoding/binary"
	"hash/fnv"
	"net/netip"
	"testing"
)

// TestHashPinned holds the hash to outputs recorded from the
// constructions it replaced, so a change to any fold step or to the
// finaliser fails here before it moves a golden elsewhere.
func TestHashPinned(t *testing.T) {
	// splitmix64's reference outputs for seed 0, which Reseed draws
	// through Mix.
	want := [4]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	if got := New(0).State(); got != want {
		t.Fatalf("New(0) state = %#x, want %#x", got, want)
	}
	want = [4]uint64{0xf417083233f208da, 0xe7bace8a04a51dfe, 0x715f12260f0a9af5, 0x9756003218534ac8}
	if got := New(0).Derive("world").State(); got != want {
		t.Fatalf("Derive(world) state = %#x, want %#x", got, want)
	}
	// Retry jitter xors the whole attempt in as one step; attempts past
	// a byte and negative ones keep their values.
	a := netip.MustParseAddr("2001:db8::1")
	for _, c := range []struct {
		attempt int
		mix     uint64
	}{
		{0, 0xedcf238b63766e56},
		{3, 0x027e8f055b234908},
		{255, 0x44217dd7cccde38f},
		{256, 0xf9c9a66c0911934c},
		{300, 0xcb443cb958ce7002},
		{-1, 0xf1067590723ce6aa},
		{1 << 40, 0x76486c37e96670dc},
	} {
		if got := NewHash().Addr(a).String("ssh").Step(uint64(c.attempt)).Mix(); got != c.mix {
			t.Errorf("jitter hash at attempt %d = %#x, want %#x", c.attempt, got, c.mix)
		}
	}
}

// FuzzHashMatchesFNV referees the fold against hash/fnv's FNV-1a 64
// over arbitrary bytes, words, addresses and strings, and Mix against
// the splitmix64 output Reseed produces.
func FuzzHashMatchesFNV(f *testing.F) {
	f.Add([]byte("probe"), uint64(0x0123456789abcdef), "ssh", []byte{0x20, 0x01, 0x0d, 0xb8})
	f.Fuzz(func(t *testing.T, p []byte, w uint64, s string, a []byte) {
		var a16 [16]byte
		copy(a16[:], a)
		ref := fnv.New64a()
		ref.Write(p)
		ref.Write(binary.LittleEndian.AppendUint64(nil, w))
		ref.Write(a16[:])
		ref.Write([]byte(s))
		got := NewHash().Bytes(p).Word(w).Addr(netip.AddrFrom16(a16)).String(s)
		if uint64(got) != ref.Sum64() {
			t.Fatalf("fold = %#x, hash/fnv = %#x", uint64(got), ref.Sum64())
		}
		byByte := NewHash()
		for _, b := range p {
			byByte = byByte.Byte(b).Step(0).Step(uint64(b))
		}
		ref.Reset()
		for _, b := range p {
			ref.Write([]byte{b, 0, b})
		}
		if uint64(byByte) != ref.Sum64() {
			t.Fatalf("Byte/Step fold = %#x, hash/fnv = %#x", uint64(byByte), ref.Sum64())
		}

		st := New(w).State()
		if m := Hash(w + 0x9e3779b97f4a7c15).Mix(); m != st[0] {
			t.Fatalf("Mix = %#x, New(%#x)'s first word = %#x", m, w, st[0])
		}
		ref.Reset()
		for _, x := range st {
			ref.Write(binary.LittleEndian.AppendUint64(nil, x))
		}
		ref.Write([]byte(s))
		if got, want := New(w).Derive(s).State(), New(ref.Sum64()).State(); got != want {
			t.Fatalf("Derive(%q) = %#x, want %#x", s, got, want)
		}
	})
}
