// Package ipv6x provides the IPv6 address algebra the measurement pipeline
// is built on: interface-identifier (IID) classification, Shannon entropy
// of IIDs, EUI-64/MAC embedding and extraction, and prefix aggregation at
// the granularities the paper reports (/32, /48, /56, /64).
//
// All functions operate on netip.Addr values and reject IPv4 addresses
// explicitly rather than silently misclassifying them.
package ipv6x

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
)

// FromParts assembles an IPv6 address from the upper (network) and lower
// (interface identifier) 64-bit halves.
func FromParts(hi, lo uint64) netip.Addr {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	return netip.AddrFrom16(b)
}

// Parts splits an IPv6 address into its upper and lower 64-bit halves.
// It panics if addr is not IPv6 (use Is6 to check first).
func Parts(addr netip.Addr) (hi, lo uint64) {
	if !Is6(addr) {
		panic(fmt.Sprintf("ipv6x: Parts of non-IPv6 address %v", addr))
	}
	b := addr.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// Is6 reports whether addr is a plain IPv6 address (not an IPv4-mapped
// one).
func Is6(addr netip.Addr) bool {
	return addr.Is6() && !addr.Is4In6()
}

// IID returns the interface identifier (low 64 bits) of addr.
func IID(addr netip.Addr) uint64 {
	_, lo := Parts(addr)
	return lo
}

// Prefix returns addr masked to the given prefix length as a canonical
// netip.Prefix. It panics on invalid bit lengths for IPv6.
func Prefix(addr netip.Addr, bits int) netip.Prefix {
	p, err := addr.Prefix(bits)
	if err != nil {
		panic(fmt.Sprintf("ipv6x: Prefix(%v, %d): %v", addr, bits, err))
	}
	return p
}

// Convenience wrappers for the granularities in the paper's tables.
func Prefix32(addr netip.Addr) netip.Prefix { return Prefix(addr, 32) }
func Prefix48(addr netip.Addr) netip.Prefix { return Prefix(addr, 48) }
func Prefix56(addr netip.Addr) netip.Prefix { return Prefix(addr, 56) }
func Prefix64(addr netip.Addr) netip.Prefix { return Prefix(addr, 64) }

// IIDClass is the paper's Figure 1 grouping of addresses by their
// interface identifier structure.
type IIDClass int

const (
	// IIDZero: the interface identifier is all zeroes (subnet-router
	// anycast style, typical for manually numbered routers).
	IIDZero IIDClass = iota
	// IIDLastByte: only the last byte is non-zero ("structured",
	// typically ::1, ::2 ... manual server numbering).
	IIDLastByte
	// IIDLastTwoBytes: only the last two bytes are non-zero.
	IIDLastTwoBytes
	// IIDLowEntropy: remaining IIDs with byte-entropy < 1 bit.
	IIDLowEntropy
	// IIDMediumEntropy: byte-entropy in [1, 2) bits.
	IIDMediumEntropy
	// IIDHighEntropy: byte-entropy >= 2 bits (SLAAC privacy addresses
	// and other randomized identifiers).
	IIDHighEntropy
)

// String implements fmt.Stringer.
func (c IIDClass) String() string {
	switch c {
	case IIDZero:
		return "zero"
	case IIDLastByte:
		return "last-byte"
	case IIDLastTwoBytes:
		return "last-2-bytes"
	case IIDLowEntropy:
		return "entropy<1"
	case IIDMediumEntropy:
		return "entropy 1-2"
	case IIDHighEntropy:
		return "entropy>=2"
	default:
		return fmt.Sprintf("IIDClass(%d)", int(c))
	}
}

// NIIDClasses is the number of defined IID classes, for array sizing.
const NIIDClasses = 6

// ClassifyIID places addr into its Figure 1 group. Structured classes are
// checked before entropy, mirroring the paper's ordering ("whether these
// are zeroes, have only the last (two) byte(s) set, and, for others, by
// their entropy").
func ClassifyIID(addr netip.Addr) IIDClass {
	iid := IID(addr)
	switch {
	case iid == 0:
		return IIDZero
	case iid&^0xff == 0:
		return IIDLastByte
	case iid&^0xffff == 0:
		return IIDLastTwoBytes
	}
	e := IIDEntropy(addr)
	switch {
	case e < 1:
		return IIDLowEntropy
	case e < 2:
		return IIDMediumEntropy
	default:
		return IIDHighEntropy
	}
}

// IIDEntropy returns the Shannon entropy, in bits, of the byte values of
// addr's interface identifier. With eight samples the maximum is 3 bits
// (all bytes distinct); fully repeated bytes give 0.
//
// The eight bytes are sorted, so equal values form runs, and each run
// of c bytes adds plogp[c]. Runs come in ascending byte value, the
// order a 256-entry histogram sums in, so the result is the
// histogram's to the bit.
func IIDEntropy(addr netip.Addr) float64 {
	iid := IID(addr)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], iid)
	for i := 1; i < len(b); i++ {
		v, j := b[i], i
		for ; j > 0 && b[j-1] > v; j-- {
			b[j] = b[j-1]
		}
		b[j] = v
	}
	var h float64
	run := 1
	for i := 1; i <= len(b); i++ {
		if i < len(b) && b[i] == b[i-1] {
			run++
			continue
		}
		h -= plogp[run]
		run = 1
	}
	return h
}

// plogp[c] is p·log2(p) for p = c/8, a byte value's share of an IID
// that holds it c times.
var plogp = func() (t [9]float64) {
	for c := 1; c < len(t); c++ {
		p := float64(c) / 8
		t[c] = p * math.Log2(p)
	}
	return t
}()

// MAC is a 48-bit IEEE 802 hardware address.
type MAC [6]byte

// String renders the MAC in canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// OUI returns the first three bytes (the organizationally unique
// identifier) with the U/L and I/G bits cleared, matching how the IEEE
// registry is keyed.
func (m MAC) OUI() [3]byte {
	return [3]byte{m[0] &^ 0x03, m[1], m[2]}
}

// Universal reports whether the MAC claims global uniqueness (U/L bit,
// 0x02 of the first octet, is clear). The paper calls this the "unique"
// bit.
func (m MAC) Universal() bool { return m[0]&0x02 == 0 }

// Multicast reports whether the I/G bit (0x01 of the first octet) is set.
func (m MAC) Multicast() bool { return m[0]&0x01 != 0 }

// eui64Marker is the 16-bit value inserted between the two MAC halves in
// a modified EUI-64 interface identifier.
const eui64Marker = 0xfffe

// IsEUI64 reports whether addr's interface identifier has the modified
// EUI-64 shape: the ff:fe marker in bytes 3-4 of the IID.
func IsEUI64(addr netip.Addr) bool {
	iid := IID(addr)
	return uint16(iid>>24) == eui64Marker
}

// EmbedMAC returns the modified EUI-64 interface identifier for a MAC:
// the MAC split around ff:fe with the U/L bit inverted, per RFC 4291
// Appendix A.
func EmbedMAC(m MAC) uint64 {
	var b [8]byte
	b[0] = m[0] ^ 0x02 // invert U/L bit
	b[1] = m[1]
	b[2] = m[2]
	b[3] = 0xff
	b[4] = 0xfe
	b[5] = m[3]
	b[6] = m[4]
	b[7] = m[5]
	return binary.BigEndian.Uint64(b[:])
}

// ExtractMAC recovers the embedded MAC address from a modified EUI-64
// interface identifier. ok is false when addr is not EUI-64 shaped.
func ExtractMAC(addr netip.Addr) (m MAC, ok bool) {
	if !IsEUI64(addr) {
		return MAC{}, false
	}
	iid := IID(addr)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], iid)
	m = MAC{b[0] ^ 0x02, b[1], b[2], b[5], b[6], b[7]}
	return m, true
}
