package ipv6x

import (
	"net/netip"
	"sort"
)

// AddrSet is a set of IPv6 addresses with cheap distinct counting. The
// zero value is not usable; call NewAddrSet.
type AddrSet struct {
	m map[netip.Addr]struct{}
}

// NewAddrSet returns an empty address set.
func NewAddrSet() *AddrSet {
	return &AddrSet{m: make(map[netip.Addr]struct{})}
}

// Add inserts addr and reports whether it was not already present.
func (s *AddrSet) Add(addr netip.Addr) bool {
	if _, dup := s.m[addr]; dup {
		return false
	}
	s.m[addr] = struct{}{}
	return true
}

// Len returns the number of distinct addresses.
func (s *AddrSet) Len() int { return len(s.m) }

// Sorted returns all addresses in ascending order. Intended for tests and
// small sets; it allocates O(n).
func (s *AddrSet) Sorted() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.m))
	for a := range s.m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// OverlapWith returns the number of addresses present in both sets. It
// iterates the smaller set.
func (s *AddrSet) OverlapWith(other *AddrSet) int {
	a, b := s, other
	if b.Len() < a.Len() {
		a, b = b, a
	}
	n := 0
	for addr := range a.m {
		if _, ok := b.m[addr]; ok {
			n++
		}
	}
	return n
}

// PrefixCounter counts distinct addresses per enclosing prefix of a fixed
// bit length (e.g. one counter per dataset at /48).
type PrefixCounter struct {
	bits int
	m    map[netip.Prefix]int
}

// NewPrefixCounter returns a counter aggregating at the given prefix
// length.
func NewPrefixCounter(bits int) *PrefixCounter {
	return &PrefixCounter{bits: bits, m: make(map[netip.Prefix]int)}
}

// Add counts addr against its enclosing prefix.
func (c *PrefixCounter) Add(addr netip.Addr) {
	c.m[Prefix(addr, c.bits)]++
}

// Len returns the number of distinct prefixes observed.
func (c *PrefixCounter) Len() int { return len(c.m) }

// Counts returns the multiset of per-prefix counts in ascending order
// (for density medians: "median IPs in /48s").
func (c *PrefixCounter) Counts() []int {
	out := make([]int, 0, len(c.m))
	for _, n := range c.m {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// OverlapWith returns how many prefixes appear in both counters. Both
// counters must aggregate at the same bit length for the result to be
// meaningful.
func (c *PrefixCounter) OverlapWith(other *PrefixCounter) int {
	a, b := c, other
	if len(b.m) < len(a.m) {
		a, b = b, a
	}
	n := 0
	for p := range a.m {
		if _, ok := b.m[p]; ok {
			n++
		}
	}
	return n
}
