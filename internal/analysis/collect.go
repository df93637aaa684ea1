package analysis

import (
	"net/netip"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/stats"
)

// CollectionStats summarises one collected address set as the paper's
// Table 1 and Figure 1 report it.
type CollectionStats struct {
	Addrs       int
	Nets48      int
	ASes        int
	Median48    float64 // median IPs per /48
	MedianAS    float64 // median IPs per AS
	IIDClasses  [ipv6x.NIIDClasses]int
	CableDSLISP int // addresses whose AS PeeringDB type is Cable/DSL/ISP
	ASKnown     int // addresses with a resolvable origin AS
}

// IIDShare returns the proportion of addresses in the given class.
func (c *CollectionStats) IIDShare(class ipv6x.IIDClass) float64 {
	return stats.Proportion(c.IIDClasses[class], c.Addrs)
}

// CableShare returns the Cable/DSL/ISP proportion among addresses with
// a known AS (the Figure 1 right panel).
func (c *CollectionStats) CableShare() float64 {
	return stats.Proportion(c.CableDSLISP, c.ASKnown)
}

// AddrSummary is the reusable accumulator behind CollectionStats: feed
// it distinct addresses, read the statistics at the end. Not safe for
// concurrent use.
type AddrSummary struct {
	ctx     *Context
	set     *ipv6x.AddrSet
	per48   *ipv6x.PrefixCounter
	perAS   map[uint32]int
	classes [ipv6x.NIIDClasses]int
	cable   int
	asKnown int
}

// NewAddrSummary returns an empty accumulator resolving against ctx.
func NewAddrSummary(ctx *Context) *AddrSummary {
	return &AddrSummary{
		ctx:   ctx,
		set:   ipv6x.NewAddrSet(),
		per48: ipv6x.NewPrefixCounter(48),
		perAS: make(map[uint32]int),
	}
}

// Add observes one address; duplicates are ignored. It reports whether
// the address was new.
func (s *AddrSummary) Add(addr netip.Addr) bool {
	if !s.set.Add(addr) {
		return false
	}
	s.per48.Add(addr)
	s.classes[ipv6x.ClassifyIID(addr)]++
	if s.ctx != nil && s.ctx.AS != nil {
		if as, ok := s.ctx.AS.Lookup(addr); ok {
			s.perAS[as.Number]++
			s.asKnown++
			if as.Type.String() == "Cable/DSL/ISP" {
				s.cable++
			}
		} else if asn, ok := s.ctx.AS.LookupASN(addr); ok {
			s.perAS[asn]++
			s.asKnown++
		}
	}
	return true
}

// Set exposes the underlying address set (overlap computations).
func (s *AddrSummary) Set() *ipv6x.AddrSet { return s.set }

// Per48 exposes the /48 counter (overlap computations).
func (s *AddrSummary) Per48() *ipv6x.PrefixCounter { return s.per48 }

// ASOverlap counts ASes present in both summaries.
func (s *AddrSummary) ASOverlap(other *AddrSummary) int {
	a, b := s.perAS, other.perAS
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for asn := range a {
		if _, ok := b[asn]; ok {
			n++
		}
	}
	return n
}

// Stats freezes the summary into CollectionStats.
func (s *AddrSummary) Stats() CollectionStats {
	asCounts := make([]int, 0, len(s.perAS))
	for _, n := range s.perAS {
		asCounts = append(asCounts, n)
	}
	return CollectionStats{
		Addrs:       s.set.Len(),
		Nets48:      s.per48.Len(),
		ASes:        len(s.perAS),
		Median48:    stats.MedianInts(s.per48.Counts()),
		MedianAS:    stats.MedianInts(asCounts),
		IIDClasses:  s.classes,
		CableDSLISP: s.cable,
		ASKnown:     s.asKnown,
	}
}

// SummarizeAddrs builds a summary over a finished address list.
func SummarizeAddrs(ctx *Context, addrs []netip.Addr) *AddrSummary {
	s := NewAddrSummary(ctx)
	for _, a := range addrs {
		s.Add(a)
	}
	return s
}
