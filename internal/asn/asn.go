// Package asn models the routing-metadata substrate the paper consumes:
// an AS registry with announced IPv6 prefixes (RIPE-RIS-equivalent,
// longest-prefix-match lookups) and PeeringDB-style network-type labels
// ("Cable/DSL/ISP" is the class Figure 1 singles out for eyeball
// networks).
package asn

import (
	"fmt"
	"net/netip"
	"sort"
)

// Type is a PeeringDB-style network classification.
type Type int

const (
	// TypeUnknown means no PeeringDB record exists for the AS.
	TypeUnknown Type = iota
	// TypeCableDSLISP marks eyeball access networks.
	TypeCableDSLISP
	// TypeNSP marks transit/backbone network service providers.
	TypeNSP
	// TypeContent marks content providers and hyperscalers.
	TypeContent
	// TypeEnterprise marks corporate networks.
	TypeEnterprise
	// TypeEducational marks research and education networks.
	TypeEducational
	// TypeNonProfit marks non-profit operators.
	TypeNonProfit
)

// String implements fmt.Stringer using PeeringDB's labels.
func (t Type) String() string {
	switch t {
	case TypeUnknown:
		return "Unknown"
	case TypeCableDSLISP:
		return "Cable/DSL/ISP"
	case TypeNSP:
		return "NSP"
	case TypeContent:
		return "Content"
	case TypeEnterprise:
		return "Enterprise"
	case TypeEducational:
		return "Educational/Research"
	case TypeNonProfit:
		return "Non-Profit"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// AS is one autonomous system record.
type AS struct {
	Number  uint32
	Name    string
	Country string // ISO 3166-1 alpha-2
	Type    Type
}

// Registry holds AS records and their announced prefixes and answers
// address→AS lookups by longest prefix match.
type Registry struct {
	ases map[uint32]*AS
	// tables maps prefix length -> masked prefix -> origin ASN. Lookup
	// probes lengths longest-first; IPv6 tables use a handful of
	// distinct lengths, so the probe loop is short.
	tables  map[int]map[netip.Prefix]uint32
	lengths []int // distinct announced lengths, descending
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ases:   make(map[uint32]*AS),
		tables: make(map[int]map[netip.Prefix]uint32),
	}
}

// Register adds (or replaces) an AS record and returns the stored value.
func (r *Registry) Register(as AS) *AS {
	stored := as
	r.ases[as.Number] = &stored
	return &stored
}

// Announce records that asn originates p. Re-announcing a prefix
// overwrites the previous origin (no MOAS modelling).
func (r *Registry) Announce(p netip.Prefix, asn uint32) {
	p = p.Masked()
	bits := p.Bits()
	tbl, ok := r.tables[bits]
	if !ok {
		tbl = make(map[netip.Prefix]uint32)
		r.tables[bits] = tbl
		r.lengths = append(r.lengths, bits)
		sort.Sort(sort.Reverse(sort.IntSlice(r.lengths)))
	}
	tbl[p] = asn
}

// Lookup returns the AS originating the longest matching announced
// prefix covering addr.
func (r *Registry) Lookup(addr netip.Addr) (*AS, bool) {
	asn, ok := r.LookupASN(addr)
	if !ok {
		return nil, false
	}
	as, ok := r.ases[asn]
	return as, ok
}

// LookupASN is Lookup returning only the origin AS number. The origin
// may be unregistered (announced but without a Register call); the
// lookup still succeeds.
func (r *Registry) LookupASN(addr netip.Addr) (uint32, bool) {
	for _, bits := range r.lengths {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if asn, ok := r.tables[bits][p]; ok {
			return asn, true
		}
	}
	return 0, false
}
