package analysis

import (
	"net/netip"
	"sort"

	"ntpscan/internal/ipv6x"
)

// MACClass buckets EUI-64-embedded hardware addresses for the Appendix
// B / Figure 4 breakdown.
type MACClass int

const (
	// MACListed: globally unique and present in the IEEE registry.
	MACListed MACClass = iota
	// MACUnlisted: claims global uniqueness but has no registry entry.
	MACUnlisted
	// MACLocal: locally administered (randomised) hardware addresses.
	MACLocal
	// NMACClasses sizes arrays over the classes.
	NMACClasses
)

// String implements fmt.Stringer.
func (c MACClass) String() string {
	switch c {
	case MACListed:
		return "listed"
	case MACUnlisted:
		return "unlisted-universal"
	case MACLocal:
		return "locally-administered"
	default:
		return "?"
	}
}

// EUI64Stats reproduces the Appendix B analysis over captured
// addresses.
type EUI64Stats struct {
	ctx *Context

	// AddrsTotal counts the distinct addresses observed.
	AddrsTotal int
	// AddrsEUI counts EUI-64-shaped addresses.
	AddrsEUI int
	// AddrsUnique counts EUI addresses whose embedded MAC has the
	// global-uniqueness bit.
	AddrsUnique int

	macs    map[ipv6x.MAC]MACClass
	vendors map[string]*VendorCount
	// perClassOrigin counts addresses per (MAC class, capture
	// country) for Figure 4.
	perClassOrigin map[MACClass]map[string]int
}

// VendorCount is one manufacturer's row in Table 4.
type VendorCount struct {
	Vendor string
	MACs   map[ipv6x.MAC]struct{}
	IPs    int
}

// NewEUI64Stats returns an empty accumulator.
func NewEUI64Stats(ctx *Context) *EUI64Stats {
	return &EUI64Stats{
		ctx:            ctx,
		macs:           make(map[ipv6x.MAC]MACClass),
		vendors:        make(map[string]*VendorCount),
		perClassOrigin: make(map[MACClass]map[string]int),
	}
}

// Add observes one captured address together with the country of the
// capturing vantage server. It keeps no set of its own: the caller
// passes each address once, on its first sighting (the campaign feeds
// it behind AddrSummary.Add, whose set is the one first-sighting set).
func (e *EUI64Stats) Add(addr netip.Addr, captureCountry string) {
	e.AddrsTotal++

	mac, ok := ipv6x.ExtractMAC(addr)
	if !ok {
		return
	}
	e.AddrsEUI++
	class := MACLocal
	if mac.Universal() {
		e.AddrsUnique++
		class = MACUnlisted
		if e.ctx != nil && e.ctx.OUI != nil {
			if vendor, listed := e.ctx.OUI.Lookup(mac); listed {
				class = MACListed
				vc := e.vendors[vendor]
				if vc == nil {
					vc = &VendorCount{Vendor: vendor, MACs: make(map[ipv6x.MAC]struct{})}
					e.vendors[vendor] = vc
				}
				vc.MACs[mac] = struct{}{}
				vc.IPs++
			}
		}
	}
	e.macs[mac] = class
	origin := e.perClassOrigin[class]
	if origin == nil {
		origin = make(map[string]int)
		e.perClassOrigin[class] = origin
	}
	origin[captureCountry]++
}

// DistinctMACs returns how many distinct embedded hardware addresses
// were seen (all classes).
func (e *EUI64Stats) DistinctMACs() int { return len(e.macs) }

// ListedMACs returns the distinct IEEE-listed MAC count.
func (e *EUI64Stats) ListedMACs() int {
	n := 0
	for _, vc := range e.vendors {
		n += len(vc.MACs)
	}
	return n
}

// VendorRow is one finished Table 4 row.
type VendorRow struct {
	Vendor string
	MACs   int
	IPs    int
}

// TopVendors returns manufacturers ranked by distinct MACs.
func (e *EUI64Stats) TopVendors(n int) []VendorRow {
	rows := make([]VendorRow, 0, len(e.vendors))
	for _, vc := range e.vendors {
		rows = append(rows, VendorRow{Vendor: vc.Vendor, MACs: len(vc.MACs), IPs: vc.IPs})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MACs != rows[j].MACs {
			return rows[i].MACs > rows[j].MACs
		}
		return rows[i].Vendor < rows[j].Vendor
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// OriginDistribution returns, for one MAC class, the share of addresses
// captured per vantage country (Figure 4). Countries are sorted.
func (e *EUI64Stats) OriginDistribution(class MACClass) (countries []string, shares []float64) {
	origin := e.perClassOrigin[class]
	total := 0
	for _, n := range origin {
		total += n
	}
	countries = sortedKeys(origin)
	shares = make([]float64, len(countries))
	if total == 0 {
		return countries, shares
	}
	for i, c := range countries {
		shares[i] = float64(origin[c]) / float64(total)
	}
	return countries, shares
}
