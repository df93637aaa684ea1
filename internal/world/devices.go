package world

import (
	"hash/fnv"

	"ntpscan/internal/asn"
	"ntpscan/internal/oui"
	"ntpscan/internal/rng"
)

// Role classifies how a device entered the population.
type Role int

const (
	// RoleResponsive devices are NTP clients with reachable services
	// (the paper's "Our Data" scan universe).
	RoleResponsive Role = iota
	// RoleHitlistOnly devices are reachable but not NTP-visible
	// (servers/infrastructure found through DNS-style sources).
	RoleHitlistOnly
	// RoleAddrOnly devices only contribute captured addresses.
	RoleAddrOnly
)

// addrOnlyVendorTail lists the remaining Table 4 manufacturers, expanded
// into address-only device profiles programmatically.
var addrOnlyVendorTail = []struct {
	vendor string
	count  int
	region Region
}{
	{oui.VendorOgemray, 92000, RegionAsia},
	{oui.VendorChinaDragon, 70000, RegionAsia},
	{oui.VendorIComm, 49000, RegionAsia},
	{oui.VendorHaierTel, 45000, RegionAsia},
	{oui.VendorGaoshengda, 31000, RegionAsia},
	{oui.VendorFiberhome, 29000, RegionAsia},
	{oui.VendorTenda, 28000, RegionAsia},
	{oui.VendorEarda, 26000, RegionAsia},
	{oui.VendorShiyuan, 26000, RegionAsia},
	{oui.VendorCultraview, 25000, RegionAsia},
}

// allProfiles returns the static catalog plus the generated vendor tail.
func allProfiles() []*Profile {
	ps := Profiles()
	for _, v := range addrOnlyVendorTail {
		ps = append(ps, &Profile{
			Name: "iot-" + shortVendor(v.vendor), ASTyp: asn.TypeCableDSLISP,
			Region: v.region, CountAddrOnly: v.count,
			NTPClient: true, SyncWeight: 6,
			AddrMode: AddrEUI64, PrefixEpochs: 2,
			HasUniversalMAC: true, Vendor: v.vendor,
			Filtered: true,
		})
	}
	return ps
}

func shortVendor(v string) string {
	if len(v) > 12 {
		v = v[:12]
	}
	out := make([]rune, 0, len(v))
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		}
	}
	return string(out)
}

// cust48Pool sizes an AS's customer /48 pool so eyeball density matches
// the country profile (Indian mobile carriers pack hundreds of clients
// per /48; European DSL gives nearly every customer their own).
func cust48Pool(a *AS, density int) int {
	if density < 1 {
		density = 1
	}
	var pool int
	if a.Type == asn.TypeCableDSLISP {
		pool = a.deviceCount / density
	} else {
		pool = a.deviceCount // servers spread out
	}
	if pool < 2 {
		pool = 2
	}
	if pool > 0xffff {
		pool = 0xffff
	}
	return pool
}

// reuseKeyID derives the shared key for a reuse-pool slot.
func reuseKeyID(profile string, slot int) [16]byte {
	h := fnv.New128a()
	h.Write([]byte(profile))
	h.Write([]byte{byte(slot), byte(slot >> 8), byte(slot >> 16)})
	var out [16]byte
	h.Sum(out[:0])
	return out
}

// Country placement: responsive/addr-only NTP clients live in vantage
// countries (only their zones reach our capture servers); hitlist-only
// deployments spread everywhere. Eyeball address-only populations
// follow client mass linearly (India's dominance in Table 7); reachable
// deployments (servers, CPE with remote access) are flattened toward
// content-heavy markets. The weight vectors are precomputed per
// (region, role shape) in buildSegments; placeDevice in materialize.go
// draws against them.

// regionWeight biases placement per the profile's market region. linear
// selects raw client-mass weighting within RegionGlobal (eyeball
// populations) instead of the flattened server weighting.
func regionWeight(region Region, spec CountrySpec, linear bool) float64 {
	switch region {
	case RegionEurope:
		switch spec.Code {
		case "DE":
			return 45
		case "GB":
			return 14
		case "ES":
			return 12
		case "NL":
			return 10
		case "PL":
			return 9
		case "FR", "IT":
			return 8
		case "SE", "CH":
			return 3
		default:
			return 0.5
		}
	case RegionAsia:
		switch spec.Code {
		case "IN":
			return 85
		case "JP":
			return 9
		case "CN":
			return 12
		case "VN", "TH", "KR":
			return 3
		default:
			return 0.5
		}
	case RegionAmericas:
		switch spec.Code {
		case "US":
			return 65
		case "BR":
			return 30
		case "CA", "MX":
			return 5
		default:
			return 0.5
		}
	default: // RegionGlobal
		w := spec.ClientPop
		if w < 1 {
			w = 1
		}
		if linear {
			return w
		}
		// Sub-linear so content-heavy western countries are not
		// drowned out by India's client mass.
		return sqrtish(w)
	}
}

func sqrtish(v float64) float64 {
	// Cheap x^0.6 approximation via two multiplications of x^0.5 and
	// x^0.1 is overkill; plain square root reads better and the exact
	// exponent is immaterial.
	s := 1.0
	for v > 1 {
		v /= 4
		s *= 2
	}
	return s * (1 + v) / 2
}

// pickAS selects an AS of the wanted type in the country, Zipf-weighted
// so a few ASes dominate (as in real markets).
func (w *World) pickAS(c *Country, typ asn.Type, pr *rng.Stream) *AS {
	var lst []*AS
	switch typ {
	case asn.TypeCableDSLISP:
		lst = c.Eyeball
	case asn.TypeContent:
		lst = c.Content
	case asn.TypeNSP:
		lst = c.NSP
	default:
		lst = c.Entpr
	}
	if len(lst) == 0 {
		lst = c.Eyeball
	}
	return lst[pr.Zipf(len(lst), 1.15)]
}

// SyncMass returns the total sync weight of NTP clients in a country —
// the expected relative capture volume for a vantage server there.
func (w *World) SyncMass(country string) float64 { return w.syncMass[country] }
