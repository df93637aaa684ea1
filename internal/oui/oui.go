// Package oui models the IEEE MA-L (OUI) registry used by the paper's
// Appendix B to attribute EUI-64-embedded MAC addresses to hardware
// vendors. The registry API mirrors a real IEEE database lookup; the
// assignments themselves are synthetic but stable, with the vendor
// population following the paper's Table 4.
package oui

import (
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/rng"
)

// Registry maps OUIs (24-bit prefixes of universally administered MACs)
// to the registering organisation's name.
type Registry struct {
	byOUI    map[[3]byte]string
	byVendor map[string][][3]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byOUI:    make(map[[3]byte]string),
		byVendor: make(map[string][][3]byte),
	}
}

// Register assigns an OUI to a vendor. The U/L and I/G bits of the first
// octet are cleared, as the IEEE only assigns universally administered
// unicast blocks. Re-registering an OUI overwrites the previous owner.
func (r *Registry) Register(vendor string, oui [3]byte) {
	oui[0] &^= 0x03
	if prev, ok := r.byOUI[oui]; ok && prev != vendor {
		// Remove from the previous vendor's list.
		lst := r.byVendor[prev]
		for i, o := range lst {
			if o == oui {
				r.byVendor[prev] = append(lst[:i], lst[i+1:]...)
				break
			}
		}
	}
	r.byOUI[oui] = vendor
	r.byVendor[vendor] = append(r.byVendor[vendor], oui)
}

// Allocate deterministically derives n fresh OUIs for a vendor from the
// vendor name and registers them. Calling it twice for the same vendor
// extends the allocation (the derivation is indexed, so existing blocks
// are regenerated identically and skipped).
func (r *Registry) Allocate(vendor string, n int) [][3]byte {
	out := make([][3]byte, 0, n)
	for i := 0; len(out) < n; i++ {
		oui := deriveOUI(vendor, i)
		if owner, taken := r.byOUI[oui]; taken {
			if owner == vendor {
				out = append(out, oui)
			}
			continue
		}
		r.Register(vendor, oui)
		out = append(out, oui)
	}
	return out
}

// deriveOUI hashes (vendor, index) into a universally administered
// unicast OUI.
func deriveOUI(vendor string, idx int) [3]byte {
	v := uint64(rng.NewHash().String(vendor).Byte(byte(idx)).Byte(byte(idx >> 8)))
	return [3]byte{byte(v) &^ 0x03, byte(v >> 8), byte(v >> 16)}
}

// Lookup returns the vendor registered for the MAC's OUI.
func (r *Registry) Lookup(mac ipv6x.MAC) (vendor string, ok bool) {
	vendor, ok = r.byOUI[mac.OUI()]
	return vendor, ok
}

// OUIs returns the blocks registered to a vendor, in registration order.
func (r *Registry) OUIs(vendor string) [][3]byte {
	return r.byVendor[vendor]
}

// Vendor names from the paper's Table 4 (top manufacturers by embedded
// MAC count). The two AVM entries are distinct registry rows in the IEEE
// database and in the paper; both identify FRITZ! products.
const (
	VendorAVMMarketing = "AVM Audiovisuelles Marketing und Computersysteme GmbH"
	VendorAVM          = "AVM GmbH"
	VendorAmazon       = "Amazon Technologies Inc."
	VendorSamsung      = "Samsung Electronics Co.,Ltd"
	VendorSonos        = "Sonos, Inc."
	VendorVivo         = "vivo Mobile Communication Co., Ltd."
	VendorOgemray      = "Shenzhen Ogemray Technology Co.,Ltd"
	VendorChinaDragon  = "China Dragon Technology Limited"
	VendorOppo         = "GUANGDONG OPPO MOBILE TELECOMMUNICATIONS CORP.,LTD"
	VendorIComm        = "Shenzhen iComm Semiconductor CO.,LTD"
	VendorHaierMM      = "Qingdao Haier Multimedia Limited."
	VendorHaierTel     = "QING DAO HAIER TELECOM CO.,LTD."
	VendorGaoshengda   = "Hui Zhou Gaoshengda Technology Co.,LTD"
	VendorFiberhome    = "Fiberhome Telecommunication Technologies Co.,LTD"
	VendorTenda        = "Tenda Technology Co.,Ltd.Dongguan branch"
	VendorXiaomi       = "Beijing Xiaomi Electronics Co.,Ltd"
	VendorEarda        = "Earda Technologies co Ltd"
	VendorShiyuan      = "Guangzhou Shiyuan Electronics Co., Ltd."
	VendorCultraview   = "Shenzhen Cultraview Digital Technology Co., Ltd"
	VendorRaspberryPi  = "Raspberry Pi Trading Ltd"
	VendorCisco        = "Cisco Systems, Inc"
	VendorDLink        = "D-Link International"
)

// Default returns a registry populated with the Table 4 vendor set. Block
// counts loosely reflect each vendor's real registry footprint (AVM holds
// many blocks; small ODMs hold one or two).
func Default() *Registry {
	r := NewRegistry()
	for _, v := range []struct {
		name   string
		blocks int
	}{
		{VendorAVMMarketing, 24},
		{VendorAVM, 8},
		{VendorAmazon, 16},
		{VendorSamsung, 24},
		{VendorSonos, 4},
		{VendorVivo, 8},
		{VendorOgemray, 2},
		{VendorChinaDragon, 2},
		{VendorOppo, 8},
		{VendorIComm, 2},
		{VendorHaierMM, 2},
		{VendorHaierTel, 2},
		{VendorGaoshengda, 2},
		{VendorFiberhome, 4},
		{VendorTenda, 2},
		{VendorXiaomi, 8},
		{VendorEarda, 1},
		{VendorShiyuan, 2},
		{VendorCultraview, 2},
		{VendorRaspberryPi, 4},
		{VendorCisco, 24},
		{VendorDLink, 8},
	} {
		r.Allocate(v.name, v.blocks)
	}
	return r
}
