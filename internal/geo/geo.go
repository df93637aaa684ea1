// Package geo provides the geolocation substrate: a GeoLite2-equivalent
// prefix→country database. (The paper's §3.1 vantage selection — deploy
// where pool servers are few relative to routed IPv6 space — is not
// computed here: world's country specs carry its outcome.)
package geo

import (
	"net/netip"
	"sort"
)

// DB is the prefix→country mapping.
type DB struct {
	tables  map[int]map[netip.Prefix]string
	lengths []int
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[int]map[netip.Prefix]string)}
}

// MapPrefix assigns all addresses under p to a country, GeoLite2-style.
func (d *DB) MapPrefix(p netip.Prefix, code string) {
	p = p.Masked()
	bits := p.Bits()
	tbl, ok := d.tables[bits]
	if !ok {
		tbl = make(map[netip.Prefix]string)
		d.tables[bits] = tbl
		d.lengths = append(d.lengths, bits)
		sort.Sort(sort.Reverse(sort.IntSlice(d.lengths)))
	}
	tbl[p] = code
}

// Locate returns the country code for addr via longest prefix match.
func (d *DB) Locate(addr netip.Addr) (string, bool) {
	for _, bits := range d.lengths {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if code, ok := d.tables[bits][p]; ok {
			return code, true
		}
	}
	return "", false
}
