package geo

import (
	"net/netip"
	"testing"
)

func TestLocateLongestMatch(t *testing.T) {
	d := NewDB()
	d.MapPrefix(netip.MustParsePrefix("2001:db8::/32"), "DE")
	d.MapPrefix(netip.MustParsePrefix("2001:db8:1::/48"), "NL")
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:1::1")); !ok || code != "NL" {
		t.Fatalf("Locate = %q %v", code, ok)
	}
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:2::1")); !ok || code != "DE" {
		t.Fatalf("Locate = %q %v", code, ok)
	}
	if _, ok := d.Locate(netip.MustParseAddr("2001:dead::1")); ok {
		t.Fatal("unmapped space located")
	}
}

func TestMapPrefixMasksHostBits(t *testing.T) {
	d := NewDB()
	d.MapPrefix(netip.PrefixFrom(netip.MustParseAddr("2001:db8::1"), 32), "JP")
	if code, ok := d.Locate(netip.MustParseAddr("2001:db8:ffff::2")); !ok || code != "JP" {
		t.Fatalf("Locate after unmasked MapPrefix = %q %v", code, ok)
	}
}
