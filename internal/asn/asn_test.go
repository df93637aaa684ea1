package asn

import (
	"net/netip"
	"testing"
)

func mustAddr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func mustPfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// Register adds or replaces: a lookup resolves to the latest record for
// the origin, and to none for an origin never registered.
func TestRegisterGet(t *testing.T) {
	r := NewRegistry()
	r.Announce(mustPfx("2001:db8::/32"), 64500)
	if _, ok := r.Lookup(mustAddr("2001:db8::1")); ok {
		t.Fatal("unknown AS resolved")
	}
	r.Register(AS{Number: 64500, Name: "Example ISP", Country: "DE", Type: TypeCableDSLISP})
	as, ok := r.Lookup(mustAddr("2001:db8::1"))
	if !ok || as.Name != "Example ISP" || as.Type != TypeCableDSLISP {
		t.Fatalf("Lookup = %+v, %v", as, ok)
	}
	r.Register(AS{Number: 64500, Name: "Renamed ISP"})
	if as, _ := r.Lookup(mustAddr("2001:db8::1")); as.Name != "Renamed ISP" {
		t.Fatalf("Lookup after re-Register = %+v", as)
	}
}

func TestLookupLongestMatch(t *testing.T) {
	r := NewRegistry()
	r.Register(AS{Number: 100, Name: "big"})
	r.Register(AS{Number: 200, Name: "more-specific"})
	r.Announce(mustPfx("2001:db8::/32"), 100)
	r.Announce(mustPfx("2001:db8:1::/48"), 200)

	if asn, ok := r.LookupASN(mustAddr("2001:db8:1::5")); !ok || asn != 200 {
		t.Fatalf("more-specific not preferred: %d %v", asn, ok)
	}
	if asn, ok := r.LookupASN(mustAddr("2001:db8:2::5")); !ok || asn != 100 {
		t.Fatalf("covering prefix missed: %d %v", asn, ok)
	}
	if _, ok := r.LookupASN(mustAddr("2001:db9::1")); ok {
		t.Fatal("unannounced space resolved")
	}
}

func TestLookupReturnsRecord(t *testing.T) {
	r := NewRegistry()
	r.Register(AS{Number: 300, Name: "X"})
	r.Announce(mustPfx("2001:db8::/32"), 300)
	as, ok := r.Lookup(mustAddr("2001:db8::1"))
	if !ok || as.Number != 300 {
		t.Fatalf("Lookup = %+v %v", as, ok)
	}
	// Announced by an unregistered AS: LookupASN works, Lookup does not.
	r.Announce(mustPfx("2001:db9::/32"), 999)
	if _, ok := r.Lookup(mustAddr("2001:db9::1")); ok {
		t.Fatal("unregistered AS returned a record")
	}
	if asn, ok := r.LookupASN(mustAddr("2001:db9::1")); !ok || asn != 999 {
		t.Fatal("LookupASN should still resolve unregistered origins")
	}
}

func TestAnnounceMasksPrefix(t *testing.T) {
	r := NewRegistry()
	// Host bits set in the announcement should be masked away.
	r.Announce(netip.PrefixFrom(mustAddr("2001:db8::beef"), 32), 7)
	if asn, ok := r.LookupASN(mustAddr("2001:db8:ffff::1")); !ok || asn != 7 {
		t.Fatalf("masked announce failed: %d %v", asn, ok)
	}
}

func TestReAnnounceOverwrites(t *testing.T) {
	r := NewRegistry()
	p := mustPfx("2001:db8::/32")
	r.Announce(p, 1)
	r.Announce(p, 2)
	if asn, _ := r.LookupASN(mustAddr("2001:db8::1")); asn != 2 {
		t.Fatalf("origin = %d, want 2", asn)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeCableDSLISP.String() != "Cable/DSL/ISP" {
		t.Fatalf("label = %q", TypeCableDSLISP.String())
	}
	for ty := TypeUnknown; ty <= TypeNonProfit; ty++ {
		if ty.String() == "" {
			t.Fatalf("type %d has empty label", ty)
		}
	}
	if Type(42).String() != "Type(42)" {
		t.Fatal("unknown type label wrong")
	}
}

func BenchmarkLookupASN(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 10000; i++ {
		hi := 0x2001000000000000 | uint64(i)<<16
		r.Announce(netip.PrefixFrom(netip.AddrFrom16(addr16(hi)), 48), uint32(i))
	}
	target := netip.AddrFrom16(addr16(0x2001000000000000 | 5000<<16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LookupASN(target)
	}
}

func addr16(hi uint64) (b [16]byte) {
	for i := 0; i < 8; i++ {
		b[i] = byte(hi >> (56 - 8*uint(i)))
	}
	return b
}
