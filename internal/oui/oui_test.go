package oui

import (
	"testing"

	"ntpscan/internal/ipv6x"
)

func TestRegisterLookup(t *testing.T) {
	r := NewRegistry()
	r.Register("Acme", [3]byte{0x00, 0x11, 0x22})
	mac := ipv6x.MAC{0x00, 0x11, 0x22, 0xaa, 0xbb, 0xcc}
	v, ok := r.Lookup(mac)
	if !ok || v != "Acme" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
	if _, ok := r.Lookup(ipv6x.MAC{0xde, 0xad, 0xbe, 0, 0, 0}); ok {
		t.Fatal("unknown OUI resolved")
	}
}

func TestRegisterClearsFlagBits(t *testing.T) {
	r := NewRegistry()
	r.Register("Acme", [3]byte{0x03, 0x11, 0x22}) // U/L + I/G set
	// A locally-administered MAC in the "same" block still resolves,
	// because both sides mask the flag bits.
	if _, ok := r.Lookup(ipv6x.MAC{0x02, 0x11, 0x22, 0xaa, 0xbb, 0xcc}); !ok {
		t.Fatal("flag-bit masking broken")
	}
	if got := r.OUIs("Acme")[0]; got != [3]byte{0x00, 0x11, 0x22} {
		t.Fatalf("stored OUI = %v", got)
	}
}

func TestReRegisterMovesOwnership(t *testing.T) {
	r := NewRegistry()
	oui := [3]byte{0x00, 0xaa, 0xbb}
	r.Register("A", oui)
	r.Register("B", oui)
	if v, _ := r.Lookup(ipv6x.MAC{oui[0], oui[1], oui[2], 1, 2, 3}); v != "B" {
		t.Fatalf("owner = %q", v)
	}
	if len(r.OUIs("A")) != 0 {
		t.Fatalf("A retained %v", r.OUIs("A"))
	}
	if len(r.OUIs("B")) != 1 {
		t.Fatalf("B holds %v", r.OUIs("B"))
	}
}

func TestAllocateDeterministic(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	oa := a.Allocate("Vendor X", 5)
	ob := b.Allocate("Vendor X", 5)
	if len(oa) != 5 || len(ob) != 5 {
		t.Fatalf("allocated %d/%d", len(oa), len(ob))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatalf("allocation not deterministic at %d: %v vs %v", i, oa[i], ob[i])
		}
	}
}

func TestAllocateExtends(t *testing.T) {
	r := NewRegistry()
	first := r.Allocate("V", 2)
	again := r.Allocate("V", 2)
	// Re-allocating the same count returns the same blocks.
	if first[0] != again[0] || first[1] != again[1] {
		t.Fatalf("re-allocation differs: %v vs %v", first, again)
	}
	if len(r.OUIs("V")) != 2 {
		t.Fatalf("V holds %v after idempotent allocate", r.OUIs("V"))
	}
}

func TestAllocatedOUIsAreUnicastUniversal(t *testing.T) {
	r := NewRegistry()
	for _, oui := range r.Allocate("V", 50) {
		if oui[0]&0x03 != 0 {
			t.Fatalf("OUI %v has flag bits set", oui)
		}
	}
}

func TestDefaultRegistry(t *testing.T) {
	r := Default()
	for _, vendor := range []string{VendorAVMMarketing, VendorAVM, VendorAmazon, VendorRaspberryPi} {
		ouis := r.OUIs(vendor)
		if len(ouis) == 0 {
			t.Fatalf("vendor %q has no blocks", vendor)
		}
		if v, ok := r.Lookup(ipv6x.MAC{ouis[0][0], ouis[0][1], ouis[0][2], 1, 2, 3}); !ok || v != vendor {
			t.Fatalf("round trip for %q failed: %q %v", vendor, v, ok)
		}
	}
	// AVM Marketing holds the largest allocation, matching its Table 4
	// dominance.
	if len(r.OUIs(VendorAVMMarketing)) < len(r.OUIs(VendorSonos)) {
		t.Fatal("AVM should hold more blocks than Sonos")
	}
}

func TestEmbedExtractLookupEndToEnd(t *testing.T) {
	// A MAC from a default-registry block must survive EUI-64 embedding
	// and still resolve to its vendor — the Appendix B pipeline.
	r := Default()
	block := r.OUIs(VendorSamsung)[0]
	mac := ipv6x.MAC{block[0], block[1], block[2], 0x12, 0x34, 0x56}
	addr := ipv6x.FromParts(0x20010db800010002, ipv6x.EmbedMAC(mac))
	got, ok := ipv6x.ExtractMAC(addr)
	if !ok {
		t.Fatal("extract failed")
	}
	v, ok := r.Lookup(got)
	if !ok || v != VendorSamsung {
		t.Fatalf("vendor = %q, %v", v, ok)
	}
	if !got.Universal() {
		t.Fatal("embedded MAC should be universally administered")
	}
}
