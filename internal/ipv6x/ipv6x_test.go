package ipv6x

import (
	"math"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestFromPartsRoundTrip(t *testing.T) {
	f := func(hi, lo uint64) bool {
		a := FromParts(hi, lo)
		gh, gl := Parts(a)
		return gh == hi && gl == lo && Is6(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartsKnown(t *testing.T) {
	a := mustAddr("2001:db8:1:2:3:4:5:6")
	hi, lo := Parts(a)
	if hi != 0x20010db800010002 || lo != 0x0003000400050006 {
		t.Fatalf("Parts = %x %x", hi, lo)
	}
}

func TestPartsPanicsOnIPv4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parts should panic on IPv4")
		}
	}()
	Parts(mustAddr("192.0.2.1"))
}

func TestIs6(t *testing.T) {
	if Is6(mustAddr("192.0.2.1")) {
		t.Fatal("IPv4 classified as IPv6")
	}
	if Is6(mustAddr("::ffff:192.0.2.1")) {
		t.Fatal("IPv4-mapped classified as IPv6")
	}
	if !Is6(mustAddr("2001:db8::1")) {
		t.Fatal("IPv6 not recognised")
	}
}

func TestPrefixes(t *testing.T) {
	a := mustAddr("2001:db8:aaaa:bbbb:cccc:dddd:eeee:ffff")
	cases := []struct {
		got  netip.Prefix
		want string
	}{
		{Prefix32(a), "2001:db8::/32"},
		{Prefix48(a), "2001:db8:aaaa::/48"},
		{Prefix56(a), "2001:db8:aaaa:bb00::/56"},
		{Prefix64(a), "2001:db8:aaaa:bbbb::/64"},
	}
	for _, c := range cases {
		if c.got != netip.MustParsePrefix(c.want) {
			t.Errorf("prefix = %v, want %v", c.got, c.want)
		}
	}
}

func TestClassifyIID(t *testing.T) {
	cases := []struct {
		addr string
		want IIDClass
	}{
		{"2001:db8::", IIDZero},
		{"2001:db8::1", IIDLastByte},
		{"2001:db8::ff", IIDLastByte},
		{"2001:db8::1234", IIDLastTwoBytes},
		{"2001:db8::face", IIDLastTwoBytes},
		{"2001:db8::1111:1111:1111:1111", IIDLowEntropy},
		// Bytes aa×4 bb×2 cc×2: entropy 1.5 bits -> medium.
		{"2001:db8::aaaa:aaaa:bbbb:cccc", IIDMediumEntropy},
		{"2001:db8:1:2:8a2e:0370:7334:abcd", IIDHighEntropy},
	}
	for _, c := range cases {
		if got := ClassifyIID(mustAddr(c.addr)); got != c.want {
			t.Errorf("ClassifyIID(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestClassifyIIDLastTwoBytesBoundary(t *testing.T) {
	// 0x0100 has only byte 1 set within the last two bytes -> last-2-bytes.
	a := FromParts(0x20010db800000000, 0x0100)
	if got := ClassifyIID(a); got != IIDLastTwoBytes {
		t.Fatalf("got %v", got)
	}
	// Bit above the last two bytes -> entropy classes.
	b := FromParts(0x20010db800000000, 0x10000)
	if got := ClassifyIID(b); got == IIDZero || got == IIDLastByte || got == IIDLastTwoBytes {
		t.Fatalf("0x10000 misclassified as %v", got)
	}
}

func TestIIDEntropyBounds(t *testing.T) {
	f := func(hi, lo uint64) bool {
		e := IIDEntropy(FromParts(hi, lo))
		return e >= 0 && e <= 3+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIIDEntropyKnown(t *testing.T) {
	// All-same bytes: entropy 0.
	if e := IIDEntropy(FromParts(0, 0x1111111111111111)); e != 0 {
		t.Fatalf("uniform IID entropy = %v", e)
	}
	// All-distinct bytes: entropy 3 bits.
	if e := IIDEntropy(FromParts(0, 0x0102030405060708)); math.Abs(e-3) > 1e-9 {
		t.Fatalf("distinct IID entropy = %v", e)
	}
	// Two alternating bytes: entropy 1 bit.
	if e := IIDEntropy(FromParts(0, 0xdeaddeaddeaddead)); math.Abs(e-1) > 1e-9 {
		t.Fatalf("alternating IID entropy = %v", e)
	}
}

func TestIIDClassString(t *testing.T) {
	for c := IIDClass(0); c < NIIDClasses; c++ {
		if c.String() == "" {
			t.Fatalf("class %d has empty name", c)
		}
	}
	if IIDClass(99).String() != "IIDClass(99)" {
		t.Fatal("unknown class string wrong")
	}
}

func TestMACEmbedExtractRoundTrip(t *testing.T) {
	f := func(b [6]byte) bool {
		m := MAC(b)
		iid := EmbedMAC(m)
		addr := FromParts(0x20010db8deadbeef, iid)
		if !IsEUI64(addr) {
			return false
		}
		got, ok := ExtractMAC(addr)
		return ok && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedMACKnown(t *testing.T) {
	// RFC 4291 Appendix A example: 34-56-78-9A-BC-DE ->
	// 36:56:78:ff:fe:9a:bc:de
	m := MAC{0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde}
	if got := EmbedMAC(m); got != 0x365678fffe9abcde {
		t.Fatalf("EmbedMAC = %x", got)
	}
}

func TestExtractMACNotEUI64(t *testing.T) {
	if _, ok := ExtractMAC(mustAddr("2001:db8::1")); ok {
		t.Fatal("non-EUI-64 address yielded a MAC")
	}
}

func TestMACBits(t *testing.T) {
	uni := MAC{0x00, 0x1f, 0x3f, 0x01, 0x02, 0x03}
	if !uni.Universal() || uni.Multicast() {
		t.Fatal("universal unicast MAC misread")
	}
	local := MAC{0x02, 0, 0, 0, 0, 0}
	if local.Universal() {
		t.Fatal("locally administered MAC claimed universal")
	}
	mcast := MAC{0x01, 0, 0, 0, 0, 0}
	if !mcast.Multicast() {
		t.Fatal("multicast bit missed")
	}
}

func TestMACOUIMasksFlagBits(t *testing.T) {
	a := MAC{0x03, 0xaa, 0xbb, 1, 2, 3}
	b := MAC{0x00, 0xaa, 0xbb, 9, 9, 9}
	if a.OUI() != b.OUI() {
		t.Fatal("OUI should ignore U/L and I/G bits")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("String = %q", got)
	}
}

func TestAddrSet(t *testing.T) {
	s := NewAddrSet()
	a, b := mustAddr("2001:db8::1"), mustAddr("2001:db8::2")
	if !s.Add(a) || s.Len() != 1 {
		t.Fatal("first Add failed")
	}
	if s.Add(a) {
		t.Fatal("duplicate Add returned true")
	}
	s.Add(b)
	if sorted := s.Sorted(); len(sorted) != 2 || sorted[0] != a || sorted[1] != b {
		t.Fatalf("Sorted = %v", sorted)
	}
}

func TestAddrSetOverlap(t *testing.T) {
	a, b := NewAddrSet(), NewAddrSet()
	for i := 0; i < 10; i++ {
		a.Add(FromParts(1, uint64(i)))
	}
	for i := 5; i < 20; i++ {
		b.Add(FromParts(1, uint64(i)))
	}
	if got := a.OverlapWith(b); got != 5 {
		t.Fatalf("overlap = %d, want 5", got)
	}
	if got := b.OverlapWith(a); got != 5 {
		t.Fatalf("overlap not symmetric: %d", got)
	}
}

func TestPrefixCounter(t *testing.T) {
	c := NewPrefixCounter(48)
	c.Add(mustAddr("2001:db8:1::1"))
	c.Add(mustAddr("2001:db8:1::2"))
	c.Add(mustAddr("2001:db8:2::1"))
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	counts := c.Counts()
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("Counts = %v", counts)
	}
}

func TestPrefixCounterOverlap(t *testing.T) {
	a, b := NewPrefixCounter(48), NewPrefixCounter(48)
	a.Add(mustAddr("2001:db8:1::1"))
	a.Add(mustAddr("2001:db8:2::1"))
	b.Add(mustAddr("2001:db8:2::9"))
	b.Add(mustAddr("2001:db8:3::9"))
	if got := a.OverlapWith(b); got != 1 {
		t.Fatalf("overlap = %d", got)
	}
}

func BenchmarkClassifyIID(b *testing.B) {
	a := mustAddr("2001:db8:1:2:8a2e:370:7334:abcd")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClassifyIID(a)
	}
}

func BenchmarkAddrSetAdd(b *testing.B) {
	s := NewAddrSet()
	for i := 0; i < b.N; i++ {
		s.Add(FromParts(uint64(i>>16), uint64(i)))
	}
}
