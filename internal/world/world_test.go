package world

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"ntpscan/internal/ipv6x"
	"ntpscan/internal/proto/httpx"
	"ntpscan/internal/proto/sshx"
	"ntpscan/internal/rng"
)

// testCfg is small enough for fast tests but large enough that every
// profile is represented.
func testCfg(seed uint64) Config {
	return Config{Seed: seed, DeviceScale: 1e-3, AddrScale: 1e-6, ASScale: 0.02}
}

// allDevices returns the whole population in global-ID order, for the
// tests that walk it: reachable devices are the world's resident
// structs (they carry fabric hosts), address-only ones are derived
// fresh through the same materializeInto the arenas call.
func allDevices(w *World) []*Device {
	devs := make([]*Device, int(w.deviceTotal))
	for _, d := range w.Reachable() {
		devs[d.ID] = d
	}
	var r rng.Stream
	for gid := range devs {
		if devs[gid] == nil {
			devs[gid] = &Device{}
			w.materializeInto(int32(gid), devs[gid], &r)
		}
	}
	return devs
}

func findDevice(w *World, profile string, role Role) *Device {
	for _, d := range allDevices(w) {
		if d.Profile.Name == profile && d.role == role {
			return d
		}
	}
	return nil
}

func TestBuildDeterministic(t *testing.T) {
	a, b := New(testCfg(1)), New(testCfg(1))
	devsA, devsB := allDevices(a), allDevices(b)
	if len(devsA) != len(devsB) {
		t.Fatalf("device counts differ: %d vs %d", len(devsA), len(devsB))
	}
	for i := range devsA {
		da, db := devsA[i], devsB[i]
		if da.Profile.Name != db.Profile.Name || da.Country != db.Country ||
			da.AS.Number != db.AS.Number || da.KeyID != db.KeyID {
			t.Fatalf("device %d differs", i)
		}
		if a.AddrAt(da, 1) != b.AddrAt(db, 1) {
			t.Fatalf("device %d address differs", i)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	a, b := New(testCfg(1)), New(testCfg(2))
	d0a := findDevice(a, "fritzbox", RoleResponsive)
	d0b := findDevice(b, "fritzbox", RoleResponsive)
	if d0a == nil || d0b == nil {
		t.Fatal("fritzbox missing")
	}
	if a.AddrAt(d0a, 0) == b.AddrAt(d0b, 0) {
		t.Fatal("different seeds produced identical addresses")
	}
}

func TestScalesApply(t *testing.T) {
	small := New(testCfg(1))
	big := New(Config{Seed: 1, DeviceScale: 2e-3, AddrScale: 1e-6, ASScale: 0.02})
	if int(big.deviceTotal) <= int(small.deviceTotal) {
		t.Fatalf("larger DeviceScale should yield more devices: %d vs %d",
			int(big.deviceTotal), int(small.deviceTotal))
	}
}

func TestEveryProfileRepresented(t *testing.T) {
	w := New(testCfg(1))
	seen := map[string]bool{}
	for _, d := range allDevices(w) {
		seen[d.Profile.Name] = true
	}
	for _, p := range allProfiles() {
		if p.CountResponsive+p.CountHitlistOnly+p.CountAddrOnly > 0 && !seen[p.Name] {
			t.Errorf("profile %q has no devices", p.Name)
		}
	}
}

func TestResponsiveLiveInVantageCountries(t *testing.T) {
	w := New(testCfg(1))
	vantage := map[string]bool{}
	for _, c := range w.Countries {
		if c.Spec.Vantage {
			vantage[c.Spec.Code] = true
		}
	}
	for _, d := range allDevices(w) {
		if d.role != RoleHitlistOnly && !vantage[d.Country] {
			t.Fatalf("%s device in non-vantage %s", d.Profile.Name, d.Country)
		}
	}
}

func TestFritzboxServesHTTP(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "fritzbox", RoleResponsive)
	if d == nil {
		t.Fatal("no fritzbox")
	}
	addr := w.CurrentAddr(d, w.Cfg.Start)
	conn, err := w.Fabric().DialTCP(context.Background(),
		netip.MustParseAddr("2001:db8::1"), netip.AddrPortFrom(addr, PortHTTP))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	resp, err := httpx.Get(conn, "", "/")
	if err != nil {
		t.Fatal(err)
	}
	title := resp.Title()
	if len(title) < 9 || title[:9] != "FRITZ!Box" {
		t.Fatalf("title = %q", title)
	}
}

func TestEUI64AddressCarriesVendorMAC(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "fritzbox", RoleResponsive)
	addr := w.AddrAt(d, 0)
	mac, ok := ipv6x.ExtractMAC(addr)
	if !ok {
		t.Fatalf("fritzbox address %v not EUI-64", addr)
	}
	if mac != d.MAC {
		t.Fatalf("MAC mismatch: %v vs %v", mac, d.MAC)
	}
	if !mac.Universal() {
		t.Fatal("vendor MAC should be universally administered")
	}
	vendor, ok := w.OUIReg.Lookup(mac)
	if !ok || vendor == "" {
		t.Fatalf("vendor lookup failed for %v", mac)
	}
}

func TestLocalEUIMACRotates(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "phone-generic", RoleAddrOnly)
	if d == nil {
		t.Fatal("no phone-generic")
	}
	a0, a1 := w.AddrAt(d, 0), w.AddrAt(d, 1)
	m0, ok0 := ipv6x.ExtractMAC(a0)
	m1, ok1 := ipv6x.ExtractMAC(a1)
	if !ok0 || !ok1 {
		t.Fatal("phone addresses should be EUI-64 shaped")
	}
	if m0 == m1 {
		t.Fatal("locally administered MAC should rotate per epoch")
	}
	if m0.Universal() || m1.Universal() {
		t.Fatal("randomised MACs must be locally administered")
	}
}

func TestAddrModesClassify(t *testing.T) {
	w := New(testCfg(1))
	cases := []struct {
		profile string
		role    Role
		classes []ipv6x.IIDClass
	}{
		{"phone-privacy", RoleAddrOnly, []ipv6x.IIDClass{ipv6x.IIDHighEntropy}},
		{"ubuntu-server", RoleHitlistOnly, []ipv6x.IIDClass{ipv6x.IIDLastByte}},
		{"dlink-infra", RoleHitlistOnly, []ipv6x.IIDClass{ipv6x.IIDLastByte, ipv6x.IIDLastTwoBytes}},
		{"ufi-hotspot", RoleResponsive, []ipv6x.IIDClass{ipv6x.IIDLowEntropy, ipv6x.IIDMediumEntropy}},
	}
	for _, c := range cases {
		d := findDevice(w, c.profile, c.role)
		if d == nil {
			t.Fatalf("no %s", c.profile)
		}
		got := ipv6x.ClassifyIID(w.AddrAt(d, 0))
		ok := false
		for _, want := range c.classes {
			if got == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s IID class = %v, want one of %v", c.profile, got, c.classes)
		}
	}
}

func TestChurnRenumbersAndWithdraws(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "fritzbox", RoleResponsive)
	first := w.CurrentAddr(d, w.Cfg.Start)
	// Advance beyond one epoch.
	later := w.Cfg.Start.Add(CollectionWindow/4 + CollectionWindow/8)
	second := w.CurrentAddr(d, later)
	if first == second {
		t.Fatal("dynamic device did not renumber")
	}
	if _, ok := w.Fabric().HostAt(first); ok {
		t.Fatal("old address still registered")
	}
	if _, ok := w.Fabric().HostAt(second); !ok {
		t.Fatal("new address not registered")
	}
	// Same /32 (the customer stays with the AS).
	if ipv6x.Prefix32(first) != ipv6x.Prefix32(second) {
		t.Fatal("renumbering moved the device out of its AS")
	}
}

func TestStaticDeviceNeverRenumbers(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "generic-web", RoleResponsive)
	a := w.CurrentAddr(d, w.Cfg.Start)
	b := w.CurrentAddr(d, w.Cfg.Start.Add(CollectionWindow-time.Hour))
	if a != b {
		t.Fatalf("static server renumbered: %v -> %v", a, b)
	}
}

func TestRegisterStatic(t *testing.T) {
	w := New(testCfg(1))
	w.RegisterStatic()
	d := findDevice(w, "dlink-infra", RoleHitlistOnly)
	if d == nil {
		t.Fatal("no dlink")
	}
	addr := w.AddrAt(d, 0)
	if _, ok := w.Fabric().HostAt(addr); !ok {
		t.Fatal("hitlist-only device not registered")
	}
}

func TestASRegistryResolvesDeviceAddrs(t *testing.T) {
	w := New(testCfg(1))
	for _, d := range allDevices(w)[:50] {
		addr := w.AddrAt(d, 0)
		asn, ok := w.ASReg.LookupASN(addr)
		if !ok || asn != d.AS.Number {
			t.Fatalf("ASN lookup for %s: got %d %v, want %d", d.Profile.Name, asn, ok, d.AS.Number)
		}
		country, ok := w.Geo.Locate(addr)
		if !ok || country != d.Country {
			t.Fatalf("geo lookup for %s: got %q, want %q", d.Profile.Name, country, d.Country)
		}
	}
}

func TestSampleClientCountryAndWeight(t *testing.T) {
	w := New(testCfg(1))
	r := rng.New(9)
	m := w.NewMaterializer(1 << 16)
	for i := 0; i < 200; i++ {
		gid := w.SampleClientID("IN", r)
		if gid < 0 {
			t.Fatal("no client sampled")
		}
		d := m.Device(gid)
		if d.Country != "IN" {
			t.Fatalf("sampled %s device", d.Country)
		}
		if !d.Profile.NTPClient {
			t.Fatalf("non-NTP device %s sampled", d.Profile.Name)
		}
	}
	if w.SampleClientID("XX", r) != -1 {
		t.Fatal("unknown country sampled a device")
	}
}

func TestSyncMassIndiaDominates(t *testing.T) {
	w := New(testCfg(1))
	in := w.SyncMass("IN")
	nl := w.SyncMass("NL")
	if in <= nl*5 {
		t.Fatalf("India sync mass %v should dwarf NL %v", in, nl)
	}
}

func TestKeyReusePools(t *testing.T) {
	w := New(Config{Seed: 3, DeviceScale: 5e-3, AddrScale: 1e-6, ASScale: 0.02})
	keys := map[[16]byte]int{}
	devs := 0
	for _, d := range allDevices(w) {
		if d.Profile.Name == "ufi-hotspot" {
			keys[d.KeyID]++
			devs++
		}
	}
	if devs < 5 {
		t.Skipf("too few ufi devices (%d) at this scale", devs)
	}
	if len(keys) == devs {
		t.Fatal("no key reuse among ufi-hotspot devices")
	}
}

func TestReusedCertsShareFingerprint(t *testing.T) {
	w := New(Config{Seed: 3, DeviceScale: 5e-3, AddrScale: 1e-6, ASScale: 0.02})
	bySlot := map[int][]*Device{}
	for _, d := range allDevices(w) {
		if d.Profile.Name == "mqtt-enduser" && d.KeySlot >= 0 {
			bySlot[d.KeySlot] = append(bySlot[d.KeySlot], d)
		}
	}
	for slot, ds := range bySlot {
		if len(ds) < 2 {
			continue
		}
		fp0 := w.Certificate(ds[0]).Fingerprint()
		fp1 := w.Certificate(ds[1]).Fingerprint()
		if fp0 != fp1 {
			t.Fatalf("slot %d devices have different cert fingerprints", slot)
		}
		return
	}
	t.Skip("no shared slot at this scale")
}

func TestSSHBannerParsesBack(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "raspbian", RoleResponsive)
	if d == nil {
		t.Fatal("no raspbian")
	}
	id, err := sshx.ParseServerID(w.SSHServerID(d))
	if err != nil {
		t.Fatal(err)
	}
	if id.OS() != "Raspbian" {
		t.Fatalf("OS = %q", id.OS())
	}
	base, rev, ok := id.PatchLevel()
	if !ok || rev != d.PatchRev || base == "" {
		t.Fatalf("patch = %q %d %v, want rev %d", base, rev, ok, d.PatchRev)
	}
}

func TestHitlistSeeds(t *testing.T) {
	w := New(testCfg(1))
	seeds := w.HitlistSeeds(rng.New(5))
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	foundHitlistOnly := false
	for _, s := range seeds {
		if s.Device.role == RoleHitlistOnly {
			foundHitlistOnly = true
		}
		if s.Device.role == RoleAddrOnly {
			t.Fatal("address-only device in hitlist seeds")
		}
	}
	if !foundHitlistOnly {
		t.Fatal("hitlist-only devices missing from seeds")
	}
}

func TestAliasAddrsRegistered(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "cdn-edge", RoleHitlistOnly)
	if d == nil {
		t.Fatal("no cdn-edge")
	}
	aliases := w.AliasAddrs(d, 5)
	if len(aliases) != 5 {
		t.Fatalf("got %d aliases", len(aliases))
	}
	for _, a := range aliases {
		if _, ok := w.Fabric().HostAt(a); !ok {
			t.Fatalf("alias %v not registered", a)
		}
		if ipv6x.Prefix64(a) != ipv6x.Prefix64(w.AddrAt(d, 0)) {
			t.Fatalf("alias %v outside the device /64", a)
		}
	}
}

func TestRandomUnroutedAddrInAnnouncedSpace(t *testing.T) {
	w := New(testCfg(1))
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		a := w.RandomUnroutedAddr(r)
		if _, ok := w.ASReg.LookupASN(a); !ok {
			t.Fatalf("unrouted addr %v outside announced space", a)
		}
	}
}

func TestCertificateProperties(t *testing.T) {
	w := New(testCfg(1))
	d := findDevice(w, "fritzbox", RoleResponsive)
	cert := w.Certificate(d)
	if !cert.SelfSigned {
		t.Fatal("fritz cert should be self-signed")
	}
	if !cert.ValidAt(w.Cfg.Start) {
		t.Fatal("cert not valid at collection start")
	}
	srv := findDevice(w, "3cx-webclient", RoleResponsive)
	if srv == nil {
		srv = findDevice(w, "3cx-webclient", RoleHitlistOnly)
	}
	if srv != nil {
		if c := w.Certificate(srv); c.SelfSigned {
			t.Fatal("3CX cert should be CA-issued")
		}
	}
}

func TestPatchRevWithinRange(t *testing.T) {
	w := New(testCfg(1))
	for _, d := range allDevices(w) {
		if d.Profile.SSH == nil || d.Profile.SSH.NoPatch {
			continue
		}
		if d.PatchRev < 0 || d.PatchRev > d.Profile.SSH.MaxRev {
			t.Fatalf("%s patch rev %d out of range", d.Profile.Name, d.PatchRev)
		}
	}
}

func TestOutdatedBiasOrdering(t *testing.T) {
	// Raspbian (end-user, bias 2.2) must be more outdated on average
	// than debian-server (bias 0.7) — the Figure 2 mechanism.
	w := New(Config{Seed: 11, DeviceScale: 0.02, AddrScale: 1e-6, ASScale: 0.02})
	devs := allDevices(w)
	outdatedShare := func(name string) float64 {
		outdated, total := 0, 0
		for _, d := range devs {
			if d.Profile.Name != name {
				continue
			}
			total++
			if d.PatchRev < d.Profile.SSH.MaxRev {
				outdated++
			}
		}
		if total == 0 {
			t.Fatalf("no %s devices", name)
		}
		return float64(outdated) / float64(total)
	}
	ras, deb := outdatedShare("raspbian"), outdatedShare("debian-server")
	if ras <= deb {
		t.Fatalf("raspbian outdated share %v should exceed debian %v", ras, deb)
	}
}

// The per-country NTP-client index holds exactly that country's
// address-only devices.
func TestNTPClientsAccessor(t *testing.T) {
	w := New(testCfg(1))
	ids := w.clientIDs["IN"]
	if len(ids) == 0 {
		t.Fatal("no Indian NTP clients")
	}
	m := w.NewMaterializer(1 << 16)
	for _, gid := range ids {
		if d := m.Device(gid); d.Country != "IN" || d.role != RoleAddrOnly {
			t.Fatalf("bad index entry: %s %v", d.Country, d.role)
		}
	}
}

func TestASPrefixesDisjoint(t *testing.T) {
	w := New(testCfg(1))
	seen := map[uint32]uint32{} // hi32 -> ASN
	for _, c := range w.Countries {
		for _, lst := range [][]*AS{c.Eyeball, c.Content, c.NSP, c.Entpr} {
			for _, a := range lst {
				if prev, dup := seen[a.Hi32]; dup {
					t.Fatalf("AS %d and %d share /32 %08x", prev, a.Number, a.Hi32)
				}
				seen[a.Hi32] = a.Number
			}
		}
	}
}

func TestDeviceAddressesMostlyUnique(t *testing.T) {
	// Distinct devices must (essentially) never share an address at
	// epoch 0 — collisions would conflate scan findings.
	w := New(testCfg(1))
	seen := map[string]int{}
	dups := 0
	for _, d := range allDevices(w) {
		a := w.AddrAt(d, 0).String()
		if _, ok := seen[a]; ok {
			dups++
		}
		seen[a] = d.ID
	}
	if dups > int(w.deviceTotal)/200 {
		t.Fatalf("%d address collisions among %d devices", dups, int(w.deviceTotal))
	}
}
