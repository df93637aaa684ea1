package analysis

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"ntpscan/internal/asn"
	"ntpscan/internal/geo"
	"ntpscan/internal/ipv6x"
	"ntpscan/internal/oui"
	"ntpscan/internal/zgrab"
)

func addr(i int) netip.Addr {
	return ipv6x.FromParts(0x20010db8_00000000|uint64(i>>8)<<16, uint64(i))
}

func httpsOK(ip netip.Addr, cert, title string, status int) *zgrab.Result {
	return &zgrab.Result{
		IP: ip, Module: "https", Status: zgrab.StatusSuccess,
		TLS:  &zgrab.TLSGrab{HandshakeOK: true, CertFingerprint: cert, KeyID: "k" + cert},
		HTTP: &zgrab.HTTPGrab{StatusCode: status, Title: title},
	}
}

func sshOK(ip netip.Addr, key, serverID, os string) *zgrab.Result {
	return &zgrab.Result{
		IP: ip, Module: "ssh", Status: zgrab.StatusSuccess,
		SSH: &zgrab.SSHGrab{ServerID: serverID, OS: os, KeyFingerprint: key},
	}
}

func mqttOK(ip netip.Addr, open bool) *zgrab.Result {
	return &zgrab.Result{
		IP: ip, Module: "mqtt", Status: zgrab.StatusSuccess,
		MQTT: &zgrab.MQTTGrab{Open: open},
	}
}

func coapOK(ip netip.Addr, resources ...string) *zgrab.Result {
	return &zgrab.Result{
		IP: ip, Module: "coap", Status: zgrab.StatusSuccess,
		CoAP: &zgrab.CoAPGrab{Code: "2.05", Resources: resources},
	}
}

func TestDatasetIndexing(t *testing.T) {
	rs := []*zgrab.Result{
		httpsOK(addr(1), "c1", "T", 200),
		{IP: addr(2), Module: "https", Status: zgrab.StatusTimeout},
	}
	d := NewDataset("x", rs)
	if len(d.Successes("https")) != 1 {
		t.Fatalf("successes = %d", len(d.Successes("https")))
	}
	d.Add(httpsOK(addr(3), "c2", "T", 200))
	if len(d.Successes("https")) != 2 {
		t.Fatal("Add did not index")
	}
}

// TestStreamedDatasetIsTheFold builds one dataset from a row slice and
// one row by row through Add, as cmd/analyze streams a store or a JSONL
// file. They must agree on every index the tables read, and the
// streamed one must keep no failed row. The rows hold the cases the
// scanned-address record has to get right: failures beside successes
// of the same address, an address that only ever failed, and an address
// scanned again later with another target in between (a revisit).
func TestStreamedDatasetIsTheFold(t *testing.T) {
	rs := []*zgrab.Result{
		httpsOK(addr(1), "certA", "T", 200),
		{IP: addr(1), Module: "ssh", Status: zgrab.StatusRefused, Error: "connection refused"},
		{IP: addr(2), Module: "https", Status: zgrab.StatusTimeout, Error: "i/o timeout"},
		{IP: addr(2), Module: "ssh", Status: zgrab.StatusTimeout, Error: "i/o timeout"},
		sshOK(addr(3), "key1", "SSH-2.0-OpenSSH_9.6p1", "Ubuntu"),
		{IP: addr(3), Module: "mqtt", Status: zgrab.StatusTimeout, Error: "i/o timeout"},
		{IP: addr(1), Module: "https", Status: zgrab.StatusTimeout, Error: "i/o timeout"}, // revisit
		mqttOK(addr(1), true),
		{IP: addr(4), Module: "coap", Status: zgrab.StatusTimeout, Error: "i/o timeout"},
	}
	whole := NewDataset("x", rs)
	streamed := NewDataset("x", nil)
	for _, r := range rs {
		streamed.Add(r)
	}

	held := 0
	for _, m := range []string{"http", "https", "ssh", "mqtt", "mqtts", "amqp", "amqps", "coap"} {
		got, want := streamed.Successes(m), whole.Successes(m)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Successes(%q): streamed %v, whole %v", m, got, want)
		}
		for _, r := range got {
			if !r.Success() {
				t.Errorf("the streamed dataset indexes a failed row: %+v", r)
			}
		}
		held += len(got)
	}
	if held != 3 {
		t.Errorf("the streamed dataset indexes %d successes, want 3", held)
	}
	for _, d := range []*Dataset{whole, streamed} {
		if resp, scanned, _ := HitRate(d); resp != 2 || scanned != 4 {
			t.Errorf("HitRate = %d/%d, want 2/4 (addresses 1 and 3 of 1-4)", resp, scanned)
		}
	}
	if got, want := Table2(streamed), Table2(whole); !reflect.DeepEqual(got, want) {
		t.Errorf("Table 2: streamed %+v, whole %+v", got, want)
	}

	if len(streamed.Results) != 0 {
		t.Errorf("the streamed dataset holds %d rows; Add keeps only successes", len(streamed.Results))
	}
}

func TestTable2(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		{IP: addr(1), Module: "http", Status: zgrab.StatusSuccess, HTTP: &zgrab.HTTPGrab{StatusCode: 200}},
		httpsOK(addr(1), "certA", "T", 200),
		httpsOK(addr(2), "certA", "T", 200), // same cert, second address
		sshOK(addr(3), "key1", "SSH-2.0-OpenSSH_9.6p1 Ubuntu-3ubuntu13.4", "Ubuntu"),
		sshOK(addr(4), "key1", "SSH-2.0-OpenSSH_9.6p1 Ubuntu-3ubuntu13.4", "Ubuntu"),
		mqttOK(addr(5), true),
		coapOK(addr(6), "/castDeviceSearch"),
	})
	rows := Table2(d)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	http := rows[0]
	if http.Addrs != 2 || http.AddrsTLS != 2 || http.CertsKeys != 1 {
		t.Fatalf("http row = %+v", http)
	}
	ssh := rows[1]
	if ssh.Addrs != 2 || ssh.CertsKeys != 1 {
		t.Fatalf("ssh row = %+v", ssh)
	}
	if rows[2].Addrs != 1 || rows[4].Addrs != 1 {
		t.Fatalf("mqtt/coap rows = %+v %+v", rows[2], rows[4])
	}
}

func TestHitRate(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		{IP: addr(1), Module: "http", Status: zgrab.StatusSuccess, HTTP: &zgrab.HTTPGrab{}},
		{IP: addr(1), Module: "ssh", Status: zgrab.StatusTimeout},
		{IP: addr(2), Module: "http", Status: zgrab.StatusTimeout},
		{IP: addr(3), Module: "http", Status: zgrab.StatusTimeout},
		{IP: addr(4), Module: "http", Status: zgrab.StatusTimeout},
	})
	resp, scanned, rate := HitRate(d)
	if resp != 1 || scanned != 4 || rate != 0.25 {
		t.Fatalf("hit rate = %d %d %v", resp, scanned, rate)
	}
}

func TestTitleGroups(t *testing.T) {
	var rs []*zgrab.Result
	for i := 0; i < 10; i++ {
		rs = append(rs, httpsOK(addr(100+i), fmt.Sprintf("fb%d", i), fmt.Sprintf("FRITZ!Box 75%d0", i%3), 200))
	}
	rs = append(rs,
		httpsOK(addr(200), "dl", "D-LINK", 200),
		httpsOK(addr(201), "err", "Error Page", 404),     // non-200: excluded
		httpsOK(addr(202), "nt", "", 200),                // no title
		httpsOK(addr(203), "fb0", "FRITZ!Box 7500", 200), // dup cert: ignored
	)
	groups := TitleGroups(NewDataset("x", rs))
	fritz := FindGroup(groups, "FRITZ!Box")
	if fritz == nil || fritz.Certs != 10 {
		t.Fatalf("fritz group = %+v", fritz)
	}
	if g := FindGroup(groups, "D-LINK"); g == nil || g.Certs != 1 {
		t.Fatalf("dlink group = %+v", g)
	}
	if g := FindGroup(groups, "(no title present)"); g == nil || g.Certs != 1 {
		t.Fatalf("empty group = %+v", g)
	}
	if g := FindGroup(groups, "Error Page"); g != nil {
		t.Fatal("non-200 page grouped")
	}
	if TotalCerts(groups) != 12 {
		t.Fatalf("total certs = %d", TotalCerts(groups))
	}
	// Largest group first.
	if groups[0].Certs < groups[len(groups)-1].Certs {
		t.Fatal("groups not sorted")
	}
}

func TestSSHOSTable(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		sshOK(addr(1), "k1", "SSH-2.0-OpenSSH_9.6p1 Ubuntu-3ubuntu13.4", "Ubuntu"),
		sshOK(addr(2), "k2", "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2", "Raspbian"),
		sshOK(addr(3), "k2", "SSH-2.0-OpenSSH_9.2p1 Raspbian-10+deb12u2", "Raspbian"), // dup key
		sshOK(addr(4), "k3", "SSH-2.0-dropbear_2022.83", ""),
		sshOK(addr(5), "k4", "SSH-2.0-OpenSSH_9.9", "Gentoo"),
	})
	rows := SSHOSTable(d)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.OS] = r.Keys
	}
	if counts["Ubuntu"] != 1 || counts["Raspbian"] != 1 || counts["other/unknown"] != 2 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestCoAPGroups(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		coapOK(addr(1), "/castDeviceSearch"),
		coapOK(addr(2), "/qlink/sta", "/qlink/config"),
		coapOK(addr(3)),
		coapOK(addr(4), "/weird"),
		coapOK(addr(5), "/efento/m"),
	})
	rows := CoAPGroups(d)
	got := map[string]int{}
	for _, r := range rows {
		got[r.Group] = r.Addrs
	}
	want := map[string]int{"castdevice": 1, "qlink": 1, "empty": 1, "other": 1, "efento": 1}
	for g, n := range want {
		if got[g] != n {
			t.Fatalf("group %s = %d, want %d (all: %v)", g, got[g], n, got)
		}
	}
}

func TestSSHOutdated(t *testing.T) {
	ntp := NewDataset("ntp", []*zgrab.Result{
		sshOK(addr(1), "k1", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3", "Debian"),
		sshOK(addr(2), "k2", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u1", "Debian"),
		sshOK(addr(3), "k3", "SSH-2.0-OpenSSH_9.6 FreeBSD-20240701", "FreeBSD"), // not assessable
	})
	hit := NewDataset("hitlist", []*zgrab.Result{
		sshOK(addr(4), "k4", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u5", "Debian"), // the latest
		sshOK(addr(5), "k5", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u5", "Debian"),
	})
	stats := SSHOutdated(ntp, hit)
	// Latest rev is 5 (from hitlist); both NTP keys are outdated.
	if stats[0].Assessable != 2 || stats[0].Outdated != 2 {
		t.Fatalf("ntp stats = %+v", stats[0])
	}
	if stats[1].Assessable != 2 || stats[1].Outdated != 0 {
		t.Fatalf("hitlist stats = %+v", stats[1])
	}
	if stats[0].OutdatedShare() != 1 || stats[1].UpToDate() != 2 {
		t.Fatal("derived metrics wrong")
	}
}

func TestSSHOutdatedDifferentReleasesIndependent(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		sshOK(addr(1), "k1", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3", "Debian"),
		sshOK(addr(2), "k2", "SSH-2.0-OpenSSH_8.4p1 Debian-5+deb11u9", "Debian"),
	})
	st := SSHOutdated(d)[0]
	// Each is the latest of its own release: none outdated.
	if st.Assessable != 2 || st.Outdated != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBrokerAccess(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		mqttOK(addr(1), true),
		mqttOK(addr(2), false),
		mqttOK(addr(3), false),
		// TLS broker deduped by cert: two addresses, one identity.
		{IP: addr(4), Module: "mqtts", Status: zgrab.StatusSuccess,
			TLS:  &zgrab.TLSGrab{HandshakeOK: true, CertFingerprint: "shared"},
			MQTT: &zgrab.MQTTGrab{Open: true}},
		{IP: addr(5), Module: "mqtts", Status: zgrab.StatusSuccess,
			TLS:  &zgrab.TLSGrab{HandshakeOK: true, CertFingerprint: "shared"},
			MQTT: &zgrab.MQTTGrab{Open: true}},
	})
	ac := BrokerAccess(d, "mqtt")
	if ac.Open != 2 || ac.AccessControl != 2 {
		t.Fatalf("access = %+v", ac)
	}
	if ac.OpenShare() != 0.5 {
		t.Fatalf("open share = %v", ac.OpenShare())
	}
}

func TestSecureShares(t *testing.T) {
	ntp := NewDataset("ntp", []*zgrab.Result{
		sshOK(addr(1), "k1", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u1", "Debian"), // outdated
		mqttOK(addr(2), true), // open
	})
	hit := NewDataset("hit", []*zgrab.Result{
		sshOK(addr(3), "k3", "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u5", "Debian"), // latest
		mqttOK(addr(4), false), // access controlled
	})
	shares := SecureShares(ntp, hit)
	if shares[0].Hosts != 2 || shares[0].Secure != 0 {
		t.Fatalf("ntp share = %+v", shares[0])
	}
	if shares[1].Hosts != 2 || shares[1].Secure != 2 {
		t.Fatalf("hit share = %+v", shares[1])
	}
	if shares[0].Share() != 0 || shares[1].Share() != 1 {
		t.Fatal("share values wrong")
	}
}

func testContext() *Context {
	reg := asn.NewRegistry()
	gdb := geo.NewDB()
	// addr(i) for i>=256 lands in different /48s; map three ASes.
	for i := uint32(0); i < 8; i++ {
		p := netip.PrefixFrom(ipv6x.FromParts(0x20010db8_00000000|uint64(i)<<16, 0), 48)
		reg.Register(asn.AS{Number: 100 + i, Type: asn.TypeCableDSLISP, Country: "DE"})
		reg.Announce(p, 100+i)
		gdb.MapPrefix(p, "DE")
	}
	return &Context{AS: reg, Geo: gdb, OUI: oui.Default()}
}

func TestKeyReuse(t *testing.T) {
	ctx := testContext()
	var rs []*zgrab.Result
	// One key spread over 4 ASes and 6 addresses.
	for i := 0; i < 6; i++ {
		rs = append(rs, sshOK(addr(i<<8), "reused", "SSH-2.0-OpenSSH_9.2p1", ""))
	}
	// A dual-homed key (2 ASes): excluded.
	rs = append(rs,
		sshOK(addr(0<<8|5), "dual", "SSH-2.0-OpenSSH_9.2p1", ""),
		sshOK(addr(1<<8|5), "dual", "SSH-2.0-OpenSSH_9.2p1", ""),
	)
	st := KeyReuse(ctx, NewDataset("x", rs))
	if st.ReusedKeys != 1 {
		t.Fatalf("reused keys = %d", st.ReusedKeys)
	}
	if st.ReusedIPs != 6 || st.TopKeyIPs != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TopKeyASes < 3 || st.WidestKeyASes < 3 {
		t.Fatalf("AS spread = %+v", st)
	}
}

func TestAddrSummary(t *testing.T) {
	ctx := testContext()
	s := NewAddrSummary(ctx)
	a1 := ipv6x.FromParts(0x20010db8_00000000, 0x1)                // AS 100, last-byte IID
	a2 := ipv6x.FromParts(0x20010db8_00000000, 0xdeadbeefcafe1234) // same /48, privacy
	a3 := ipv6x.FromParts(0x20010db8_00010000, 0x1)                // AS 101
	if !s.Add(a1) || !s.Add(a2) || !s.Add(a3) {
		t.Fatal("adds failed")
	}
	if s.Add(a1) {
		t.Fatal("duplicate accepted")
	}
	st := s.Stats()
	if st.Addrs != 3 || st.Nets48 != 2 || st.ASes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IIDClasses[ipv6x.IIDLastByte] != 2 || st.IIDClasses[ipv6x.IIDHighEntropy] != 1 {
		t.Fatalf("IID classes = %v", st.IIDClasses)
	}
	if st.CableDSLISP != 3 || st.ASKnown != 3 {
		t.Fatalf("cable = %d known = %d", st.CableDSLISP, st.ASKnown)
	}
	if st.CableShare() != 1 {
		t.Fatalf("cable share = %v", st.CableShare())
	}
	if st.Median48 != 1.5 {
		t.Fatalf("median48 = %v", st.Median48)
	}
}

func TestAddrSummaryOverlap(t *testing.T) {
	ctx := testContext()
	a := SummarizeAddrs(ctx, []netip.Addr{
		ipv6x.FromParts(0x20010db8_00000000, 1),
		ipv6x.FromParts(0x20010db8_00010000, 1),
	})
	b := SummarizeAddrs(ctx, []netip.Addr{
		ipv6x.FromParts(0x20010db8_00010000, 2),
		ipv6x.FromParts(0x20010db8_00020000, 1),
	})
	if got := a.Per48().OverlapWith(b.Per48()); got != 1 {
		t.Fatalf("/48 overlap = %d", got)
	}
	if got := a.ASOverlap(b); got != 1 {
		t.Fatalf("AS overlap = %d", got)
	}
	if got := a.Set().OverlapWith(b.Set()); got != 0 {
		t.Fatalf("addr overlap = %d", got)
	}
}

func TestEUI64Stats(t *testing.T) {
	ctx := testContext()
	e := NewEUI64Stats(ctx)
	// Listed universal MAC (from the default registry).
	block := ctx.OUI.OUIs(oui.VendorSamsung)[0]
	listed := ipv6x.MAC{block[0], block[1], block[2], 1, 2, 3}
	aListed := ipv6x.FromParts(0x20010db8_00000000, ipv6x.EmbedMAC(listed))
	// Unlisted universal MAC.
	unlisted := ipv6x.MAC{0x00, 0xff, 0xee, 9, 9, 9}
	aUnlisted := ipv6x.FromParts(0x20010db8_00010000, ipv6x.EmbedMAC(unlisted))
	// Locally administered.
	local := ipv6x.MAC{0x02, 1, 2, 3, 4, 5}
	aLocal := ipv6x.FromParts(0x20010db8_00020000, ipv6x.EmbedMAC(local))
	// Non-EUI address.
	plain := ipv6x.FromParts(0x20010db8_00030000, 0xdeadbeefcafe0001)

	e.Add(aListed, "DE")
	e.Add(aListed, "DE") // dup ignored
	e.Add(aUnlisted, "IN")
	e.Add(aLocal, "IN")
	e.Add(plain, "IN")

	if e.AddrsTotal != 4 || e.AddrsEUI != 3 || e.AddrsUnique != 2 {
		t.Fatalf("counts = %d %d %d", e.AddrsTotal, e.AddrsEUI, e.AddrsUnique)
	}
	if e.DistinctMACs() != 3 || e.ListedMACs() != 1 {
		t.Fatalf("MACs = %d listed %d", e.DistinctMACs(), e.ListedMACs())
	}
	top := e.TopVendors(5)
	if len(top) != 1 || top[0].Vendor != oui.VendorSamsung || top[0].MACs != 1 || top[0].IPs != 1 {
		t.Fatalf("vendors = %+v", top)
	}
	countries, shares := e.OriginDistribution(MACListed)
	if len(countries) != 1 || countries[0] != "DE" || shares[0] != 1 {
		t.Fatalf("listed origin = %v %v", countries, shares)
	}
	_, localShares := e.OriginDistribution(MACLocal)
	if len(localShares) != 1 || localShares[0] != 1 {
		t.Fatalf("local origin = %v", localShares)
	}
	if MACListed.String() == "" || MACClass(42).String() != "?" {
		t.Fatal("class strings")
	}
}

func TestAggregateModule(t *testing.T) {
	ctx := testContext()
	d := NewDataset("x", []*zgrab.Result{
		{IP: ipv6x.FromParts(0x20010db8_00000000, 1), Module: "http", Status: zgrab.StatusSuccess},
		{IP: ipv6x.FromParts(0x20010db8_00000000, 2), Module: "http", Status: zgrab.StatusSuccess},
		{IP: ipv6x.FromParts(0x20010db8_00010000, 1), Module: "http", Status: zgrab.StatusSuccess},
		{IP: ipv6x.FromParts(0x20010db8_00010000, 1), Module: "http", Status: zgrab.StatusSuccess}, // dup
	})
	agg := AggregateModule(ctx, d, "http")
	if agg.Addrs != 3 || agg.Nets48 != 2 || agg.Nets64 != 2 || agg.ASes != 2 || agg.Countries != 1 {
		t.Fatalf("agg = %+v", agg)
	}
	rows := Table5(ctx, d)
	if len(rows) != len(Table5Modules) {
		t.Fatalf("table5 rows = %d", len(rows))
	}
	if rows[0].Addrs != 3 {
		t.Fatalf("http row = %+v", rows[0])
	}
}

func TestGroupByNetworks(t *testing.T) {
	d := NewDataset("x", []*zgrab.Result{
		coapOK(ipv6x.FromParts(0x20010db8_00000000, 1), "/qlink/sta"),
		coapOK(ipv6x.FromParts(0x20010db8_00000000, 2), "/qlink/sta"),
		coapOK(ipv6x.FromParts(0x20010db8_00010000, 1), "/castDeviceSearch"),
	})
	rows := GroupByNetworks(d, "coap", func(r *zgrab.Result) string {
		return CoAPGroupOf(r.CoAP.Resources)
	})
	got := map[string]NetworkCounts{}
	for _, r := range rows {
		got[r.Group] = r
	}
	if got["qlink"].IPs != 2 || got["qlink"].Nets64 != 1 {
		t.Fatalf("qlink = %+v", got["qlink"])
	}
	if got["castdevice"].IPs != 1 {
		t.Fatalf("castdevice = %+v", got["castdevice"])
	}
}
